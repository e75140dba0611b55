"""UXS plans and walk semantics.

The walk rule is the standard one for exploration sequences: a robot that
entered its current node through port ``e`` (``e = 0`` before the first
move) and reads symbol ``σ`` leaves through port ``(e + σ) mod δ``.  The
rule lives in three places:

* the engine, which runs declared walks (:meth:`repro.sim.actions.Action.walk`)
  in the scheduler's ``_Walker`` cursor, in both regimes, and its
  ``_soa_walk_stretch`` loop, and through
  :func:`repro.sim.robot.expand_walks` in the seed scheduler;
* robot programs, which see only the degree and the entry port
  (``uxs_explore`` in :mod:`repro.core.uxs_gathering`);
* the harness walks here and in :mod:`repro.uxs.verify`, which step the
  graph's CSR arrays (:mod:`repro.graphs.csr`) as the engine does.

``tests/test_walks.py`` checks the engine's walks against the programs'
per-round moves, and ``tests/test_uxs.py`` checks these walks against the
``graph.traverse`` walk they replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.graphs.port_graph import PortGraph

__all__ = ["UxsPlan", "exploration_walk", "next_port"]


def next_port(entry_port: int, symbol: int, degree: int) -> int:
    """The exploration-sequence step rule."""
    if degree <= 0:
        raise ValueError("degree must be positive")
    return (entry_port + symbol) % degree


@dataclass(frozen=True)
class UxsPlan:
    """A concrete exploration sequence for a given ``n``.

    Attributes
    ----------
    n:
        The node budget the plan was built for.
    offsets:
        The symbols ``σ_0 .. σ_{T-1}``.  ``T = len(offsets)`` is the
        exploration-phase length every robot uses.
    provenance:
        How the plan was produced (``"practical"``, ``"exhaustive"``, or
        ``"fixed"``), recorded into experiment reports.
    """

    n: int
    offsets: Tuple[int, ...]
    provenance: str = "fixed"

    @property
    def T(self) -> int:
        return len(self.offsets)

    def __len__(self) -> int:
        return len(self.offsets)


def exploration_walk(
    graph: PortGraph, offsets: Sequence[int], start: int, entry_port: int = 0
) -> List[int]:
    """Simulator-side execution of an exploration sequence.

    Returns the node sequence (length ``len(offsets) + 1``, starting with
    ``start``).  Used by the verifier and by tests that cross-check robot
    behaviour.
    """
    csr = graph.csr
    row = csr.row_offsets
    nbr = csr.neighbor
    ent = csr.entry_port
    deg = csr.degree
    v = start
    e = entry_port
    out = [v]
    for sym in offsets:
        j = row[v] + (e + sym) % deg[v]
        v = nbr[j]
        e = ent[j]
        out.append(v)
    return out

"""Constructing exploration sequences.

Two constructions, per DESIGN.md substitution S1:

* :func:`practical_plan` — the workhorse.  Symbols come from a splitmix64
  stream seeded *only by n*, so every robot derives the identical sequence
  from its model-granted knowledge.  The length is found by doubling until
  the sequence covers a deterministic certification battery (rings, paths,
  complete graphs, lollipops, trees, random regular/ER samples — including
  the classic cover-time worst cases) from **every** start node, then
  trimmed to the worst observed cover step times a safety factor.
* :func:`exhaustive_plan` — provable universality for tiny ``n`` by
  searching against *all* connected port-labeled graphs on at most ``n``
  nodes.  Exists to demonstrate the genuine article and to sanity-check the
  practical construction's semantics; ``n <= 4`` only.

Both return :class:`~repro.uxs.sequence.UxsPlan`; results are memoised (the
certification walk is pure).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Tuple

from repro.graphs import generators as gg
from repro.graphs.enumeration import all_port_graphs
from repro.graphs.port_graph import PortGraph
from repro.uxs.sequence import UxsPlan
from repro.uxs.verify import (
    UxsCertificationError,
    covers_all_starts,
    max_cover_step_all_starts,
)

__all__ = ["splitmix_offsets", "certification_battery", "practical_plan", "exhaustive_plan"]

#: Hard cap on the doubling search: comfortably beyond the random-walk
#: cover-time regime (Θ(n^3) on the lollipop) for the sizes this repo runs.
_LENGTH_CAP_FACTOR = 512

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def splitmix_offsets(n: int, length: int, stream: int = 0) -> Tuple[int, ...]:
    """``length`` deterministic symbols in ``[0, n)`` derived from ``n`` only.

    ``stream`` selects an alternative sequence for the same ``n`` (used by
    certification escalation); all robots must agree on it, so the library
    pins ``stream = 0`` everywhere outside tests.

    Symbol ``k`` (1-based) is splitmix64's output for the state
    ``s0 + k·γ mod 2^64``: the generator is counter-based, so the whole
    stream is mixed at once over one ``uint64`` array, whose arithmetic
    wraps mod 2^64 like the scalar recurrence it replaces.
    """
    import numpy as np  # at the first plan, not with the module; the runtime already has it

    s0 = ((0xA076_1D64_78BD_642F ^ (n * 0x9E37_79B9)) ^ (stream * 0xC2B2_AE35)) & _MASK64
    z = np.arange(1, length + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z *= np.uint64(0x9E37_79B9_7F4A_7C15)
        z += np.uint64(s0)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58_476D_1CE4_E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D0_49BB_1331_11EB)
        z ^= z >> np.uint64(31)
        z %= np.uint64(max(n, 2))
    return tuple(z.tolist())


def certification_battery(n: int) -> List[PortGraph]:
    """The deterministic graph battery a practical plan must cover.

    A pure function of ``n``: includes the cover-time worst cases (lollipop,
    barbell, path), the high-symmetry cases (ring, complete, hypercube-ish
    torus when available), trees, and seeded random samples — each under
    both canonical and seeded-random port numbering.
    """
    graphs: List[PortGraph] = []

    def add(g: PortGraph) -> None:
        graphs.append(g)

    if n == 1:
        return [PortGraph(1, [])]
    if n == 2:
        return [gg.path(2)]

    for numbering in ("canonical", "random"):
        add(gg.ring(n, numbering=numbering, seed=n))
        add(gg.path(n, numbering=numbering, seed=n))
        add(gg.complete(n, numbering=numbering, seed=n))
        add(gg.binary_tree(n, numbering=numbering, seed=n))
        if n >= 4:
            add(gg.lollipop(n, numbering=numbering, seed=n))
        if n >= 6:
            add(gg.barbell(n, numbering=numbering, seed=n))
        add(gg.random_tree(n, seed=n + 1, numbering=numbering))
        add(gg.erdos_renyi(n, seed=n + 2, numbering=numbering))
        add(gg.erdos_renyi(n, seed=n + 3, numbering=numbering))
        if n >= 4 and (n * 3) % 2 == 0:
            add(gg.random_regular(n, 3, seed=n + 4, numbering=numbering))
    return graphs


@lru_cache(maxsize=None)
def practical_plan(n: int, safety: int = 2, stream: int = 0) -> UxsPlan:
    """The certified practical exploration sequence for ``n``.

    Doubling search starting at ``8·n^2·ceil(log2 n)``; once the battery is
    covered from all starts, the sequence is trimmed to ``safety`` times the
    worst observed cover step (never below the worst step itself).  The
    result is memoised; everything is a pure function of ``(n, safety,
    stream)``.

    Raises
    ------
    UxsCertificationError
        If no length up to the cap covers the battery (never observed for
        in-repo sizes; the escape hatch is a different ``stream``).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return UxsPlan(1, (), provenance="practical")

    battery = certification_battery(n)
    log2n = max(1, math.ceil(math.log2(n)))
    length = 8 * n * n * log2n
    cap = _LENGTH_CAP_FACTOR * n * n * n * log2n
    while length <= cap:
        offsets = splitmix_offsets(n, length, stream=stream)
        worst = 0
        ok = True
        for g in battery:
            step = max_cover_step_all_starts(g, offsets)
            if step is None:
                ok = False
                break
            worst = max(worst, step)
        if ok:
            t = min(length, max(worst * safety, worst))
            return UxsPlan(n, offsets[:t], provenance="practical")
        length *= 2
    raise UxsCertificationError(
        f"no splitmix sequence of length <= {cap} covered the battery for n={n}; "
        f"try a different stream"
    )


@lru_cache(maxsize=None)
def exhaustive_plan(n: int, step: int = 64) -> UxsPlan:
    """A provably universal sequence for all graphs with at most ``n`` nodes.

    Grows a splitmix sequence in ``step`` increments until it covers every
    connected port-labeled graph on ``2..n`` nodes from every start node.
    Exponential in ``n`` by nature; guarded to ``n <= 4``.
    """
    if not (1 <= n <= 4):
        raise ValueError("exhaustive_plan is only tractable for n <= 4")
    if n == 1:
        return UxsPlan(1, (), provenance="exhaustive")

    # Enumerate once; re-verify incrementally longer prefixes.
    universe: List[PortGraph] = []
    for size in range(2, n + 1):
        universe.extend(all_port_graphs(size))

    length = step
    while True:
        offsets = splitmix_offsets(n, length, stream=7)
        if all(covers_all_starts(g, offsets) for g in universe):
            # trim to the worst cover step for a tight certificate
            worst = 0
            for g in universe:
                s = max_cover_step_all_starts(g, offsets)
                assert s is not None
                worst = max(worst, s)
            return UxsPlan(n, offsets[:worst], provenance="exhaustive")
        length += step
        if length > 1_000_000:  # pragma: no cover - safety valve
            raise UxsCertificationError(f"exhaustive search for n={n} ran away")

"""Coverage verification for exploration sequences.

``covers`` / ``cover_step`` check a single (graph, start); the
``*_all_starts`` variants quantify over start nodes, which is what
universality requires (a waiting robot can be anywhere).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.graphs.port_graph import PortGraph

__all__ = [
    "UxsCertificationError",
    "cover_step",
    "covers",
    "covers_all_starts",
    "max_cover_step_all_starts",
]


class UxsCertificationError(RuntimeError):
    """An exploration sequence failed certification for a graph.

    Raised by the harness when an experiment graph is not covered by the
    plan certified for its ``n``; the remedy is raising the certification
    safety factor (see :func:`repro.uxs.generators.practical_plan`), never
    silently shortening the schedule.
    """


def cover_step(
    graph: PortGraph, offsets: Sequence[int], start: int, entry_port: int = 0
) -> Optional[int]:
    """The 1-based step index at which the walk has visited every node.

    Returns ``None`` if the sequence ends before full coverage, and 0 on a
    single node.  Walks incrementally and stops as soon as coverage is
    achieved, so certifying an easy graph against a long sequence is cheap.
    Steps over the graph's CSR arrays (the engine's kernel, see
    :mod:`repro.graphs.csr`): slot ``row[v] + (e + σ) mod deg[v]`` holds the
    next node and the port it is entered by.
    """
    csr = graph.csr
    # Flags in a list, not a bytearray: reading a list is about a quarter
    # faster in this loop (see repro.graphs.csr on plain lists).
    seen = [False] * csr.n
    seen[start] = True
    remaining = csr.n - 1
    if remaining == 0:
        return 0
    row = csr.row_offsets
    nbr = csr.neighbor
    ent = csr.entry_port
    deg = csr.degree
    v = start
    e = entry_port
    for t, sym in enumerate(offsets, start=1):
        j = row[v] + (e + sym) % deg[v]
        v = nbr[j]
        e = ent[j]
        if not seen[v]:
            seen[v] = True
            remaining -= 1
            if remaining == 0:
                return t
    return None


def covers(graph: PortGraph, offsets: Sequence[int], start: int) -> bool:
    return cover_step(graph, offsets, start) is not None


def covers_all_starts(graph: PortGraph, offsets: Sequence[int]) -> bool:
    return all(covers(graph, offsets, s) for s in graph.nodes())


def max_cover_step_all_starts(
    graph: PortGraph, offsets: Sequence[int]
) -> Optional[int]:
    """Worst cover step over all starts, or ``None`` if any start fails."""
    worst = 0
    for s in graph.nodes():
        step = cover_step(graph, offsets, s)
        if step is None:
            return None
        worst = max(worst, step)
    return worst

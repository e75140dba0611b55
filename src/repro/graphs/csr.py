"""Compiled flat-array (CSR) form of a port graph — the simulation kernel.

:class:`~repro.graphs.port_graph.PortGraph` stores its adjacency as a tuple
of per-node tuples of ``(neighbor, entry_port)`` pairs.  That layout is
convenient and immutable, but every hot-loop access chases two tuple
indirections and allocates nothing reusable.  ``CSRPortGraph`` is the same
graph *compiled* into four parallel flat integer lists in CSR (compressed
sparse row) order:

* ``row_offsets`` — length ``n + 1``; node ``v``'s ports occupy the slots
  ``row_offsets[v] .. row_offsets[v+1] - 1``, in port order;
* ``neighbor[row_offsets[v] + p]`` — the node reached from ``v`` via port
  ``p``;
* ``entry_port[row_offsets[v] + p]`` — the port observed on arrival there;
* ``degree[v]`` — ``row_offsets[v+1] - row_offsets[v]``, pre-extracted.

A traverse is then two flat list reads at a precomputed index; a degree is
one.  Plain Python ``list`` is deliberately chosen over :mod:`array` —
indexing an ``array('l')`` must box a fresh ``int`` on every read, while a
list returns the already-boxed object, which is measurably faster in the
pure-Python loops this kernel feeds (see ``docs/PERF.md``).

The compiled form is immutable by convention (never mutate the lists) and is
built lazily, once, by :attr:`PortGraph.csr`.  All flat-array graph
algorithms used by the traversal layer live here so every caller — the
scheduler, BFS utilities, generators' connectivity checks, UXS plan search
and certification (:mod:`repro.uxs.verify`) — shares one kernel.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

__all__ = ["CSRPortGraph", "bfs_distances_csr", "is_connected_csr"]


class CSRPortGraph:
    """Flat-array compiled view of one port graph (see module docstring)."""

    __slots__ = ("n", "row_offsets", "neighbor", "entry_port", "degree")

    def __init__(self, adjacency: Iterable[Tuple[Tuple[int, int], ...]]):
        row_offsets: List[int] = [0]
        neighbor: List[int] = []
        entry_port: List[int] = []
        degree: List[int] = []
        off = 0
        for ports in adjacency:
            off += len(ports)
            row_offsets.append(off)
            degree.append(len(ports))
            for (u, q) in ports:
                neighbor.append(u)
                entry_port.append(q)
        self.n = len(degree)
        self.row_offsets = row_offsets
        self.neighbor = neighbor
        self.entry_port = entry_port
        self.degree = degree

    # ------------------------------------------------------------------
    # O(1) primitives.  Hot loops should not call these methods — bind the
    # arrays locally and index directly; these exist for occasional callers
    # and tests.
    # ------------------------------------------------------------------
    def traverse(self, v: int, port: int) -> Tuple[int, int]:
        """``(neighbor, entry_port)`` of leaving ``v`` through ``port``.

        Validates ``port`` (including negatives, which raw list indexing
        would silently wrap).
        """
        if not 0 <= port < self.degree[v]:
            from repro.graphs.port_graph import PortGraphError

            raise PortGraphError(
                f"node {v} has degree {self.degree[v]}; port {port} is invalid"
            )
        i = self.row_offsets[v] + port
        return (self.neighbor[i], self.entry_port[i])

    def neighbors(self, v: int) -> List[int]:
        """Neighbors of ``v`` in port order (a fresh list slice)."""
        return self.neighbor[self.row_offsets[v]:self.row_offsets[v + 1]]


def bfs_distances_csr(csr: CSRPortGraph, source: int) -> List[int]:
    """Hop distance from ``source`` to every node (``-1`` if unreachable).

    Level-synchronized BFS over the flat arrays: the frontier is a plain
    list scanned with direct index reads, which beats a deque of method
    calls in pure Python.  Visit order matches FIFO BFS exactly (frontiers
    are expanded in insertion order), so any caller deriving parents or
    routes from first-discovery gets identical answers.
    """
    row = csr.row_offsets
    nbr = csr.neighbor
    dist = [-1] * csr.n
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for i in range(row[v], row[v + 1]):
                u = nbr[i]
                if dist[u] < 0:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def is_connected_csr(csr: CSRPortGraph) -> bool:
    """Connectivity via flat-array BFS from node 0."""
    if csr.n <= 1:
        return True
    row = csr.row_offsets
    nbr = csr.neighbor
    seen = bytearray(csr.n)
    seen[0] = 1
    count = 1
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(row[v], row[v + 1]):
                u = nbr[i]
                if not seen[u]:
                    seen[u] = 1
                    count += 1
                    nxt.append(u)
        frontier = nxt
    return count == csr.n

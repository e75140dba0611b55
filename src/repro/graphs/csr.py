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
and certification (:mod:`repro.uxs.verify`), and the exploration walks
(:func:`walk_rows`: the scheduler's walk stretches through
:func:`walk_table`, and :func:`repro.uxs.sequence.exploration_walk`) —
shares one kernel.

Walk tables
-----------

An exploration walk (:mod:`repro.uxs.sequence`) that starts from the
virtual entry port 0 is fixed by the graph, the plan and the start node,
so a graph has at most ``n`` of them per plan.  :func:`walk_rows` steps one
whole walk and returns two compact rows, the node and the entry port after
each step (one byte per step, two when ``n`` or the largest degree is 256
or more).  Rows are :mod:`array` rows, not lists, because they are kept:
a list slot costs eight bytes, and numpy reads an array in place.
:func:`walk_table` keeps the rows of the *current graph* only:
one module-level entry, keyed by the CSR's identity, then the offsets
tuple's identity, then the start node, holding strong references to each,
and replaced when another graph's walks need rows.  The replicas of one
graph share its rows and nothing else is kept;
:func:`repro.runtime.graph_cache.clear` drops them through
:func:`clear_walk_tables`.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "CSRPortGraph",
    "bfs_distances_csr",
    "is_connected_csr",
    "walk_rows",
    "walk_table",
    "clear_walk_tables",
]


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


def walk_rows(
    csr: CSRPortGraph, offsets: Sequence[int], start: int, entry_port: int
) -> Tuple[array, array]:
    """The rows of the exploration walk of ``offsets`` from ``start``.

    Step ``s`` leaves through port ``(e + offsets[s]) mod degree``, where
    ``e`` is ``entry_port`` before the first step and the entry port the
    previous step produced afterwards.  Returns ``(nodes, ports)``: the
    node and the entry port after each step, as ``array('B')`` rows, or
    ``array('H')`` (``'L'`` past 65,535) when ``n`` or the largest degree
    is 256 or more.  This is the one loop that steps a whole walk.
    """
    row = csr.row_offsets
    nbr = csr.neighbor
    ent = csr.entry_port
    deg = csr.degree
    top = max(csr.n, max(deg, default=0))
    code = "B" if top < 256 else "H" if top < 65536 else "L"
    nodes: List[int] = []
    ports: List[int] = []
    add_node = nodes.append
    add_port = ports.append
    v = start
    e = entry_port
    for sym in offsets:
        j = row[v] + (e + sym) % deg[v]
        v = nbr[j]
        e = ent[j]
        add_node(v)
        add_port(e)
    return array(code, nodes), array(code, ports)


#: Offsets tuples whose rows one graph keeps at once; the oldest goes first.
_MAX_WALK_PLANS = 8

#: The current graph's walk rows: ``(csr, {id(offsets): (offsets, {start:
#: (nodes, ports)})})``, or ``None``.  Each entry holds its CSR and its
#: offsets tuple, so no identity in the keys can name another object.
_walk_tables: Optional[
    Tuple[CSRPortGraph, Dict[int, Tuple[Sequence[int], Dict[int, Tuple[array, array]]]]]
] = None


def walk_table(csr: CSRPortGraph, offsets: Sequence[int], start: int) -> Tuple[array, array]:
    """The memoized :func:`walk_rows` of ``offsets`` from ``start`` on
    ``csr``, from the virtual entry port 0 (see the module docstring).

    A call for another CSR replaces the memo; callers must not mutate the
    rows.
    """
    global _walk_tables
    tables = _walk_tables
    if tables is None or tables[0] is not csr:
        tables = _walk_tables = (csr, {})
    plans = tables[1]
    plan = plans.get(id(offsets))
    if plan is None:
        if len(plans) >= _MAX_WALK_PLANS:
            del plans[next(iter(plans))]
        plan = plans[id(offsets)] = (offsets, {})
    rows = plan[1].get(start)
    if rows is None:
        rows = plan[1][start] = walk_rows(csr, offsets, start, 0)
    return rows


def clear_walk_tables() -> None:
    """Drop the memoized walk rows."""
    global _walk_tables
    _walk_tables = None

"""The partial port-labeled map a finder robot builds and navigates.

``RobotMap`` is robot-side state: map node ids are the robot's own invention
(0 = the node where mapping started) and bear no relation to the simulator's
node numbering — tests check the final map against the truth *up to
port-preserving isomorphism* only.

The structure maintains:

* per-node degree and a port table ``port -> (neighbor, back_port) | None``;
* a FIFO frontier of unresolved ``(node, port)`` pairs;
* BFS routing over resolved edges (:meth:`route`);
* spanning-tree closed Euler tours over resolved edges (:meth:`euler_tour`),
  the exactly-``2(n'-1)``-move sweep used both inside Phase 1 (token
  detection sweeps) and as the Phase-2 gathering tour.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from repro.graphs.port_graph import Edge, PortGraph

__all__ = ["RobotMap"]


class RobotMap:
    """A growing port-labeled map with frontier bookkeeping."""

    def __init__(self, root_degree: int):
        self.degrees: List[int] = []
        self.adj: List[List[Optional[Tuple[int, int]]]] = []
        self.frontier: deque[Tuple[int, int]] = deque()
        self.add_node(root_degree)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, degree: int) -> int:
        """Add a node with all ports unresolved; returns its map id."""
        nid = len(self.degrees)
        self.degrees.append(degree)
        self.adj.append([None] * degree)
        for p in range(degree):
            self.frontier.append((nid, p))
        return nid

    def set_edge(self, u: int, pu: int, v: int, pv: int) -> None:
        """Record the resolved edge ``u:pu <-> v:pv`` (both directions)."""
        if self.adj[u][pu] is not None and self.adj[u][pu] != (v, pv):
            raise ValueError(f"conflicting edge at map node {u} port {pu}")
        if self.adj[v][pv] is not None and self.adj[v][pv] != (u, pu):
            raise ValueError(f"conflicting edge at map node {v} port {pv}")
        self.adj[u][pu] = (v, pv)
        self.adj[v][pv] = (u, pu)

    def resolved(self, u: int, p: int) -> bool:
        return self.adj[u][p] is not None

    def next_frontier(self) -> Optional[Tuple[int, int]]:
        """Pop the next *unresolved* frontier entry (skipping stale ones)."""
        while self.frontier:
            u, p = self.frontier.popleft()
            if self.adj[u][p] is None:
                return (u, p)
        return None

    @property
    def num_nodes(self) -> int:
        return len(self.degrees)

    @property
    def num_resolved_edges(self) -> int:
        return sum(1 for row in self.adj for e in row if e is not None) // 2

    def complete(self) -> bool:
        """All ports of all known nodes resolved (and frontier drained)."""
        return all(e is not None for row in self.adj for e in row)

    # ------------------------------------------------------------------
    # Navigation over the resolved part
    # ------------------------------------------------------------------
    def route(self, source: int, target: int) -> List[int]:
        """Ports of a shortest resolved-edge path ``source -> target``.

        Deterministic (BFS in port order).  Raises if unreachable — cannot
        happen for nodes discovered by the token explorer, which only adds
        nodes via resolved edges.
        """
        if source == target:
            return []
        # BFS over a list that grows as it is read: a FIFO queue, so nodes
        # are discovered in port order level by level.  The map changes
        # between calls, so there is no cached CSR to reuse; a flat
        # predecessor list indexed by map-node id stands in for dicts.
        adj = self.adj
        pred: List[Optional[Tuple[int, int]]] = [None] * len(adj)
        pred[source] = (source, -1)
        order = [source]
        for v in order:
            for p, entry in enumerate(adj[v]):
                if entry is None:
                    continue
                u = entry[0]
                if pred[u] is None:
                    pred[u] = (v, p)
                    if u == target:
                        ports: List[int] = []
                        while u != source:
                            u, p = pred[u]
                            ports.append(p)
                        ports.reverse()
                        return ports
                    order.append(u)
        raise ValueError(f"map node {target} unreachable from {source}")

    def euler_tour(self, root: int) -> Tuple[List[int], List[int]]:
        """Closed spanning-tree tour over resolved edges from ``root``.

        Returns ``(ports, nodes)`` where ``ports`` has exactly ``2(n'-1)``
        entries (``n'`` = nodes reachable via resolved edges) and ``nodes``
        is the visited map-node sequence (length ``2(n'-1)+1``, starting and
        ending at ``root``).
        """
        # BFS spanning tree (the growing-list FIFO of :meth:`route`).  The
        # children of ``v`` are the nodes its scan appends, so they sit in
        # ``order[first[v]:end[v]]`` in port order; each child keeps the
        # port its parent leaves by (``down``) and the one back (``up``).
        adj = self.adj
        nn = len(adj)
        down = [0] * nn
        up = [0] * nn
        first = [0] * nn
        end = [0] * nn
        seen = [False] * nn
        seen[root] = True
        order = [root]
        for v in order:
            first[v] = len(order)
            for p, entry in enumerate(adj[v]):
                if entry is None:
                    continue
                u = entry[0]
                if not seen[u]:
                    seen[u] = True
                    down[u] = p
                    up[u] = entry[1]
                    order.append(u)
            end[v] = len(order)

        # Depth-first walk of the tree: down each child in turn (``first``
        # is the cursor), back up when a node's children are done.
        ports: List[int] = []
        nodes: List[int] = [root]
        stack = [root]
        while stack:
            v = stack[-1]
            i = first[v]
            if i < end[v]:
                first[v] = i + 1
                u = order[i]
                ports.append(down[u])
                nodes.append(u)
                stack.append(u)
            else:
                stack.pop()
                if stack:
                    ports.append(up[v])
                    nodes.append(stack[-1])
        return ports, nodes

    # ------------------------------------------------------------------
    # Export / validation
    # ------------------------------------------------------------------
    def to_port_graph(self) -> PortGraph:
        """Export the (complete) map as a :class:`PortGraph` for validation."""
        if not self.complete():
            raise ValueError("map is incomplete; cannot export")
        edges = []
        for u in range(self.num_nodes):
            for p, entry in enumerate(self.adj[u]):
                v, pv = entry  # type: ignore[misc]
                if (u, p) < (v, pv):
                    edges.append(Edge(u, v, p, pv))
                elif u == v:  # pragma: no cover - self loops impossible
                    raise ValueError("self loop in map")
        return PortGraph(self.num_nodes, edges)

    def memory_bits_estimate(self) -> int:
        """Rough ``O(m log n)`` memory footprint of the map, in bits.

        Two (node, port) pairs per resolved directed edge, each costing
        ``~2·log2(n)`` bits.  Used by the metrics that confirm the paper's
        memory claim shape.
        """
        import math

        n = max(self.num_nodes, 2)
        per_entry = 2 * math.ceil(math.log2(n))
        entries = sum(1 for row in self.adj for e in row if e is not None)
        return entries * per_entry

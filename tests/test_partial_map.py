"""Tests for the robot-side partial map structure."""

import random

import pytest

from repro.graphs import generators as gg
from repro.graphs.isomorphism import is_isomorphic
from repro.mapping.partial_map import RobotMap


def full_map_of(graph):
    """Simulator-side shortcut: copy a PortGraph into a RobotMap."""
    rmap = RobotMap(graph.degree(0))
    ids = {0: 0}
    import collections

    q = collections.deque([0])
    while q:
        v = q.popleft()
        for p in graph.ports(v):
            u, back = graph.traverse(v, p)
            if u not in ids:
                ids[u] = rmap.add_node(graph.degree(u))
                q.append(u)
            if not rmap.resolved(ids[v], p):
                rmap.set_edge(ids[v], p, ids[u], back)
    return rmap


class TestConstruction:
    def test_root_only(self):
        rmap = RobotMap(3)
        assert rmap.num_nodes == 1
        assert not rmap.complete()
        assert len(rmap.frontier) == 3

    def test_add_node_frontier(self):
        rmap = RobotMap(1)
        w = rmap.add_node(2)
        assert w == 1
        assert rmap.num_nodes == 2
        # 1 port at root + 2 at new node
        assert len(rmap.frontier) == 3

    def test_set_edge_resolves_both_sides(self):
        rmap = RobotMap(1)
        w = rmap.add_node(1)
        rmap.set_edge(0, 0, w, 0)
        assert rmap.resolved(0, 0) and rmap.resolved(w, 0)
        assert rmap.complete()

    def test_conflicting_edge_rejected(self):
        rmap = RobotMap(2)
        a = rmap.add_node(1)
        b = rmap.add_node(1)
        rmap.set_edge(0, 0, a, 0)
        with pytest.raises(ValueError, match="conflicting"):
            rmap.set_edge(0, 0, b, 0)

    def test_next_frontier_skips_resolved(self):
        rmap = RobotMap(2)
        a = rmap.add_node(2)
        rmap.set_edge(0, 0, a, 0)
        u, p = rmap.next_frontier()
        assert (u, p) == (0, 1)

    def test_next_frontier_empty(self):
        rmap = RobotMap(1)
        a = rmap.add_node(1)
        rmap.set_edge(0, 0, a, 0)
        assert rmap.next_frontier() is None


class TestNavigation:
    def test_route_on_copied_graph(self):
        g = gg.grid(3, 3)
        rmap = full_map_of(g)
        route = rmap.route(0, 8)
        assert len(route) == 4  # grid distance (0,0)->(2,2)

    def test_route_self(self):
        rmap = full_map_of(gg.ring(5))
        assert rmap.route(2, 2) == []

    def test_route_unreachable(self):
        rmap = RobotMap(1)  # unresolved port: no edges yet
        rmap.add_node(1)
        with pytest.raises(ValueError, match="unreachable"):
            rmap.route(0, 1)

    def test_euler_tour_covers(self):
        g = gg.lollipop(9)
        rmap = full_map_of(g)
        ports, nodes = rmap.euler_tour(0)
        assert len(ports) == 2 * (rmap.num_nodes - 1)
        assert nodes[0] == nodes[-1] == 0
        assert set(nodes) == set(range(rmap.num_nodes))

    def test_euler_tour_partial_map(self):
        # tour over the resolved part only
        rmap = RobotMap(2)
        a = rmap.add_node(2)
        rmap.set_edge(0, 0, a, 0)
        ports, nodes = rmap.euler_tour(0)
        assert nodes == [0, a, 0]


class TestExport:
    @pytest.mark.parametrize(
        "graph", [gg.ring(7), gg.star(6), gg.complete(5), gg.erdos_renyi(9, seed=2)],
        ids=["ring", "star", "complete", "er"],
    )
    def test_roundtrip_isomorphic(self, graph):
        rmap = full_map_of(graph)
        assert rmap.complete()
        assert is_isomorphic(rmap.to_port_graph(), graph)

    def test_incomplete_export_rejected(self):
        rmap = RobotMap(2)
        with pytest.raises(ValueError, match="incomplete"):
            rmap.to_port_graph()

    def test_memory_estimate_scales_with_edges(self):
        small = full_map_of(gg.ring(8))
        big = full_map_of(gg.complete(8))
        assert big.memory_bits_estimate() > small.memory_bits_estimate()


# ----------------------------------------------------------------------
# Navigation parity: the level-by-level BFS that ``route`` and
# ``euler_tour`` used before they shared one growing-list BFS, kept as the
# oracle.  Maps are grown edge by edge, the way the token explorer grows
# them, and every (root, target) pair is compared after each new edge.
# ----------------------------------------------------------------------


def _levels_route(rmap, source, target):
    if source == target:
        return []
    adj = rmap.adj
    prev_node = [-1] * len(adj)
    prev_port = [0] * len(adj)
    seen = bytearray(len(adj))
    seen[source] = 1
    frontier = [source]
    found = False
    while frontier and not found:
        nxt = []
        for v in frontier:
            for p, entry in enumerate(adj[v]):
                if entry is None:
                    continue
                u = entry[0]
                if not seen[u]:
                    seen[u] = 1
                    prev_node[u] = v
                    prev_port[u] = p
                    if u == target:
                        found = True
                        break
                    nxt.append(u)
            if found:
                break
        frontier = nxt
    if not found:
        raise ValueError(f"map node {target} unreachable from {source}")
    ports = []
    v = target
    while v != source:
        ports.append(prev_port[v])
        v = prev_node[v]
    ports.reverse()
    return ports


def _levels_euler_tour(rmap, root):
    adj = rmap.adj
    children = {root: []}
    seen = bytearray(len(adj))
    seen[root] = 1
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            kids = children[v]
            for p, entry in enumerate(adj[v]):
                if entry is None:
                    continue
                u, back = entry
                if not seen[u]:
                    seen[u] = 1
                    children[u] = []
                    kids.append((u, p, back))
                    nxt.append(u)
        frontier = nxt
    ports = []
    nodes = [root]
    stack = [(root, 0)]
    back_stack = []
    while stack:
        v, idx = stack.pop()
        kids = children[v]
        if idx < len(kids):
            child, p_out, p_back = kids[idx]
            stack.append((v, idx + 1))
            ports.append(p_out)
            nodes.append(child)
            back_stack.append(p_back)
            stack.append((child, 0))
        elif stack:
            ports.append(back_stack.pop())
            nodes.append(stack[-1][0])
    return ports, nodes


def _explorer_maps(graph, start):
    """Yield the map after each edge the token explorer resolves: nodes
    join only over resolved edges, in frontier order."""
    rmap = RobotMap(graph.degree(start))
    ids = {start: 0}
    true_of = [start]
    while True:
        fe = rmap.next_frontier()
        if fe is None:
            return
        u, p = fe
        v, q = graph.traverse(true_of[u], p)
        if v not in ids:
            ids[v] = rmap.add_node(graph.degree(v))
            true_of.append(v)
        rmap.set_edge(u, p, ids[v], q)
        yield rmap


def _shuffled_maps(graph, start):
    """Yield the map after each edge, all nodes known up front and the
    edges resolved in a seeded random order (so some pairs are apart)."""
    rmap = RobotMap(graph.degree(0))
    for v in range(1, graph.n):
        rmap.add_node(graph.degree(v))
    edges = list(graph.edges)
    random.Random(start).shuffle(edges)
    for e in edges:
        rmap.set_edge(e.u, e.pu, e.v, e.pv)
        yield rmap


def _navigation_cases():
    rng = random.Random(19)
    for seed in range(3):
        yield f"ring-{seed}", gg.ring(9, numbering="random", seed=seed)
        yield f"torus-{seed}", gg.torus(3, 4, numbering="random", seed=seed)
        yield f"grid-{seed}", gg.grid(3, 4, numbering="random", seed=seed)
        yield f"er-{seed}", gg.erdos_renyi(11, seed=rng.randrange(1000), numbering="random")
        yield f"rr-{seed}", gg.random_regular(10, 3, seed=rng.randrange(1000), numbering="random")


NAVIGATION_CASES = list(_navigation_cases())


class TestNavigationParity:
    @pytest.mark.parametrize("grow", [_explorer_maps, _shuffled_maps], ids=["explorer", "shuffled"])
    @pytest.mark.parametrize("graph", [g for _, g in NAVIGATION_CASES],
                             ids=[name for name, _ in NAVIGATION_CASES])
    def test_route_and_tour_match_level_bfs(self, graph, grow):
        maps = 0
        for rmap in grow(graph, start=graph.n // 2):
            maps += 1
            nn = rmap.num_nodes
            for root in range(nn):
                assert rmap.euler_tour(root) == _levels_euler_tour(rmap, root)
                for target in range(nn):
                    try:
                        want = _levels_route(rmap, root, target)
                    except ValueError:
                        with pytest.raises(ValueError, match="unreachable"):
                            rmap.route(root, target)
                    else:
                        assert rmap.route(root, target) == want
        assert maps == graph.m

"""Tests for universal exploration sequences (construction + verification)."""

import hashlib

import pytest

from repro.graphs import generators as gg
from repro.graphs.csr import walk_rows, walk_table
from repro.graphs.enumeration import all_port_graphs
from repro.graphs.port_graph import PortGraph
from repro.uxs.generators import (
    certification_battery,
    exhaustive_plan,
    practical_plan,
    splitmix_offsets,
)
from repro.uxs.sequence import UxsPlan, exploration_walk, next_port
from repro.uxs.verify import (
    cover_step,
    covers,
    covers_all_starts,
    max_cover_step_all_starts,
)


class TestStepRule:
    def test_next_port_wraps(self):
        assert next_port(1, 3, 2) == 0
        assert next_port(0, 0, 5) == 0
        assert next_port(2, 2, 3) == 1

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            next_port(0, 0, 0)

    def test_walk_length(self):
        g = gg.ring(6)
        visited = exploration_walk(g, (1, 1, 1), 0)
        assert len(visited) == 4
        assert visited[0] == 0

    def test_walk_deterministic(self):
        g = gg.erdos_renyi(8, seed=1)
        offsets = splitmix_offsets(8, 50)
        assert exploration_walk(g, offsets, 3) == exploration_walk(g, offsets, 3)


class TestSplitmix:
    def test_deterministic_in_n(self):
        assert splitmix_offsets(10, 100) == splitmix_offsets(10, 100)

    def test_different_n_different_streams(self):
        assert splitmix_offsets(10, 100) != splitmix_offsets(11, 100)

    def test_streams_differ(self):
        assert splitmix_offsets(10, 100, stream=0) != splitmix_offsets(10, 100, stream=1)

    def test_prefix_stability(self):
        # a longer request extends the same stream
        assert splitmix_offsets(9, 200)[:50] == splitmix_offsets(9, 50)

    def test_range(self):
        assert all(0 <= s < 12 for s in splitmix_offsets(12, 500))


class TestVerify:
    def test_cover_step_ring(self):
        g = gg.ring(5)
        # always turn "advance by 1 from entry": entry+1 mod 2 alternates...
        # use a known covering sequence: all 1s walks around the ring
        visited = exploration_walk(g, (1,) * 10, 0)
        assert set(visited) == set(range(5))
        step = cover_step(g, (1,) * 10, 0)
        assert step is not None and step <= 10

    def test_cover_step_none_when_too_short(self):
        g = gg.ring(8)
        assert cover_step(g, (1,), 0) is None

    def test_single_node_graph(self):
        g = PortGraph(1, [])
        assert cover_step(g, (), 0) == 0
        assert covers(g, (), 0)

    def test_covers_all_starts_consistency(self):
        g = gg.erdos_renyi(7, seed=5)
        plan = practical_plan(7)
        assert covers_all_starts(g, plan.offsets)
        worst = max_cover_step_all_starts(g, plan.offsets)
        assert worst is not None and worst <= plan.T

    def test_max_cover_none_on_failure(self):
        g = gg.ring(9)
        assert max_cover_step_all_starts(g, (0, 0)) is None


class TestPracticalPlan:
    def test_plan_is_cached_and_deterministic(self):
        a = practical_plan(8)
        b = practical_plan(8)
        assert a is b  # lru_cache
        assert a.provenance == "practical"
        assert a.n == 8

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16])
    def test_plan_covers_battery(self, n):
        plan = practical_plan(n)
        for g in certification_battery(n):
            assert covers_all_starts(g, plan.offsets), f"battery graph {g} uncovered"

    def test_plan_covers_unseen_family_instances(self):
        """The point of certification: graphs outside the battery (same n)
        should be covered too; the harness still double-checks per run."""
        plan = practical_plan(10)
        for g in [
            gg.grid(2, 5),
            gg.star(10),
            gg.caterpillar(10),
            gg.cycle_with_chords(10),
            gg.random_tree(10, seed=77),
            gg.erdos_renyi(10, seed=123, numbering="random"),
        ]:
            assert covers_all_starts(g, plan.offsets)

    def test_n1_plan_empty(self):
        assert practical_plan(1).T == 0

    def test_trim_keeps_worst_cover(self):
        plan = practical_plan(9)
        worst = 0
        for g in certification_battery(9):
            s = max_cover_step_all_starts(g, plan.offsets)
            assert s is not None
            worst = max(worst, s)
        assert worst <= plan.T

    def test_length_grows_reasonably(self):
        # sanity: T should be at most the initial doubling length
        import math

        for n in (6, 10, 14):
            plan = practical_plan(n)
            assert plan.T <= 8 * n * n * max(1, math.ceil(math.log2(n)))


class TestExhaustivePlan:
    @pytest.mark.parametrize("n", [2, 3])
    def test_truly_universal_tiny(self, n):
        plan = exhaustive_plan(n)
        for size in range(2, n + 1):
            for g in all_port_graphs(size):
                assert covers_all_starts(g, plan.offsets)

    @pytest.mark.slow
    def test_truly_universal_n4(self):
        plan = exhaustive_plan(4)
        for size in range(2, 5):
            for g in all_port_graphs(size):
                assert covers_all_starts(g, plan.offsets)

    def test_guard(self):
        with pytest.raises(ValueError):
            exhaustive_plan(5)

    def test_plan_metadata(self):
        plan = exhaustive_plan(3)
        assert plan.provenance == "exhaustive"
        assert len(plan) == plan.T


class TestUxsPlanType:
    def test_frozen(self):
        plan = UxsPlan(3, (1, 2, 3))
        with pytest.raises(AttributeError):
            plan.n = 4  # type: ignore[misc]

    def test_t_property(self):
        assert UxsPlan(3, (1, 2)).T == 2


# ----------------------------------------------------------------------
# Plan identity and the walk kernel.  Every robot derives its plan from n,
# and a changed symbol moves every UXS record on every engine alike, so
# the plans are pinned outright.  The scalar splitmix64 recurrence and the
# ``graph.traverse`` walk that the vectorized stream and the CSR walks
# replaced are kept here as oracles.
# ----------------------------------------------------------------------

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def _splitmix_scalar(n, length, stream=0):
    """The stream one state at a time: ``state += γ``, then mix."""
    out = []
    state = (0xA076_1D64_78BD_642F ^ (n * 0x9E37_79B9)) ^ (stream * 0xC2B2_AE35)
    for _ in range(length):
        state = (state + 0x9E37_79B9_7F4A_7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58_476D_1CE4_E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D0_49BB_1331_11EB) & _MASK64
        z = z ^ (z >> 31)
        out.append(z % max(n, 2))
    return tuple(out)


def _traverse_walk(graph, offsets, start, entry_port=0):
    """The walk through ``graph.traverse``/``graph.degree``: visited nodes."""
    v, e = start, entry_port
    out = [v]
    for sym in offsets:
        v, e = graph.traverse(v, (e + sym) % graph.degree(v))
        out.append(v)
    return out


def _traverse_cover_step(graph, offsets, start, entry_port=0):
    """1-based cover step of the ``graph.traverse`` walk, ``None`` if the
    sequence ends first, 0 on a single node."""
    seen = bytearray(graph.n)
    seen[start] = 1
    remaining = graph.n - 1
    if remaining == 0:
        return 0
    v, e = start, entry_port
    for t, sym in enumerate(offsets, start=1):
        v, e = graph.traverse(v, (e + sym) % graph.degree(v))
        if not seen[v]:
            seen[v] = 1
            remaining -= 1
            if remaining == 0:
                return t
    return None


def _digest(offsets):
    return hashlib.sha256(",".join(map(str, offsets)).encode()).hexdigest()


#: ``(T, sha256 of the comma-joined symbols)`` of ``practical_plan(n)``.
PRACTICAL_PLANS = {
    4: (42, "8a761ac016493122a4d317735b2c84de319b6c791c1a21238a0632f877579f89"),
    8: (428, "e15cca7df79f5eac4ee3247c80b4ba5a8fd9f83720877ced2b9e106d4a52dbfe"),
    12: (2280, "abaf4be0946c81331e05e2f6d7b135c689dabc6f79b8fcd8b7482775cdbd36d6"),
    16: (3170, "e1c36f07b39addbc1e866a024a5be0571c616333f4ebbfc829bb010473ee7cdb"),
    20: (5560, "28c74e07789094ddfc318cf570dbd633b7968e5f1028fed2b443fbfba1d4f7e6"),
    24: (14696, "acf2bc5f3ec1bd212c64cc8ffa552b85e1f82855289719169224fb039c01433f"),
    28: (31360, "fc1ea8cb495fdc29419ee9f7cad80ca629bb8a490e939172457100107484b382"),
    32: (40298, "9ab19e790862e2997751b44b3a2442204b8e3ec9dae82723dff19d3bd78e2712"),
}

#: The same for ``exhaustive_plan(n)``.
EXHAUSTIVE_PLANS = {
    2: (1, "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"),
    3: (3, "f3176ea4064dc47ccab85eb06a79460c0a07325bfdc3da7863dbd974031ee89b"),
    4: (27, "14f1d6c5f4b1b482478a1a9e232720b0a4ffa874d2d9422d022aa16886462ef0"),
}


class TestPlanIdentity:
    @pytest.mark.parametrize("n", sorted(PRACTICAL_PLANS))
    def test_practical_plan_pinned(self, n):
        plan = practical_plan(n)
        assert (plan.T, _digest(plan.offsets)) == PRACTICAL_PLANS[n]

    @pytest.mark.parametrize("n", sorted(EXHAUSTIVE_PLANS))
    def test_exhaustive_plan_pinned(self, n):
        plan = exhaustive_plan(n)
        assert (plan.T, _digest(plan.offsets)) == EXHAUSTIVE_PLANS[n]

    @pytest.mark.parametrize("stream", [0, 1, 3, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 24, 257])
    def test_stream_matches_scalar_recurrence(self, n, stream):
        oracle = _splitmix_scalar(n, 100_000, stream)
        for length in (0, 1, 1000, 100_000):
            got = splitmix_offsets(n, length, stream=stream)
            assert type(got) is tuple and all(type(s) is int for s in got[:5])
            assert got == oracle[:length]

    def test_stream_masks_the_seed(self):
        # A negative stream makes a negative seed; the recurrence reduces
        # it mod 2^64 at its first addition.
        assert splitmix_offsets(9, 300, stream=-5) == _splitmix_scalar(9, 300, -5)


class TestWalkKernel:
    @pytest.mark.parametrize("n", range(5, 25))
    def test_cover_step_matches_traverse_walk(self, n):
        """Every battery graph, every start, entry ports 0 and deg-1, on the
        certified plan and on a prefix too short to cover."""
        offsets = practical_plan(n).offsets
        short = offsets[: 3 * n]
        uncovered = 0
        for g in certification_battery(n):
            for s in g.nodes():
                for e in (0, g.degree(s) - 1):
                    full = cover_step(g, offsets, s, e)
                    assert full == _traverse_cover_step(g, offsets, s, e)
                    assert full is not None or e  # certified from entry port 0
                    step = cover_step(g, short, s, e)
                    assert step == _traverse_cover_step(g, short, s, e)
                    uncovered += step is None
                    assert exploration_walk(g, short, s, e) == _traverse_walk(g, short, s, e)
        assert uncovered  # the short prefix really exercises ``None``

    def test_entry_port_is_carried(self):
        g = gg.lollipop(10, numbering="random", seed=3)
        offsets = practical_plan(10).offsets[:200]
        for s in g.nodes():
            walks = {tuple(exploration_walk(g, offsets, s, e)) for e in range(g.degree(s))}
            for e in range(g.degree(s)):
                assert exploration_walk(g, offsets, s, e) == _traverse_walk(g, offsets, s, e)
            assert len(walks) == g.degree(s) or g.degree(s) == 1


def _traverse_rows(graph, offsets, start):
    """The node and the entry port after each step of the ``graph.traverse``
    walk from the virtual entry port 0."""
    v, e = start, 0
    nodes, ports = [], []
    for sym in offsets:
        v, e = graph.traverse(v, (e + sym) % graph.degree(v))
        nodes.append(v)
        ports.append(e)
    return nodes, ports


#: The six topologies of perfbench's ``uxs-sweep``.
UXS_SWEEP_GRAPHS = [
    g for n in (12, 16) for g in (gg.ring(n), gg.random_regular(n, 3, seed=1), gg.torus(4, n // 4))
]


class TestWalkRows:
    def _check(self, g, offsets):
        for s in g.nodes():
            nodes, ports = walk_rows(g.csr, offsets, s, 0)
            assert (list(nodes), list(ports)) == _traverse_rows(g, offsets, s)
            assert exploration_walk(g, offsets, s) == [s, *nodes]
            assert walk_table(g.csr, offsets, s) == (nodes, ports)

    @pytest.mark.parametrize("n", range(5, 25))
    def test_rows_match_traverse_walk_on_the_battery(self, n):
        offsets = practical_plan(n).offsets[: 10 * n]
        for g in certification_battery(n):
            self._check(g, offsets)
            assert walk_rows(g.csr, offsets, 0, 0)[0].typecode == "B"

    @pytest.mark.parametrize("g", UXS_SWEEP_GRAPHS, ids=lambda g: f"n{g.n}-deg{g.degree(0)}")
    def test_rows_match_traverse_walk_on_the_sweep_graphs(self, g):
        self._check(g, practical_plan(g.n).offsets)

    @pytest.mark.parametrize("g", [gg.ring(300), gg.star(300)], ids=["ring300", "star300"])
    def test_two_byte_rows(self, g):
        offsets = practical_plan(12).offsets[:40]
        self._check(g, offsets)
        nodes, ports = walk_rows(g.csr, offsets, 0, 0)
        assert nodes.typecode == ports.typecode == "H" and nodes.itemsize == 2

    def test_memo_keeps_the_current_graph_only(self):
        a, b = gg.ring(12), gg.ring(12)
        offsets = practical_plan(12).offsets
        other = tuple(offsets)[:100]
        rows = walk_table(a.csr, offsets, 3)
        assert walk_table(a.csr, offsets, 3) is rows  # memoized
        assert walk_table(a.csr, other, 3) != rows  # keyed by the offsets too
        assert walk_table(a.csr, offsets, 3) is rows  # two plans coexist
        assert walk_table(b.csr, offsets, 3) is not rows  # another graph replaces it
        assert walk_table(a.csr, offsets, 3) is not rows
        assert walk_table(a.csr, offsets, 3) == rows

    def test_memo_keeps_eight_offsets_tuples_per_graph(self):
        """``Action.walk`` makes a fresh tuple from a list, so a program
        that walks lists would add a tuple per walk; the oldest go."""
        from repro.graphs import csr

        g = gg.ring(12)
        tuples = [tuple([1] * (10 + k)) for k in range(10)]
        for t in tuples:
            walk_table(g.csr, t, 0)
        kept = [entry[0] for entry in csr._walk_tables[1].values()]
        assert kept == tuples[2:]

"""Scheduler semantics tests: the execution model the algorithms rely on.

These tests pin down the Face-to-Face model conventions documented in
:mod:`repro.sim.actions` — card visibility timing, simultaneous moves,
follow resolution, sleep/wake, fast-forward and termination cascades.
"""

import pytest

from repro.graphs import generators as gg
from repro.graphs.port_graph import Edge, PortGraph
from repro.sim.actions import Action
from repro.sim.errors import ProtocolViolation, SimulationDeadlock, SimulationTimeout
from repro.sim.robot import RobotSpec
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder


def path2():
    return PortGraph(2, [Edge(0, 1, 0, 0)])


def make(label, start, gen_fn, knowledge=None):
    return RobotSpec(label=label, start=start, factory=gen_fn, knowledge=knowledge or {})


def run(graph, specs, max_rounds=10_000, strict=True, trace=None):
    s = Scheduler(graph, specs, strict=strict, trace=trace)
    s.run(max_rounds)
    return s


class TestBasics:
    def test_immediate_terminate(self):
        def prog(ctx):
            obs = yield
            yield Action.terminate()

        s = run(path2(), [make(1, 0, prog)])
        assert s.all_terminated()
        assert s.metrics.rounds_executed == 1

    def test_move_updates_position_and_entry_port(self):
        seen = {}

        def prog(ctx):
            obs = yield
            assert obs.entry_port is None
            obs = yield Action.move(0)
            seen["entry"] = obs.entry_port
            seen["degree"] = obs.degree
            yield Action.terminate()

        s = run(gg.path(3), [make(1, 0, prog)])
        assert s.positions()[1] == 1
        assert seen["entry"] == 0  # arrived at node 1 through its port 0
        assert seen["degree"] == 2

    def test_invalid_port_raises(self):
        def prog(ctx):
            obs = yield
            yield Action.move(5)

        with pytest.raises(ProtocolViolation, match="invalid port"):
            run(path2(), [make(1, 0, prog)])

    def test_yield_none_rejected(self):
        def prog(ctx):
            obs = yield
            yield None

        with pytest.raises(ProtocolViolation, match="None"):
            run(path2(), [make(1, 0, prog)])

    def test_program_return_without_terminate_rejected(self):
        def prog(ctx):
            obs = yield
            obs = yield Action.stay()
            # returns: generator exhausted while still active

        with pytest.raises(ProtocolViolation, match="without terminating"):
            run(path2(), [make(1, 0, prog)])

    def test_non_bare_first_yield_rejected(self):
        def prog(ctx):
            yield Action.stay()

        with pytest.raises(ProtocolViolation, match="bare"):
            Scheduler(path2(), [make(1, 0, prog)])

    def test_duplicate_labels_rejected(self):
        def prog(ctx):
            obs = yield
            yield Action.terminate()

        with pytest.raises(ValueError, match="unique"):
            Scheduler(path2(), [make(1, 0, prog), make(1, 1, prog)])

    def test_timeout(self):
        def prog(ctx):
            obs = yield
            while True:
                obs = yield Action.stay()

        with pytest.raises(SimulationTimeout):
            run(path2(), [make(1, 0, prog)], max_rounds=50)


class TestSharedActions:
    """Actions are immutable values, so plain moves and stays are shared."""

    def test_plain_moves_and_stays_are_shared(self):
        for p in range(64):
            assert Action.move(p) is Action.move(p)
            assert Action.move(p).port == p
        assert Action.move(3, card=None, note=None) is Action.move(3)
        assert Action.stay() is Action.stay()
        assert Action.stay(card=None, note=None) is Action.stay()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Action.move(0, card={"x": 1}),
            lambda: Action.move(0, note="n"),
            lambda: Action.stay(card={"x": 1}),
            lambda: Action.stay(note="n"),
            lambda: Action.walk((1, 2)),
        ],
        ids=["move_card", "move_note", "stay_card", "stay_note", "walk"],
    )
    def test_card_or_note_actions_are_new(self, build):
        a, b = build(), build()
        assert a is not b
        assert a.hot_kind == -1

    @pytest.mark.parametrize("port", [-1, 64, None, True, 1.0], ids=repr)
    def test_other_ports_get_new_actions_keeping_the_port(self, port):
        a, b = Action.move(port), Action.move(port)
        assert a is not b
        assert a.port is port

    @pytest.mark.parametrize("traced", [False, True], ids=["soa", "general"])
    @pytest.mark.parametrize("port", [-1, 64, None, True, 1.0], ids=repr)
    def test_invalid_port_error_names_the_programs_value(self, port, traced):
        def prog(ctx):
            obs = yield
            yield Action.move(port)

        trace = TraceRecorder() if traced else None
        with pytest.raises(ProtocolViolation) as exc:
            run(path2(), [make(1, 0, prog)], trace=trace)
        assert str(exc.value) == f"robot 1: invalid port {port} on a degree-1 node"


class TestCardTiming:
    def test_cards_visible_next_round(self):
        """A card published at round r is what co-located robots see at r+1."""
        seen = []

        def publisher(ctx):
            obs = yield
            obs = yield Action.stay(card={"v": 1})
            obs = yield Action.stay(card={"v": 2})
            yield Action.terminate()

        def reader(ctx):
            obs = yield
            for _ in range(3):
                other = [c for c in obs.cards if c["id"] == 1]
                seen.append(other[0].get("v") if other else None)
                obs = yield Action.stay()
            yield Action.terminate()

        run(path2(), [make(1, 0, publisher), make(2, 0, reader)])
        # round 0: initial card (no "v"); round 1: v=1; round 2: v=2
        assert seen == [None, 1, 2]

    def test_cards_include_self_and_are_sorted(self):
        def prog(ctx):
            obs = yield
            ids = [c["id"] for c in obs.cards]
            assert ids == sorted(ids)
            assert ctx.label in ids
            yield Action.terminate()

        run(path2(), [make(5, 0, prog), make(3, 0, prog)])

    def test_id_not_forgeable(self):
        seen = {}

        def forger(ctx):
            obs = yield
            obs = yield Action.stay(card={"id": 999})
            yield Action.terminate()

        def reader(ctx):
            obs = yield
            obs = yield Action.stay()
            seen["ids"] = sorted(c["id"] for c in obs.cards)
            yield Action.terminate()

        run(path2(), [make(1, 0, forger), make(2, 0, reader)])
        assert seen["ids"] == [1, 2]


class TestMeetingSemantics:
    def test_opposite_moves_swap_without_meeting(self):
        """Robots crossing the same edge in opposite directions don't meet."""
        met = {"a": False, "b": False}

        def prog(key):
            def inner(ctx):
                obs = yield
                obs = yield Action.move(0)
                met[key] = len(obs.cards) > 1
                yield Action.terminate()

            return inner

        s = run(path2(), [make(1, 0, prog("a")), make(2, 1, prog("b"))])
        assert s.positions() == {1: 1, 2: 0}
        assert not met["a"] and not met["b"]

    def test_mover_meets_stationary_next_round(self):
        seen = {}

        def mover(ctx):
            obs = yield
            obs = yield Action.move(0)
            seen["mover_sees"] = sorted(c["id"] for c in obs.cards)
            yield Action.terminate()

        def sitter(ctx):
            obs = yield
            obs = yield Action.stay()
            obs = yield Action.stay()
            yield Action.terminate()

        run(path2(), [make(1, 0, mover), make(2, 1, sitter)])
        assert seen["mover_sees"] == [1, 2]

    def test_first_gather_round_recorded(self):
        def mover(ctx):
            obs = yield
            obs = yield Action.move(0)
            yield Action.terminate()

        def sitter(ctx):
            obs = yield
            obs = yield Action.stay()
            yield Action.terminate()

        s = run(path2(), [make(1, 0, mover), make(2, 1, sitter)])
        assert s.metrics.first_gather_round == 0  # co-located after round 0's moves


class TestSleepAndFastForward:
    def test_sleep_until_exact_round(self):
        woke = {}

        def prog(ctx):
            obs = yield
            obs = yield Action.sleep(100)
            woke["round"] = obs.round
            yield Action.terminate()

        s = run(path2(), [make(1, 0, prog)])
        woken = woke["round"]
        assert woken == 100
        # fast-forward: far fewer executed rounds than simulated
        assert s.metrics.rounds_executed < 10
        assert s.round >= 100

    def test_sleep_into_past_rejected(self):
        def prog(ctx):
            obs = yield
            yield Action.sleep(0)

        with pytest.raises(ProtocolViolation, match="future"):
            run(path2(), [make(1, 0, prog)])

    def test_forever_sleep_without_wake_rejected(self):
        def prog(ctx):
            obs = yield
            yield Action.sleep(None, wake_on_meet=False)

        with pytest.raises(ProtocolViolation, match="unwakeable"):
            run(path2(), [make(1, 0, prog)])

    def test_wake_on_meet(self):
        woke = {}

        def sleeper(ctx):
            obs = yield
            obs = yield Action.sleep(1000, wake_on_meet=True)
            woke["round"] = obs.round
            woke["ids"] = sorted(c["id"] for c in obs.cards)
            yield Action.terminate()

        def visitor(ctx):
            obs = yield
            obs = yield Action.stay()
            obs = yield Action.stay()
            obs = yield Action.move(0)  # arrives end of round 2
            yield Action.terminate()

        run(path2(), [make(1, 1, sleeper), make(2, 0, visitor)])
        assert woke["round"] == 3  # round after the arrival
        assert woke["ids"] == [1, 2]

    def test_deadlock_detected(self):
        def sleeper(ctx):
            obs = yield
            obs = yield Action.sleep(None, wake_on_meet=True)
            yield Action.terminate()

        with pytest.raises(SimulationDeadlock):
            run(path2(), [make(1, 0, sleeper)])

    def test_jump_recorded_in_trace(self):
        def prog(ctx):
            obs = yield
            obs = yield Action.sleep(500)
            yield Action.terminate()

        tr = TraceRecorder()
        run(path2(), [make(1, 0, prog)], trace=tr)
        assert any(e.kind == "jump" for e in tr)


class TestFollow:
    def test_follow_once_mirrors_move(self):
        def leader(ctx):
            obs = yield
            obs = yield Action.move(1)  # node 1, port 1 -> node 2
            yield Action.terminate()

        def follower(ctx):
            obs = yield
            obs = yield Action.follow_once(2)
            yield Action.terminate()

        s = run(gg.path(3), [make(2, 1, leader), make(1, 1, follower)])
        assert s.positions() == {1: 2, 2: 2}

    def test_follow_chain_resolves_transitively(self):
        def leader(ctx):
            obs = yield
            obs = yield Action.move(1)  # node 1, port 1 -> node 2
            yield Action.terminate()

        def mid(ctx):
            obs = yield
            obs = yield Action.follow_once(3)
            yield Action.terminate()

        def tail(ctx):
            obs = yield
            obs = yield Action.follow_once(2)
            yield Action.terminate()

        s = run(gg.path(3), [make(3, 1, leader), make(2, 1, mid), make(1, 1, tail)])
        assert set(s.positions().values()) == {2}

    def test_follow_cycle_resolves_to_stay(self):
        def a(ctx):
            obs = yield
            obs = yield Action.follow_once(2)
            yield Action.terminate()

        def b(ctx):
            obs = yield
            obs = yield Action.follow_once(1)
            yield Action.terminate()

        s = run(path2(), [make(1, 0, a), make(2, 0, b)])
        assert s.positions() == {1: 0, 2: 0}

    def test_persistent_follow_until_round(self):
        resumed = {}

        def leader(ctx):
            obs = yield
            for _ in range(4):
                obs = yield Action.move(0)
            yield Action.terminate()

        def follower(ctx):
            obs = yield
            obs = yield Action.follow(2, until_round=3, on_leader_terminate="wake")
            resumed["round"] = obs.round
            yield Action.terminate()

        s = run(gg.ring(6), [make(2, 0, leader), make(1, 0, follower)])
        assert resumed["round"] == 3
        # follow applies in the round it is issued: follower mirrors rounds
        # 0, 1 and 2 (three moves) and resumes at round 3; the leader moves 4x
        assert s.metrics.moves_by_robot[1] == 3
        assert s.metrics.moves_by_robot[2] == 4

    def test_terminate_cascade(self):
        def leader(ctx):
            obs = yield
            obs = yield Action.stay()
            yield Action.terminate()

        def follower(ctx):
            obs = yield
            yield Action.follow(2, on_leader_terminate="terminate")
            return

        s = run(path2(), [make(2, 0, leader), make(1, 0, follower)])
        assert s.all_terminated()
        terms = [r.terminated_round for r in s.robots]
        assert terms[0] == terms[1]  # same round

    def test_cascade_through_chain(self):
        def leader(ctx):
            obs = yield
            yield Action.terminate()

        def follower(target):
            def inner(ctx):
                obs = yield
                yield Action.follow(target, on_leader_terminate="terminate")
                return

            return inner

        s = run(
            path2(),
            [make(3, 0, leader), make(2, 0, follower(3)), make(1, 0, follower(2))],
        )
        assert s.all_terminated()

    def test_follow_self_rejected(self):
        def prog(ctx):
            obs = yield
            yield Action.follow_once(1)

        with pytest.raises(ProtocolViolation, match="itself"):
            run(path2(), [make(1, 0, prog)])

    def test_strict_mode_rejects_remote_follow(self):
        def leader(ctx):
            obs = yield
            obs = yield Action.stay()
            yield Action.terminate()

        def follower(ctx):
            obs = yield
            yield Action.follow_once(2)

        with pytest.raises(ProtocolViolation, match="not co-located"):
            run(path2(), [make(2, 0, leader), make(1, 1, follower)], strict=True)

    def test_unknown_follow_target_rejected(self):
        def prog(ctx):
            obs = yield
            yield Action.follow_once(42)

        with pytest.raises(ProtocolViolation, match="unknown"):
            run(path2(), [make(1, 0, prog)])


class TestFastForwardJumpSemantics:
    """Pinning the interplay of fast-forward jumps with wake machinery."""

    def test_wake_on_meet_sleeper_across_jump(self):
        """A meet-wakeable sleeper must survive a jump and wake on arrival.

        Everyone sleeps after round 0, so the scheduler jumps straight to
        round 60; the visitor then walks onto the sleeper, who must wake at
        round 61 (the round after the arrival), not at any jump artifact.
        """
        woke = {}

        def sleeper(ctx):
            obs = yield
            obs = yield Action.sleep(None, wake_on_meet=True)
            woke["round"] = obs.round
            woke["ids"] = sorted(c["id"] for c in obs.cards)
            yield Action.terminate()

        def visitor(ctx):
            obs = yield
            obs = yield Action.sleep(60)
            obs = yield Action.move(0)  # node 2 -> node 1, arrives end of 60
            yield Action.terminate()

        tr = TraceRecorder()
        s = run(gg.path(4), [make(1, 1, sleeper), make(2, 2, visitor)], trace=tr)
        jumps = [e for e in tr if e.kind == "jump"]
        assert jumps and jumps[0].data == 60  # the fast-forward really fired
        assert woke["round"] == 61
        assert woke["ids"] == [1, 2]
        # far fewer executed rounds than simulated
        assert s.metrics.rounds_executed < 10 and s.round >= 61

    def test_follower_until_round_inside_jumped_interval(self):
        """A follower's ``until_round`` must bound a jump even when its
        leader sleeps far past it."""
        resumed = {}

        def leader(ctx):
            obs = yield
            obs = yield Action.sleep(100)
            yield Action.terminate()

        def follower(ctx):
            obs = yield
            obs = yield Action.follow(2, until_round=40, on_leader_terminate="wake")
            resumed["round"] = obs.round
            yield Action.terminate()

        tr = TraceRecorder()
        s = run(path2(), [make(2, 0, leader), make(1, 0, follower)], trace=tr)
        assert resumed["round"] == 40  # woke exactly at until_round
        jump_targets = [e.data for e in tr if e.kind == "jump"]
        assert jump_targets[0] == 40  # first jump stops at the follower...
        assert 100 in jump_targets  # ...later ones carry on to the leader
        assert s.round >= 100

    def test_stop_on_gather_exactly_at_max_rounds(self):
        """Gathering in the final permitted round beats the timeout check."""

        def walker(ctx):
            obs = yield
            obs = yield Action.move(0)
            while True:
                obs = yield Action.move((obs.entry_port + 1) % obs.degree)

        def sitter(ctx):
            obs = yield
            while True:
                obs = yield Action.stay()

        # the walker reaches node 3 at the end of round 2
        g = gg.path(4)
        specs = [make(1, 0, walker), make(2, 3, sitter)]
        s = Scheduler(g, specs, strict=True)
        s.run(max_rounds=2, stop_on_gather=True)
        assert s.metrics.first_gather_round == 2
        assert s.all_gathered() and not s.all_terminated()

    def test_stop_on_gather_one_round_late_times_out(self):
        """One round short and the same workload must raise the timeout."""

        def walker(ctx):
            obs = yield
            obs = yield Action.move(0)
            while True:
                obs = yield Action.move((obs.entry_port + 1) % obs.degree)

        def sitter(ctx):
            obs = yield
            while True:
                obs = yield Action.stay()

        g = gg.path(4)
        specs = [make(1, 0, walker), make(2, 3, sitter)]
        s = Scheduler(g, specs, strict=True)
        with pytest.raises(SimulationTimeout):
            s.run(max_rounds=1, stop_on_gather=True)


class TestTerminationBookkeeping:
    def test_termination_while_apart_flags_metrics(self):
        def prog(ctx):
            obs = yield
            yield Action.terminate()

        s = run(path2(), [make(1, 0, prog), make(2, 1, prog)])
        assert not s.metrics.terminations_all_gathered

    def test_termination_together_ok(self):
        def prog(ctx):
            obs = yield
            yield Action.terminate()

        s = run(path2(), [make(1, 0, prog), make(2, 0, prog)])
        assert s.metrics.terminations_all_gathered


class TestPositionsQuery:
    """``positions()`` under the SoA engine: array-derived, correct in both
    regimes and across their transitions (the historical implementation
    rebuilt the dict from robot attributes, which the SoA engine only
    synchronizes at boundaries — the regression this pins)."""

    def test_positions_track_every_round_across_regimes(self):
        g = gg.ring(8)

        def walker(ctx):  # SoA rounds
            obs = yield
            for _ in range(3):
                obs = yield Action.move(0)
            obs = yield Action.sleep(obs.round + 3)  # forces wake machinery
            obs = yield Action.move(1)
            yield Action.terminate()

        def tracer(ctx):  # trace=None here, but give it cold actions too
            obs = yield
            obs = yield Action.sleep(obs.round + 2)
            for _ in range(4):
                obs = yield Action.move(1)
            yield Action.terminate()

        from repro.sim.reference import ReferenceScheduler

        specs = lambda: [  # noqa: E731 - two identical spec lists
            RobotSpec(label=1, start=0, factory=walker),
            RobotSpec(label=2, start=4, factory=tracer),
        ]
        fast = Scheduler(g, specs())
        seed = ReferenceScheduler(g, specs())
        while not fast.all_terminated():
            fast._step()
            seed._step()
            assert fast.positions() == seed.positions()
        assert fast.positions() == seed.positions()

    def test_positions_returns_fresh_dict(self):
        g = gg.ring(4)

        def sitter(ctx):
            obs = yield
            yield Action.terminate()

        sched = Scheduler(g, [RobotSpec(label=1, start=2, factory=sitter)])
        snapshot = sched.positions()
        snapshot[1] = 99  # mutating the copy must not corrupt the engine
        assert sched.positions() == {1: 2}

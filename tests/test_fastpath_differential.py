"""The fast path is bit-identical to the seed scheduler.

:mod:`repro.sim.scheduler` rewrote the round hot loop (incremental
occupancy, card-tuple caching, iterative follow resolution, single-pass
cascade, hoisted tracing).  This module runs the optimized
:class:`~repro.sim.scheduler.Scheduler` and the seed
:class:`~repro.sim.reference.ReferenceScheduler` side by side and asserts
**exact** equality of

* the full trace event list (every kind, every payload, every order),
* final positions and per-robot statuses,
* every :class:`~repro.sim.metrics.RunMetrics` field,

over the real algorithms on the integration-matrix graph instances, over
hand-built follow/cascade/jump scenarios that target the rewritten
machinery specifically, and over hypothesis-generated robot scripts.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.placement import (
    assign_labels,
    dispersed_random,
    undispersed_placement,
)
from repro.core.faster_gathering import faster_gathering_program
from repro.core.undispersed import undispersed_gathering_program
from repro.core.uxs_gathering import uxs_gathering_program
from repro.ext.faults import FaultPlan
from repro.graphs import generators as gg
from repro.graphs.port_graph import PortGraphError
from repro.runtime.spec import materialize
from repro.scenarios import get_scenario, scenario_names
from repro.sim.activation import (
    AdversarialActivation,
    RoundRobinActivation,
    SynchronousActivation,
    build_activation,
)
from repro.sim.actions import Action
from repro.sim.engines import IncrementalScheduler
from repro.sim.errors import ProtocolViolation
from repro.sim.reference import ReferenceScheduler
from repro.sim.replay import ReplayRecorder
from repro.sim.robot import RobotSpec
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder
from repro.sim.world import DEFAULT_MAX_ROUNDS
from tests.conftest import (
    fault_plan_strategy,
    follower_scripts,
    scaled_examples,
    script_strategy,
    scripted_factory,
)
from tests.test_integration_matrix import FAMILY_INSTANCES


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def _metrics_dict(sched):
    m = sched.metrics
    return {
        **m.as_dict(),
        "moves_by_robot": m.moves_by_robot,
        "active_rounds_by_robot": m.active_rounds_by_robot,
        "max_card_bits": m.max_card_bits,
    }


class ReferenceWithActivation(ReferenceScheduler):
    """The seed scheduler plus the activation hook, for scenario parity.

    The seed predates activation models, so its ``_step`` never consults
    one; this test-only subclass inserts the same post-wake filter the
    fast path applies, letting activation scenarios run differentially.
    """

    def _wake_due(self):
        active = super()._wake_due()
        if self.activation is not None and active:
            selected = self.activation.select(active, self.round)
            if not selected:
                raise ProtocolViolation(
                    f"activation model {self.activation.describe()!r} selected "
                    f"no robot at round {self.round} with {len(active)} due"
                )
            return selected
        return active


def _state_digest(sched):
    return (
        sched.positions(),
        sched.round,
        {r.label: r.status for r in sched.robots},
        {r.label: r.entry_port for r in sched.robots},
        _metrics_dict(sched),
    )


def run_both(graph, make_specs, max_rounds=200_000, stop_on_gather=False):
    """Run fast and seed schedulers on identical specs; assert bit-identity.

    Returns the fast scheduler for scenario-specific extra assertions.
    """
    results = []
    for cls in (Scheduler, ReferenceScheduler):
        trace = TraceRecorder()
        sched = cls(graph, make_specs(), trace=trace)
        sched.run(max_rounds=max_rounds, stop_on_gather=stop_on_gather)
        results.append((sched, trace))
    (fast, fast_trace), (ref, ref_trace) = results

    assert fast_trace.events == ref_trace.events, "trace divergence"
    assert fast.positions() == ref.positions(), "position divergence"
    assert fast.round == ref.round, "round-counter divergence"
    assert {r.label: r.status for r in fast.robots} == {
        r.label: r.status for r in ref.robots
    }, "status divergence"
    assert _metrics_dict(fast) == _metrics_dict(ref), "metrics divergence"
    return fast


def run_both_untraced(
    graph,
    make_specs,
    max_rounds=200_000,
    stop_on_gather=False,
    strict=False,
    activation="sync",
    activation_args=None,
):
    """Differential run with ``trace=None`` — the untraced SoA frame.

    A traced round tracks its movers from round start and runs no walk
    stretch, so :func:`run_both` alone would never execute the untraced
    sweep; this variant compares everything *except* traces (positions,
    round counter, statuses, full metrics).  Activation models are
    stateful, so each scheduler gets a fresh one.
    """
    digests = []
    for cls in (Scheduler, ReferenceWithActivation):
        model = build_activation(activation, dict(activation_args or {}))
        sched = cls(graph, make_specs(), strict=strict, activation=model)
        sched.run(max_rounds=max_rounds, stop_on_gather=stop_on_gather)
        digests.append((_state_digest(sched), sched))
    (fast_digest, fast), (ref_digest, _) = digests
    assert fast_digest == ref_digest, "untraced state divergence"
    return fast


# ---------------------------------------------------------------------------
# Real algorithms on the full integration matrix
# ---------------------------------------------------------------------------

IDS = [name for name, _ in FAMILY_INSTANCES]


@pytest.mark.parametrize("name,graph", FAMILY_INSTANCES, ids=IDS)
def test_matrix_undispersed(name, graph):
    starts = undispersed_placement(graph, 4, seed=42)
    labels = assign_labels(4, graph.n, seed=42)

    def make_specs():
        return [
            RobotSpec(label=l, start=s, factory=undispersed_gathering_program())
            for l, s in zip(labels, starts)
        ]

    fast = run_both(graph, make_specs)
    assert fast.all_terminated(), name


@pytest.mark.parametrize("name,graph", FAMILY_INSTANCES, ids=IDS)
def test_matrix_uxs(name, graph):
    starts = dispersed_random(graph, 3, seed=43)
    labels = assign_labels(3, graph.n, seed=43)

    def make_specs():
        return [
            RobotSpec(label=l, start=s, factory=uxs_gathering_program())
            for l, s in zip(labels, starts)
        ]

    fast = run_both(graph, make_specs)
    assert fast.all_terminated(), name


@pytest.mark.parametrize("name,graph", FAMILY_INSTANCES, ids=IDS)
def test_matrix_faster(name, graph):
    k = graph.n // 2 + 1
    starts = dispersed_random(graph, k, seed=44)
    labels = assign_labels(k, graph.n, seed=44)

    def make_specs():
        return [
            RobotSpec(label=l, start=s, factory=faster_gathering_program())
            for l, s in zip(labels, starts)
        ]

    fast = run_both(graph, make_specs)
    assert fast.all_terminated(), name


_TRACED_REPLAYED_ALGORITHMS = [
    ("faster", faster_gathering_program, dispersed_random, 3),
    ("undispersed", undispersed_gathering_program, undispersed_placement, 4),
    ("uxs", uxs_gathering_program, dispersed_random, 3),
]
_TRACED_REPLAYED_GRAPHS = [
    ("ring8", gg.ring(8)),
    ("path7", gg.path(7)),
    ("star6", gg.star(6)),
    ("er9", gg.erdos_renyi(9, seed=2)),
]
_TRACED_REPLAYED = [
    (f"{aname}-{gname}", graph, factory_fn, place, k)
    for aname, factory_fn, place, k in _TRACED_REPLAYED_ALGORITHMS
    for gname, graph in _TRACED_REPLAYED_GRAPHS
]


@pytest.mark.parametrize(
    "name,graph,factory_fn,place,k", _TRACED_REPLAYED, ids=[c[0] for c in _TRACED_REPLAYED]
)
def test_traced_and_replayed_in_one_run(name, graph, factory_fn, place, k):
    """A run with a trace and a replay recorder at once: both hooks observe
    every round, so the frame runs no walk stretch.  Events, replay
    frames, the round counter, positions, statuses and metrics must equal
    the seed's on the ``incremental`` pin and on ``Scheduler``."""
    starts = place(graph, k, seed=45)
    labels = assign_labels(k, graph.n, seed=45)
    outcomes = []
    for cls in (ReferenceScheduler, IncrementalScheduler, Scheduler):
        trace, replay = TraceRecorder(), ReplayRecorder()
        sched = cls(
            graph,
            [RobotSpec(label=l, start=s, factory=factory_fn()) for l, s in zip(labels, starts)],
            trace=trace,
            replay=replay,
        )
        sched.run(max_rounds=DEFAULT_MAX_ROUNDS)
        assert sched.all_terminated(), (name, cls)
        outcomes.append((trace.events, replay.frames, _state_digest(sched)))
    assert outcomes[1] == outcomes[0], f"{name}: incremental"
    assert outcomes[2] == outcomes[0], f"{name}: soa"


# ---------------------------------------------------------------------------
# Targeted scenarios for the rewritten machinery
# ---------------------------------------------------------------------------


def _spec(label, start, gen_fn):
    return RobotSpec(label=label, start=start, factory=gen_fn)


def test_follow_chain_and_branching_cascade():
    """Deep follow chain + branches; leader terminates -> ordered cascade.

    Labels are deliberately arranged so the cascade's iterated label-order
    passes differ from naive BFS order (follower with a *smaller* label
    than its leader joins a later pass) — pinning the single-pass rewrite
    to the seed's exact trace order.
    """
    g = gg.ring(8)

    def leader(ctx):
        obs = yield
        obs = yield Action.move(0)
        obs = yield Action.move(0)
        yield Action.terminate()

    def follower(target):
        def prog(ctx):
            obs = yield
            yield Action.follow(target, on_leader_terminate="terminate")
            return

        return prog

    def waker(target):
        def prog(ctx):
            obs = yield
            obs = yield Action.follow(target, on_leader_terminate="wake")
            yield Action.terminate()

        return prog

    def make_specs():
        return [
            _spec(5, 0, leader),
            _spec(7, 0, follower(5)),   # larger label than leader: pass 1
            _spec(3, 0, follower(5)),   # smaller label than leader: pass 2
            _spec(2, 0, follower(7)),   # chain through 7
            _spec(6, 0, waker(3)),      # wake-mode: blocks propagation
            _spec(1, 0, follower(6)),   # leader never terminates by cascade
        ]

    fast = run_both(g, make_specs)
    assert fast.all_terminated()


def test_follow_cycle_and_once_chains():
    g = gg.path(4)

    def mover(ctx):
        obs = yield
        obs = yield Action.move(0)
        yield Action.terminate()

    def once(target):
        def prog(ctx):
            obs = yield
            obs = yield Action.follow_once(target)
            yield Action.terminate()

        return prog

    def cyclic(target):
        def prog(ctx):
            obs = yield
            obs = yield Action.follow_once(target)
            yield Action.terminate()

        return prog

    def make_specs():
        return [
            _spec(4, 1, mover),
            _spec(2, 1, once(4)),     # mirrors the mover
            _spec(1, 1, once(2)),     # chain: once -> once -> mover
            _spec(5, 2, cyclic(6)),   # 5 <-> 6 cycle: both stay
            _spec(6, 2, cyclic(5)),
        ]

    run_both(g, make_specs)
    run_both_untraced(g, make_specs)


def test_wake_on_meet_and_jump_interleaving():
    """Sleepers (meet-wakeable and not) + a fast-forward jump + arrivals."""
    g = gg.path(5)

    def sleeper_meet(ctx):
        obs = yield
        obs = yield Action.sleep(None, wake_on_meet=True)
        yield Action.terminate()

    def sleeper_deep(ctx):
        obs = yield
        obs = yield Action.sleep(60)
        yield Action.terminate()

    def visitor(ctx):
        obs = yield
        obs = yield Action.sleep(40)
        obs = yield Action.move(0)  # arrives next to the meet-sleeper? no: onto it
        yield Action.terminate()

    def make_specs():
        return [
            _spec(1, 1, sleeper_meet),
            _spec(2, 4, sleeper_deep),
            _spec(3, 2, visitor),  # port 0 from node 2 leads to node 1
        ]

    run_both(g, make_specs)


def test_card_publication_timing_with_cache():
    """Co-located publishers: later robots must see start-of-round cards."""
    g = gg.star(5)

    def publisher(ctx):
        obs = yield
        for i in range(4):
            obs = yield Action.stay(card={"v": i})
        yield Action.terminate()

    def mover_publisher(ctx):
        obs = yield
        obs = yield Action.stay(card={"w": "a"})
        obs = yield Action.move(0, card={"w": "b"})
        obs = yield Action.stay(card={"w": "c"})
        obs = yield Action.stay()
        yield Action.terminate()

    def reader(ctx):
        obs = yield
        for _ in range(4):
            obs = yield Action.stay(card={"seen": sorted(
                (c.get("id"), c.get("v"), c.get("w")) for c in obs.cards
            )})
        yield Action.terminate()

    def make_specs():
        return [
            _spec(1, 0, publisher),
            _spec(2, 0, mover_publisher),
            _spec(3, 0, reader),
            _spec(4, 1, reader),
        ]

    run_both(g, make_specs)


def test_remote_follower_invalid_inherited_port_raises_like_seed():
    """Non-strict mode lets a follower track a non-co-located leader; if it
    inherits a port its own node lacks, both schedulers must raise
    PortGraphError (not walk another node's CSR slots, not IndexError),
    traced and untraced (the SoA loop's one-round follows)."""
    g = gg.path(4)

    def leader(ctx):
        obs = yield
        obs = yield Action.move(1)  # node 1 has degree 2; port 1 exists
        yield Action.terminate()

    def follower(ctx):
        obs = yield
        obs = yield Action.follow_once(2)  # at node 0: degree 1, port 1 invalid
        yield Action.terminate()

    for traced in (True, False):
        outcomes = []
        for cls in (Scheduler, ReferenceScheduler):
            trace = TraceRecorder() if traced else None
            sched = cls(g, [_spec(2, 1, leader), _spec(1, 0, follower)], trace=trace)
            with pytest.raises(PortGraphError) as exc:
                sched.run(max_rounds=50)
            # the leader's move applies before the follower's raises, in both
            outcomes.append(
                (str(exc.value), sched.positions(), trace.events if traced else None)
            )
        assert outcomes[0] == outcomes[1]
        message, positions, events = outcomes[0]
        assert "degree 1" in message and "port 1" in message
        assert positions == {1: 0, 2: 2}
        if traced:
            assert [e.kind for e in events] == ["move"]  # the leader's applied move


def test_follower_moves_before_invalid_inherited_port_stay_in_trace():
    """Two non-co-located one-round followers of a mover (non-strict): the
    lower label can take the inherited port, the higher label's node
    lacks it.  The seed records each move as it applies it, so its trace
    keeps the leader's and the first follower's moves when the second
    follower raises; every traced run must keep both as well."""
    g = gg.path(4)

    def leader(ctx):
        obs = yield
        obs = yield Action.move(1)  # node 1 -> node 2, entering at port 0
        yield Action.terminate()

    def follower(ctx):
        obs = yield
        obs = yield Action.follow_once(2)
        yield Action.terminate()

    def make_specs():
        return [
            _spec(2, 1, leader),
            _spec(3, 2, follower),  # node 2, port 1 -> node 3
            _spec(4, 0, follower),  # node 0 has degree 1: port 1 is invalid
        ]

    runs = [
        (ReferenceScheduler, None),
        (Scheduler, None),
        (IncrementalScheduler, None),
        (Scheduler, SynchronousActivation()),
    ]
    for cls, activation in runs:
        trace = TraceRecorder()
        sched = cls(g, make_specs(), trace=trace, activation=activation)
        with pytest.raises(PortGraphError) as exc:
            sched.run(max_rounds=50)
        assert str(exc.value) == "node 0 has degree 1; port 1 is invalid", cls
        assert [(e.round, e.kind, e.robot, e.data) for e in trace.events] == [
            (0, "move", 2, (1, 0)),
            (0, "move", 3, (1, 0)),
        ], (cls, activation)
        assert sched.positions() == {2: 2, 3: 3, 4: 0}, (cls, activation)


@pytest.mark.parametrize("first", ["move", "walk_first_step", "walk_later_step"])
def test_moves_before_a_violation_in_the_sweep_are_undone(first):
    """ring(6): label 1 at node 0 moves (or walks) and label 2 at node 3
    then yields ``move(5)`` on a degree-2 node.  The seed computes every
    action before it applies a move, so the violation leaves label 1 on
    its start-of-round node, entry port and move count; every engine,
    traced or under an activation model, must leave the same state.  In
    the ``walk_later_step`` case the violation comes at round 2, after
    label 1's walk took two steps."""
    g = gg.ring(6)
    at = 2 if first == "walk_later_step" else 0

    def mover(ctx):
        obs = yield
        if first == "move":
            obs = yield Action.move(0)
        else:
            walk = Action.walk((1,) * 10)
            while walk.steps < 10:
                obs = yield walk
        yield Action.terminate()

    def violator(ctx):
        obs = yield
        for _ in range(at):
            obs = yield Action.stay()
        obs = yield Action.move(5)
        yield Action.terminate()

    runs = [
        (ReferenceScheduler, None, None),
        (Scheduler, None, None),
        (IncrementalScheduler, None, None),
        (Scheduler, TraceRecorder(), None),
        (Scheduler, None, SynchronousActivation()),
    ]
    states = []
    for cls, trace, activation in runs:
        sched = cls(g, [_spec(1, 0, mover), _spec(2, 3, violator)], trace=trace,
                    activation=activation)
        with pytest.raises(ProtocolViolation, match="robot 2: invalid port 5"):
            sched.run(max_rounds=50)
        sched._sync_states()
        states.append(
            (sched.positions(), [(r.label, r.node, r.entry_port, r.moves) for r in sched.robots])
        )
    positions = {1: 0, 2: 3} if at == 0 else states[0][0]
    assert at == 0 or positions[1] != 0  # the walk had moved label 1 before round 2
    for (cls, trace, activation), state in zip(runs, states):
        assert state == states[0], (cls, trace, activation)
        assert state[0] == positions


def test_stop_on_gather_runs_match():
    g = gg.ring(6)

    def walker(ctx):
        obs = yield
        obs = yield Action.move(0)
        while True:
            # rotor: keep moving around the ring instead of bouncing back
            obs = yield Action.move((obs.entry_port + 1) % obs.degree)

    def sitter(ctx):
        obs = yield
        while True:
            obs = yield Action.stay()

    def make_specs():
        return [_spec(1, 0, walker), _spec(2, 3, sitter)]

    fast = run_both(g, make_specs, max_rounds=100, stop_on_gather=True)
    assert fast.metrics.first_gather_round is not None


# ---------------------------------------------------------------------------
# Hypothesis: random scripted robots, both schedulers, exact trace equality
# (``step_strategy``/``script_strategy``/``scripted_factory`` are the shared
# generators from repro.testing.strategies, re-exported by conftest)
# ---------------------------------------------------------------------------


@given(
    st.integers(0, 3),
    st.lists(script_strategy, min_size=1, max_size=4),
    st.data(),
)
@settings(max_examples=scaled_examples(100), deadline=None)
def test_scripted_robots_bit_identical(graph_pick, scripts, data):
    graph = [gg.ring(6), gg.path(5), gg.star(6), gg.erdos_renyi(7, seed=3)][graph_pick]
    starts = [
        data.draw(st.integers(0, graph.n - 1), label=f"start{i}")
        for i in range(len(scripts))
    ]

    def make_specs():
        return [
            RobotSpec(label=i + 1, start=s, factory=scripted_factory(sc))
            for i, (s, sc) in enumerate(zip(starts, scripts))
        ]

    run_both(graph, make_specs, max_rounds=10_000)


@given(st.integers(0, 3), st.integers(2, 4).flatmap(follower_scripts), st.data())
@settings(max_examples=scaled_examples(150), deadline=None)
def test_follower_scripts_untraced_bit_identical(graph_pick, scripts, data):
    """Scripted fleets that follow each other — persistent (timed and
    untimed, both ``on_leader_terminate`` modes) and one-round, chains and
    cycles, leaders on other nodes — run untraced and non-strict, so the
    SoA riders carry them: rider-cache invalidation on every follow, wake
    and termination, and followers inheriting a port their own node lacks.
    The state digests must match the seed's, or both runs must raise the
    same exception with the same message."""
    graph = [gg.ring(6), gg.path(5), gg.star(6), gg.erdos_renyi(7, seed=3)][graph_pick]
    starts = [
        data.draw(st.integers(0, graph.n - 1), label=f"start{i}")
        for i in range(len(scripts))
    ]
    outcomes = []
    for cls in (Scheduler, ReferenceScheduler):
        sched = cls(
            graph,
            [
                RobotSpec(label=i + 1, start=s, factory=scripted_factory(sc))
                for i, (s, sc) in enumerate(zip(starts, scripts))
            ],
            strict=False,
        )
        try:
            sched.run(max_rounds=10_000)
        except Exception as exc:
            outcomes.append(("raised", type(exc), str(exc)))
        else:
            outcomes.append(("ran", _state_digest(sched)))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Untraced differential: the SoA hot loop on real algorithms
# ---------------------------------------------------------------------------
# The matrix tests above are traced, and a traced round tracks its movers
# from round start and runs no walk stretch; these repeat representative
# workloads with trace=None, where movers are tracked only for followers and
# meet-sleepers and walkers run whole stretches, and compare
# positions/statuses/round/metrics.


@pytest.fixture
def general_steps(monkeypatch):
    """Rounds the optimized scheduler sent down ``_step_general``.

    A ``Scheduler`` run is one SoA frame for every round — Lemma-4
    followers, ``wake_on_meet`` sleepers, traces and activation models
    included — so the tests below pin this list empty; only a class
    pinned to per-round stepping (``IncrementalScheduler``) reaches the
    spy.  (The seed scheduler overrides ``_step`` wholesale and never
    reaches it.)
    """
    rounds = []
    step_general = Scheduler._step_general

    def spy(self, stop_round):
        rounds.append(self.round)
        return step_general(self, stop_round)

    monkeypatch.setattr(Scheduler, "_step_general", spy)
    return rounds


@pytest.mark.parametrize("name,graph", FAMILY_INSTANCES, ids=IDS)
def test_matrix_faster_untraced_soa(name, graph, general_steps):
    k = graph.n // 2 + 1
    starts = dispersed_random(graph, k, seed=44)
    labels = assign_labels(k, graph.n, seed=44)

    def make_specs():
        return [
            RobotSpec(label=l, start=s, factory=faster_gathering_program())
            for l, s in zip(labels, starts)
        ]

    fast = run_both_untraced(graph, make_specs)
    assert fast.all_terminated(), name
    assert general_steps == [], name


@pytest.mark.parametrize("name,graph", FAMILY_INSTANCES, ids=IDS)
def test_matrix_uxs_untraced_soa(name, graph, general_steps):
    starts = dispersed_random(graph, 3, seed=43)
    labels = assign_labels(3, graph.n, seed=43)

    def make_specs():
        return [
            RobotSpec(label=l, start=s, factory=uxs_gathering_program())
            for l, s in zip(labels, starts)
        ]

    fast = run_both_untraced(graph, make_specs)
    assert fast.all_terminated(), name
    assert general_steps == [], name


@pytest.mark.parametrize("name,graph", FAMILY_INSTANCES, ids=IDS)
def test_matrix_undispersed_untraced_soa(name, graph, general_steps):
    """Undispersed-Gathering from undispersed starts: helpers escort their
    finder with one-round follows and park as meet-sleepers."""
    starts = undispersed_placement(graph, 4, seed=42)
    labels = assign_labels(4, graph.n, seed=42)

    def make_specs():
        return [
            RobotSpec(label=l, start=s, factory=undispersed_gathering_program())
            for l, s in zip(labels, starts)
        ]

    fast = run_both_untraced(graph, make_specs)
    assert fast.all_terminated(), name
    assert general_steps == [], name


def _uxs_ring12_specs():
    graph = gg.ring(12)
    starts = dispersed_random(graph, 3, seed=43)
    labels = assign_labels(3, graph.n, seed=43)
    return graph, [
        RobotSpec(label=l, start=s, factory=uxs_gathering_program())
        for l, s in zip(labels, starts)
    ]


@pytest.mark.parametrize(
    "instrument",
    [
        lambda: {"trace": TraceRecorder()},
        lambda: {"activation": AdversarialActivation(budget=99)},
        lambda: {"activation": RoundRobinActivation(groups=2)},
    ],
    ids=["traced", "adversarial_budget99", "round_robin_groups2"],
)
def test_traced_and_activation_runs_stay_in_one_frame(instrument, general_steps):
    """Traced and activation-model runs on ``Scheduler`` run in the SoA
    frame, like every other run, and never reach ``_step_general``."""
    graph, specs = _uxs_ring12_specs()
    sched = Scheduler(graph, specs, **instrument())
    sched.run(max_rounds=DEFAULT_MAX_ROUNDS)
    assert sched.all_terminated()
    assert sched.metrics.rounds_executed > 0
    assert general_steps == []


def test_incremental_steps_through_step_general_once_per_step(general_steps):
    """A traced ``IncrementalScheduler`` run makes one ``_step_general``
    call per ``_step``: one per executed round and one per fast-forward
    jump."""
    graph, specs = _uxs_ring12_specs()
    trace = TraceRecorder()
    sched = IncrementalScheduler(graph, specs, trace=trace)
    sched.run(max_rounds=DEFAULT_MAX_ROUNDS)
    assert sched.all_terminated()
    jumps = trace.of_kind("jump")
    assert jumps
    assert len(general_steps) == sched.metrics.rounds_executed + len(jumps)


def test_follow_cascade_untraced_soa():
    """The SoA cold paths: follow mid-sweep (mover reconstruction),
    cascade, woken-early bookkeeping — without a trace, which would track
    the movers from round start."""
    g = gg.ring(8)

    def leader(ctx):
        obs = yield
        obs = yield Action.move(0)
        obs = yield Action.move(0)
        yield Action.terminate()

    def follower(target):
        def prog(ctx):
            obs = yield
            yield Action.follow(target, on_leader_terminate="terminate")
            return

        return prog

    def waker(target):
        def prog(ctx):
            obs = yield
            obs = yield Action.follow(target, on_leader_terminate="wake")
            yield Action.terminate()

        return prog

    def make_specs():
        return [
            RobotSpec(label=5, start=0, factory=leader),
            RobotSpec(label=7, start=0, factory=follower(5)),
            RobotSpec(label=3, start=0, factory=follower(5)),
            RobotSpec(label=2, start=0, factory=follower(7)),
            RobotSpec(label=6, start=0, factory=waker(3)),
            RobotSpec(label=1, start=0, factory=follower(6)),
        ]

    fast = run_both_untraced(g, make_specs)
    assert fast.all_terminated()


def test_riders_fail_in_label_order_untraced_soa():
    """Two followers on other nodes inherit a port their leaves lack.  The
    rider that fails first — hence the error message — is the smaller
    label, although it started following later (so it sits second in the
    leader's follower list)."""
    g = gg.star(6)
    center = max(range(g.n), key=g.degree)
    leaf_a, leaf_b = [v for v in range(g.n) if v != center][:2]

    def leader(ctx):
        obs = yield
        obs = yield Action.stay()
        obs = yield Action.stay()
        obs = yield Action.move(2)  # valid at the center, not on a leaf
        yield Action.terminate()

    def follower(delay):
        def prog(ctx):
            obs = yield
            for _ in range(delay):
                obs = yield Action.stay()
            yield Action.follow(5)

        return prog

    outcomes = []
    for cls in (Scheduler, ReferenceScheduler):
        sched = cls(
            g,
            [
                _spec(5, center, leader),
                _spec(3, leaf_a, follower(0)),  # follows first
                _spec(2, leaf_b, follower(1)),  # follows second, smaller label
            ],
        )
        with pytest.raises(PortGraphError) as exc:
            sched.run(max_rounds=50)
        outcomes.append((str(exc.value), sched.positions()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == f"node {leaf_b} has degree 1; port 2 is invalid"


def _leader(port, rounds):
    def prog(ctx):
        obs = yield
        obs = yield Action.stay()
        for _ in range(rounds):
            obs = yield Action.move(port)
        yield Action.terminate()

    return prog


def _follower(target):
    def prog(ctx):
        obs = yield
        yield Action.follow(target)

    return prog


def test_two_carriers_untraced_soa(general_steps):
    """Two leaders carrying riders move in the same round, so the riders
    take the full propagation: a chain and a single follower ride their
    own leaders; then, on a star, the riders of both leaders apply
    interleaved in label order up to the first invalid inherited port."""
    def ring_specs():
        return [
            _spec(6, 0, _leader(0, 3)),
            _spec(5, 0, _follower(6)),
            _spec(1, 0, _follower(5)),  # a chain: 1 -> 5 -> 6
            _spec(8, 4, _leader(1, 3)),
            _spec(3, 4, _follower(8)),
        ]

    fast = run_both_untraced(gg.ring(8), ring_specs)
    assert fast.all_terminated()

    g = gg.star(6)
    center = max(range(g.n), key=g.degree)
    leaf_a, leaf_b, leaf_c = [v for v in range(g.n) if v != center][:3]
    outcomes = []
    for cls in (Scheduler, ReferenceScheduler):
        sched = cls(
            g,
            [
                _spec(6, center, _leader(3, 1)),
                _spec(4, leaf_a, _follower(6)),  # port 3 on a leaf: invalid
                _spec(8, leaf_b, _leader(0, 1)),
                _spec(2, leaf_c, _follower(8)),  # port 0 on a leaf: applies first
            ],
        )
        with pytest.raises(PortGraphError) as exc:
            sched.run(max_rounds=50)
        outcomes.append((str(exc.value), sched.positions()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == f"node {leaf_a} has degree 1; port 3 is invalid"
    assert outcomes[0][1][2] == center
    assert general_steps == []


def test_gathered_group_cards_untraced_soa(general_steps):
    """Four robots on one node see every card in label order — standing
    together, then as a group riding its leader (the all-gathered closed
    form of the SoA snapshot).  The observed card tuples are recorded
    round by round and must equal the seed's."""
    g = gg.ring(6)

    def robot(label, seen):
        def prog(ctx):
            obs = yield
            obs = yield Action.stay(card={"v": 10 * label})
            for _ in range(2):
                seen.append((label, obs.round, tuple(sorted(c.items()) for c in obs.cards)))
                obs = yield Action.stay()
            if label != 7:
                yield Action.follow(7)
                return
            for _ in range(3):
                seen.append((label, obs.round, tuple(sorted(c.items()) for c in obs.cards)))
                obs = yield Action.move(0)
            yield Action.terminate()

        return prog

    observed = []
    for cls in (Scheduler, ReferenceScheduler):
        seen = []
        sched = cls(g, [_spec(label, 0, robot(label, seen)) for label in (9, 4, 7, 2)])
        sched.run(max_rounds=50)
        assert sched.all_terminated()
        observed.append(seen)
    assert observed[0] == observed[1]
    assert len(observed[0]) == 11
    assert general_steps == []


def test_rider_arrival_wakes_meet_sleeper_untraced_soa(general_steps):
    """A rider that is not co-located with its leader (non-strict mode)
    lands on a meet-sleeper's node: the rider's own arrival, not the
    leader's, must wake the sleeper the next round."""
    g = gg.ring(8)
    port = 0
    landing, _ = g.traverse(4, port)
    assert landing != g.traverse(0, port)[0]
    woke = []

    def leader(ctx):
        obs = yield
        obs = yield Action.stay()
        obs = yield Action.move(port)
        yield Action.terminate()

    def sleeper(ctx):
        obs = yield
        obs = yield Action.sleep(40, wake_on_meet=True)
        woke.append(obs.round)
        yield Action.terminate()

    def make_specs():
        return [
            _spec(5, 0, leader),
            _spec(3, 4, _follower(5)),
            _spec(2, landing, sleeper),
        ]

    fast = run_both_untraced(g, make_specs)
    assert fast.all_terminated()
    assert woke == [2, 2]  # fast, then seed
    assert general_steps == []


def test_once_follower_arrival_wakes_meet_sleeper_untraced_soa(general_steps):
    """The one-round twin of the rider test above: a ``follow_once``
    follower on another node takes its leader's port and lands on a
    meet-sleeper's node, whose wake must come from the follower's
    arrival."""
    g = gg.ring(8)
    port = 0
    landing, _ = g.traverse(4, port)
    assert landing != g.traverse(0, port)[0]
    woke = []

    def leader(ctx):
        obs = yield
        obs = yield Action.stay()
        obs = yield Action.move(port)
        yield Action.terminate()

    def once_follower(ctx):
        obs = yield
        obs = yield Action.stay()
        obs = yield Action.follow_once(5)
        yield Action.terminate()

    def sleeper(ctx):
        obs = yield
        obs = yield Action.sleep(40, wake_on_meet=True)
        woke.append(obs.round)
        yield Action.terminate()

    def make_specs():
        return [
            _spec(5, 0, leader),
            _spec(3, 4, once_follower),
            _spec(2, landing, sleeper),
        ]

    fast = run_both_untraced(g, make_specs)
    assert fast.all_terminated()
    assert woke == [2, 2]  # fast, then seed
    assert general_steps == []


def test_new_meet_sleeper_wakes_after_node_set_built_untraced_soa(general_steps):
    """The SoA commit tests arrivals against the nodes of the meet-sleepers,
    a set built at the first commit with movers.  Robot 3 meet-sleeps from
    round 0, so round 1's move builds that set; robot 2 starts meet-sleeping
    on another node in round 2, the round robot 1 arrives there, and must
    wake in round 3 -- the new sleep has to drop the stale set."""
    g = gg.ring(8)
    hop, _ = g.traverse(0, 0)
    second, _ = g.traverse(hop, 0)
    first = next(v for v in range(g.n) if v not in (0, hop, second))
    woke = []

    def walker(ctx):
        obs = yield
        obs = yield Action.stay()
        obs = yield Action.move(0)
        obs = yield Action.move(0)  # arrives on robot 2's node
        yield Action.terminate()

    def late_sleeper(ctx):
        obs = yield
        obs = yield Action.stay()
        obs = yield Action.stay()
        obs = yield Action.sleep(40, wake_on_meet=True)
        woke.append(obs.round)
        yield Action.terminate()

    def early_sleeper(ctx):
        obs = yield
        obs = yield Action.sleep(50, wake_on_meet=True)
        yield Action.terminate()

    def make_specs():
        return [
            _spec(1, 0, walker),
            _spec(2, second, late_sleeper),
            _spec(3, first, early_sleeper),
        ]

    fast = run_both_untraced(g, make_specs)
    assert fast.all_terminated()
    assert woke == [3, 3]  # fast, then seed
    assert general_steps == []


def test_meet_sleep_mid_sweep_untraced_soa():
    """A wake_on_meet sleep appearing mid-SoA-round must reconstruct this
    round's earlier inline movers for arrival detection."""
    g = gg.path(5)

    def early_mover(ctx):  # label 1: moves before the sleeper acts
        obs = yield
        obs = yield Action.move(0)  # node 2 -> node 1
        obs = yield Action.stay()
        yield Action.terminate()

    def meet_sleeper(ctx):  # label 2 at node 1: sleeps this same round
        obs = yield
        obs = yield Action.sleep(None, wake_on_meet=True)
        yield Action.terminate()

    def make_specs():
        return [
            RobotSpec(label=1, start=2, factory=early_mover),
            RobotSpec(label=2, start=1, factory=meet_sleeper),
        ]

    fast = run_both_untraced(g, make_specs)
    assert fast.all_terminated()


# ---------------------------------------------------------------------------
# The scenario registry, differentially (all 9 curated entries)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario_name", scenario_names())
def test_scenario_registry_differential(scenario_name):
    """Every compiled spec of every registered scenario runs bit-identical
    (positions, statuses, round counter, metrics) on the SoA engine vs the
    seed scheduler — activation models via the test shim, fault plans via
    the same program wrappers both schedulers consume."""
    scenario = get_scenario(scenario_name)
    for spec in scenario.specs:
        graph, starts, labels, factory_for = materialize(spec)
        plan = spec.fault_plan()
        factory = factory_for()

        def make_specs():
            return [
                RobotSpec(
                    label=l,
                    start=s,
                    factory=plan.wrap(i, factory) if plan is not None else factory,
                    knowledge=dict(spec.knowledge),
                )
                for i, (l, s) in enumerate(zip(labels, starts))
            ]

        fast = run_both_untraced(
            graph,
            make_specs,
            max_rounds=spec.max_rounds if spec.max_rounds is not None else DEFAULT_MAX_ROUNDS,
            stop_on_gather=spec.stop_on_gather,
            strict=spec.strict,
            activation=spec.activation,
            activation_args=dict(spec.activation_args),
        )
        assert fast is not None


# ---------------------------------------------------------------------------
# Hypothesis: random fault plans over scripted robots, bit-identical
# ---------------------------------------------------------------------------

@given(
    st.integers(0, 3),
    st.lists(script_strategy, min_size=2, max_size=4),
    fault_plan_strategy,
    st.data(),
)
@settings(max_examples=scaled_examples(60), deadline=None)
def test_fault_plans_bit_identical(graph_pick, scripts, plan_dict, data):
    """Crash/delay campaigns (program-level wrappers) stay bit-identical
    across both schedulers — traced and untraced."""
    graph = [gg.ring(6), gg.path(5), gg.star(6), gg.erdos_renyi(7, seed=3)][graph_pick]
    k = len(scripts)
    plan = FaultPlan.from_dict(
        {
            kind: {i: v for i, v in table.items() if i < k}
            for kind, table in plan_dict.items()
        }
    )
    starts = [
        data.draw(st.integers(0, graph.n - 1), label=f"start{i}")
        for i in range(k)
    ]

    def make_specs():
        return [
            RobotSpec(
                label=i + 1,
                start=s,
                factory=plan.wrap(i, scripted_factory(sc)),
            )
            for i, (s, sc) in enumerate(zip(starts, scripts))
        ]

    run_both(graph, make_specs, max_rounds=10_000)
    run_both_untraced(graph, make_specs, max_rounds=10_000)

"""Declared walks against the per-round exploration they replace.

``uxs_explore`` yields one :meth:`Action.walk` per exploration and the
engines run it under the hand-back rule (:mod:`repro.sim.actions`): the
``soa`` loop, the batch engines and the per-round driver natively, the
seed scheduler through :func:`repro.sim.robot.expand_walks`.  This module
keeps the per-round exploration it replaced -- one yielded move per round,
the merge rule after every move -- as the reference, patches it into
``repro.core.uxs_gathering`` and asserts that both give the same records,
the same ``RunMetrics`` (moves and active rounds by robot included) and
the same final positions, on every engine, for UXS-Gathering from
dispersed and undispersed starts, the gathering-only baseline,
Faster-Gathering's UXS fallback, every activation model, fault plans and
a crash due mid-walk; traced runs on the seed scheduler must record the
same events.
"""

import contextlib

import pytest

from repro.analysis.placement import assign_labels, dispersed_random, undispersed_placement
from repro.baselines.tz_rendezvous import tz_rendezvous_program
from repro.core import uxs_gathering
from repro.core.faster_gathering import faster_gathering_program
from repro.core.proglets import highest_free_label
from repro.core.uxs_gathering import uxs_gathering_program
from repro.ext.crash_faults import crash_at
from repro.ext.faults import FaultPlan
from repro.graphs import csr as csr_mod
from repro.graphs import generators as gg
from repro.runtime import graph_cache
from repro.sim.actions import Action
from repro.sim.activation import build_activation
from repro.sim.engines import get_engine
from repro.sim.robot import RobotSpec
from repro.sim.trace import TraceRecorder
from tests.test_engine_conformance import ENGINE_IDS, ENGINES, digest, run_engine
from tests.test_integration_matrix import FAMILY_INSTANCES

ACTIVATION_ENGINES = [e for e in ENGINES if get_engine(e).capabilities.supports_activation]


def per_round_uxs_explore(obs, offsets, my_label):
    """The exploration before declared walks: one move per round."""
    e = 0
    for sym in offsets:
        p = (e + sym) % obs.degree
        obs = yield Action.move(p)
        e = obs.entry_port
        leader = highest_free_label(obs.cards, exclude=my_label)
        if leader is not None and leader > my_label:
            return obs, leader
    return obs, None


@contextlib.contextmanager
def per_round():
    """Run UXS explorations one yielded move per round."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uxs_gathering, "uxs_explore", per_round_uxs_explore)
        yield


def outcome(engine, graph, fleet, **kw):
    """The run's digest, or the type and message of what it raised."""
    try:
        return ("ran", digest(run_engine(engine, graph, fleet, **kw)))
    except Exception as exc:  # noqa: BLE001 -- the failure is the outcome
        return ("raised", type(exc).__name__, str(exc))


def fleet(factory, starts, labels, wrap=None):
    return [
        RobotSpec(label=lab, start=s, factory=factory if wrap is None else wrap(i, factory))
        for i, (lab, s) in enumerate(zip(labels, starts))
    ]


def run_pair(engine, graph, make_fleet, **kw):
    """(walk outcome, per-round outcome) of one case on one engine."""
    walk = outcome(engine, graph, make_fleet(), **kw)
    with per_round():
        ref = outcome(engine, graph, make_fleet(), **kw)
    return walk, ref


# ---------------------------------------------------------------------------
# UXS-Gathering on every integration-matrix graph, every engine
# ---------------------------------------------------------------------------

PLACEMENTS = {"dispersed": dispersed_random, "undispersed": undispersed_placement}
UXS_CASES = [
    (f"{gname}-{pname}", graph, place)
    for gname, graph in FAMILY_INSTANCES
    for pname, place in PLACEMENTS.items()
]

#: Per-round outcomes on the seed scheduler, once per case.
_PER_ROUND = {}


def _uxs_fleet(graph, place, factory_fn=uxs_gathering_program, k=3, seed=21):
    starts = place(graph, k, seed=seed)
    labels = assign_labels(len(starts), graph.n, seed=seed)
    return fleet(factory_fn(), starts, labels)


@pytest.mark.parametrize("case_id,graph,place", UXS_CASES, ids=[c[0] for c in UXS_CASES])
@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_uxs_gathering_walks_match_per_round(engine, case_id, graph, place):
    if case_id not in _PER_ROUND:
        with per_round():
            _PER_ROUND[case_id] = outcome("reference", graph, _uxs_fleet(graph, place))
    want = _PER_ROUND[case_id]
    assert want[0] == "ran" and want[1]["detected"]
    assert outcome(engine, graph, _uxs_fleet(graph, place)) == want


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_gathering_only_baseline_walks_match_per_round(engine):
    """``tz`` explores without detection and stops at the first gathering."""
    for _, graph in FAMILY_INSTANCES[::4]:
        walk, ref = run_pair(
            engine, graph,
            lambda: _uxs_fleet(graph, dispersed_random, tz_rendezvous_program),
            stop_on_gather=True,
        )
        assert walk == ref
        assert walk[0] == "ran" and walk[1]["metrics"]["first_gather_round"] is not None


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_faster_gathering_uxs_fallback_walks_match_per_round(engine):
    """``hop_distance=6`` skips every hop step: straight to step 7."""
    graph = gg.ring(10)
    walk, ref = run_pair(
        engine, graph,
        lambda: _uxs_fleet(
            graph, dispersed_random, lambda: faster_gathering_program(hop_distance=6), k=4
        ),
    )
    assert walk == ref
    assert all(s.get("entered_uxs_fallback") for s in walk[1]["stats"].values())


# ---------------------------------------------------------------------------
# Activation models: a walk takes one step per activation, not per round
# ---------------------------------------------------------------------------

ACTIVATION_MODELS = [
    ("random", {"seed": 0, "rate": 0.5}),
    ("round-robin", {"groups": 2}),
    ("adversarial", {"budget": 1}),
    ("biased", {"seed": 0, "budget": 2, "bias": 4.0}),
]


@pytest.mark.parametrize(
    "model,options", ACTIVATION_MODELS, ids=[m for m, _ in ACTIVATION_MODELS]
)
@pytest.mark.parametrize("engine", ACTIVATION_ENGINES, ids=lambda e: e.replace("-", "_"))
def test_activation_models_walks_match_per_round(engine, model, options):
    graph = gg.ring(10)
    walk = outcome(engine, graph, _uxs_fleet(graph, dispersed_random, k=4, seed=0),
                   activation=build_activation(model, dict(options)))
    with per_round():
        ref = outcome(engine, graph, _uxs_fleet(graph, dispersed_random, k=4, seed=0),
                      activation=build_activation(model, dict(options)))
    assert walk == ref
    assert walk[0] == "ran"


# ---------------------------------------------------------------------------
# Faults: crashes fire mid-walk, delays forward walks
# ---------------------------------------------------------------------------

#: Robot 1 (label 37 below) explores from round 1, so its crashes fall
#: in the middle of a walk.
FAULT_PLANS = [
    {"crash": {1: 40}, "delay": {}},
    {"crash": {}, "delay": {1: 7}},
    {"crash": {1: 30}, "delay": {0: 3, 2: 11}},
]


@pytest.mark.parametrize("plan", FAULT_PLANS, ids=["crash", "delay", "crash_delay"])
@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_fault_plans_walks_match_per_round(engine, plan):
    graph = gg.ring(9, numbering="random", seed=1)
    faults = FaultPlan.from_dict(plan)
    starts = dispersed_random(graph, 3, seed=21)
    labels = assign_labels(3, graph.n, seed=21)
    assert labels[1] == 37

    def make_fleet():
        return fleet(uxs_gathering_program(), starts, labels, wrap=faults.wrap)

    walk, ref = run_pair(engine, graph, make_fleet)
    assert walk == ref
    assert walk[0] == "ran"
    for index, round_ in plan["crash"].items():
        assert walk[1]["stats"][labels[index]]["crashed_at"] == round_


def _crash_mid_walk_fleet():
    """ring(12), labels 7/2/4 at nodes 0/4/8; label 7 crashes at round 200,
    in the middle of its first exploration."""
    factory = uxs_gathering_program()
    return [
        RobotSpec(label=7, start=0, factory=crash_at(factory, 200)),
        RobotSpec(label=2, start=4, factory=factory),
        RobotSpec(label=4, start=8, factory=factory),
    ]


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_crash_fires_mid_walk(engine):
    graph = gg.ring(12)
    walk, ref = run_pair(engine, graph, _crash_mid_walk_fleet)
    assert walk == ref
    got = walk[1]
    assert got["metrics"]["rounds"] == 201
    assert got["metrics"]["total_moves"] == 549
    assert got["stats"][7]["crashed_at"] == 200


# ---------------------------------------------------------------------------
# Traces on the seed scheduler: the same events, round by round
# ---------------------------------------------------------------------------


def _events(make_fleet, graph):
    trace = TraceRecorder()
    result = outcome("reference", graph, make_fleet(), trace=trace)
    return result, [(e.round, e.kind, e.robot, e.data) for e in trace]


@pytest.mark.parametrize(
    "case",
    ["dispersed", "undispersed", "crash_mid_walk"],
)
def test_traced_reference_events_match_per_round(case):
    if case == "crash_mid_walk":
        graph, make_fleet = gg.ring(12), _crash_mid_walk_fleet
    else:
        graph = FAMILY_INSTANCES[0][1]
        place = PLACEMENTS[case]

        def make_fleet():
            return _uxs_fleet(graph, place)

    walk = _events(make_fleet, graph)
    with per_round():
        ref = _events(make_fleet, graph)
    assert walk == ref
    assert any(kind == "move" for _, kind, _, _ in walk[1])


# ---------------------------------------------------------------------------
# The hand-back points themselves, on every engine
# ---------------------------------------------------------------------------


def _logging_walker(offsets):
    """Walks ``offsets``, logging every hand-back's round, steps and cards."""

    def factory(ctx):
        def program():
            obs = yield
            log = ctx.stats.setdefault("handbacks", [])
            walk = Action.walk(offsets)
            while walk.steps < len(offsets):
                obs = yield walk
                log.append((obs.round, walk.steps, tuple(c["id"] for c in obs.cards)))
            yield Action.terminate()

        return program()

    return factory


def _terminates_now(ctx):
    obs = yield  # noqa: F841 -- prime the generator
    yield Action.terminate()


def _meet_sleeper(ctx):
    obs = yield
    obs = yield Action.sleep(None, wake_on_meet=True)
    ctx.stats["woke_at"] = obs.round
    yield Action.terminate()


def _timed_sleeper(ctx):
    obs = yield
    obs = yield Action.sleep(obs.round + 20)
    ctx.stats["woke_at"] = obs.round
    yield Action.terminate()


def _passing_fleet():
    """Two walkers pass a terminated robot, wake a meet-sleeper and pass a
    timed sleeper."""
    return [
        RobotSpec(label=2, start=3, factory=_terminates_now),
        RobotSpec(label=3, start=7, factory=_meet_sleeper),
        RobotSpec(label=4, start=9, factory=_timed_sleeper),
        RobotSpec(label=5, start=0, factory=_logging_walker((1,) * 37)),
        RobotSpec(label=6, start=5, factory=_logging_walker((0, 1) * 9)),
    ]


def _bouncing_fleet():
    """A walker bouncing on one edge (offset 0 leaves through the entry
    port) while a sleeper elsewhere wakes on its timer mid-walk."""
    return [
        RobotSpec(label=4, start=5, factory=_timed_sleeper),
        RobotSpec(label=5, start=0, factory=_logging_walker((0,) * 40)),
    ]


@pytest.mark.parametrize("make_fleet", [_passing_fleet, _bouncing_fleet], ids=["passing", "bouncing"])
@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_hand_back_points_match_the_oracle(engine, make_fleet):
    """Each hand-back (round, steps, co-located labels) is logged in the
    walker's stats, and each sleeper's wake round in its own: both must
    be the oracle's."""
    graph = gg.ring(10)
    want = outcome("reference", graph, make_fleet())
    assert want[0] == "ran"
    assert want[1]["stats"][4]["woke_at"] == 20
    assert want[1]["stats"][5]["handbacks"]
    assert outcome(engine, graph, make_fleet()) == want


# ---------------------------------------------------------------------------
# Walk stretches read trajectory rows (repro.graphs.csr.walk_table)
# ---------------------------------------------------------------------------


def _late_walker(offsets, wait):
    """Sleeps until round ``wait``, then walks ``offsets`` like
    :func:`_logging_walker`."""
    walker = _logging_walker(offsets)

    def factory(ctx):
        def program():
            obs = yield
            obs = yield Action.sleep(wait)
            inner = walker(ctx)
            next(inner)
            action = inner.send(obs)
            while True:
                obs = yield action
                action = inner.send(obs)

        return program()

    return factory


def _detour_walker(offsets):
    """Walks ``offsets``; at each hand-back that finds company it first
    steps out through port 0, then resumes the walk from there."""

    def factory(ctx):
        def program():
            obs = yield
            log = ctx.stats.setdefault("handbacks", [])
            walk = Action.walk(offsets)
            while walk.steps < len(offsets):
                obs = yield walk
                log.append((obs.round, walk.steps, tuple(c["id"] for c in obs.cards)))
                if len(obs.cards) > 1:
                    obs = yield Action.move(0)
            yield Action.terminate()

        return program()

    return factory


def _large_ring_fleet():
    """Two walkers go round ring(300) (node ids past 255: two-byte rows)
    towards each other, past a meet-sleeper; a timed sleeper wakes at
    round 20, in the middle of the first stretch."""
    return [
        RobotSpec(label=3, start=200, factory=_meet_sleeper),
        RobotSpec(label=4, start=100, factory=_timed_sleeper),
        RobotSpec(label=5, start=0, factory=_logging_walker((1,) * 700)),
        RobotSpec(label=6, start=150, factory=_logging_walker((0,) + (1,) * 699)),
    ]


def _two_plans_fleet():
    """ring(16): label 3 walks one offsets tuple from node 0 and stops on
    node 8; label 4 waits on node 0 and then walks another tuple from
    there, one whose first six steps are the first tuple's."""
    return [
        RobotSpec(label=3, start=0, factory=_logging_walker((1,) * 40)),
        RobotSpec(label=4, start=0, factory=_late_walker((1,) * 6 + (0,) + (1,) * 33, 60)),
    ]


def _detour_fleet():
    return [
        RobotSpec(label=2, start=3, factory=_terminates_now),
        RobotSpec(label=5, start=0, factory=_detour_walker((1,) * 30)),
    ]


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_two_walkers_and_sleepers_on_a_ring_of_300(engine):
    graph = gg.ring(300)
    want = outcome("reference", graph, _large_ring_fleet())
    assert want[0] == "ran" and want[1]["stats"][3]["woke_at"] < 700
    assert len(want[1]["stats"][5]["handbacks"]) > 2
    assert outcome(engine, graph, _large_ring_fleet()) == want
    if engine == "soa":
        tables = csr_mod._walk_tables
        assert tables[0] is graph.csr
        rows = [rows for _, starts in tables[1].values() for rows in starts.values()]
        assert rows and all(r.typecode == "H" for pair in rows for r in pair)


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_two_offsets_tuples_on_one_graph(engine):
    """Both walks start on node 0; rows keyed by the start alone would
    hand label 4 the rows of label 3's walk (the memo starts empty)."""
    graph_cache.clear()
    graph = gg.ring(16)
    want = outcome("reference", graph, _two_plans_fleet())
    assert want[0] == "ran"
    assert outcome(engine, graph, _two_plans_fleet()) == want


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_back_to_back_runs_on_two_graphs(engine):
    """ring(16), then ring(12), then the same ring(16) again: each run
    replaces the previous graph's rows.  The walks from node 0 agree on
    both rings for their first eleven steps (the memo starts empty)."""
    graph_cache.clear()
    first, second = gg.ring(16), gg.ring(12)
    for graph in (first, second, first):
        want = outcome("reference", graph, _two_plans_fleet())
        assert want[0] == "ran"
        assert outcome(engine, graph, _two_plans_fleet()) == want


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_walk_resumed_off_its_row(engine):
    """A program that moves between a hand-back and the resume takes the
    walk on from where it stands, not from the walk's row."""
    graph = gg.ring(10)
    want = outcome("reference", graph, _detour_fleet())
    assert want[0] == "ran" and len(want[1]["stats"][5]["handbacks"]) > 1
    assert outcome(engine, graph, _detour_fleet()) == want

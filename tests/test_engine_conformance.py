"""Engine conformance harness: every registered backend vs. the oracle.

The engine registry (:mod:`repro.sim.engines`) promises that all conforming
backends are interchangeable: same results, same errors, same cache
entries.  This suite is that promise, executable — it discovers the
registered backends at collection time and runs each one against the
``reference`` engine (the seed scheduler, the executable spec) over

* the integration-matrix graph instances × the real algorithms
  (results, positions, metrics, per-robot stats — bit-identical),
* the stepwise protocol (``step``/``sync_state``/``positions`` lockstep),
* instrumentation (traces, replays) and activation models — identical
  output when a capability is claimed, a typed
  :class:`~repro.sim.engine.UnsupportedFeature` when it is not,
* failure modes (timeout, deadlock, protocol violation): identical
  exception types *and* messages,
* the runtime (``execute(engine=...)``): identical records and identical
  cache keys, so engine choice can never fork the cache.

A new backend passes by registering and claiming honest capabilities —
no test edits needed.  Run one backend in isolation with::

    PYTHONPATH=src python -m pytest tests/test_engine_conformance.py -q -k batch_list

(ids use underscores, so ``-k`` never splits on a hyphen).
"""

import pytest

from repro.analysis.placement import (
    assign_labels,
    dispersed_random,
    undispersed_placement,
)
from repro.analysis.sweeps import scenario_sweep
from repro.core.faster_gathering import faster_gathering_program
from repro.core.undispersed import undispersed_gathering_program
from repro.core.uxs_gathering import uxs_gathering_program
from repro.graphs import generators as gg
from repro.runtime import (
    ResultCache,
    RunSpec,
    SerialExecutor,
    execute,
    materialize,
    replicate_spec,
)
from repro.sim.actions import Action
from repro.sim.activation import build_activation
from repro.sim.engine import (
    Engine,
    EngineCapabilities,
    EngineRequest,
    UnsupportedFeature,
)
from repro.sim.engines import (
    DEFAULT_ENGINE,
    get_engine,
    list_engines,
    register_engine,
    unregister_engine,
)
from repro.sim.replay import ReplayRecorder
from repro.sim.robot import RobotSpec
from repro.sim.trace import TraceRecorder
from repro.sim.world import DEFAULT_MAX_ROUNDS, World, package_result
from tests.test_fastpath_differential import ReferenceWithActivation
from tests.test_integration_matrix import FAMILY_INSTANCES

ORACLE = "reference"

#: Snapshot of the registry at collection time.  Ids replace hyphens with
#: underscores so ``-k batch_list`` selects exactly one backend (pytest's
#: ``-k`` expression language would split ``batch-list`` at the hyphen).
ENGINES = list_engines()
ENGINE_IDS = [name.replace("-", "_") for name in ENGINES]

# The conformance matrix: every integration-matrix graph instance, with the
# three real algorithms rotated across them (every algorithm still meets
# every graph *family shape* it needs; running all 3 × 16 per backend would
# triple the cost for no new machinery coverage).
_ALGORITHMS = [
    ("undispersed", undispersed_gathering_program, undispersed_placement, 4),
    ("uxs", uxs_gathering_program, dispersed_random, 3),
    ("faster", faster_gathering_program, dispersed_random, 3),
]

MATRIX = []
for _i, (_gname, _graph) in enumerate(FAMILY_INSTANCES):
    _aname, _factory_fn, _place, _k = _ALGORITHMS[_i % len(_ALGORITHMS)]
    MATRIX.append((f"{_gname}-{_aname}", _graph, _factory_fn, _place, _k))
MATRIX_IDS = [case[0] for case in MATRIX]


def make_fleet(graph, factory_fn, place, k, seed=21):
    """A fresh fleet for one run (programs are stateful generators)."""
    starts = place(graph, k, seed=seed)
    labels = assign_labels(len(starts), graph.n, seed=seed)
    factory = factory_fn()
    return [
        RobotSpec(label=lab, start=s, factory=factory)
        for lab, s in zip(labels, starts)
    ]


def run_engine(
    name,
    graph,
    fleet,
    *,
    trace=None,
    replay=None,
    activation=None,
    max_rounds=DEFAULT_MAX_ROUNDS,
    stop_on_gather=False,
    strict=False,
):
    request = EngineRequest(
        graph=graph,
        robots=fleet,
        strict=strict,
        trace=trace,
        replay=replay,
        activation=activation,
    )
    return get_engine(name)(request).run(
        max_rounds=max_rounds, stop_on_gather=stop_on_gather
    )


def digest(result):
    """Everything a RunResult exposes, as one comparable structure."""
    m = result.metrics
    return {
        "gathered": result.gathered,
        "detected": result.detected,
        "final_node": result.final_node,
        "positions": dict(result.positions),
        "stats": result.stats,
        "metrics": {
            **m.as_dict(),
            "moves_by_robot": m.moves_by_robot,
            "active_rounds_by_robot": m.active_rounds_by_robot,
            "max_card_bits": m.max_card_bits,
        },
    }


#: Oracle digests, memoized per matrix case — the reference runs once per
#: case, not once per (case, backend) pair.
_ORACLE_DIGESTS = {}


def oracle_digest(case_id, graph, factory_fn, place, k):
    if case_id not in _ORACLE_DIGESTS:
        fleet = make_fleet(graph, factory_fn, place, k)
        _ORACLE_DIGESTS[case_id] = digest(run_engine(ORACLE, graph, fleet))
    return _ORACLE_DIGESTS[case_id]


# ---------------------------------------------------------------------------
# Results: bit-identical across the matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case_id,graph,factory_fn,place,k", MATRIX, ids=MATRIX_IDS)
@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_matrix_results_bit_identical(engine, case_id, graph, factory_fn, place, k):
    fleet = make_fleet(graph, factory_fn, place, k)
    got = digest(run_engine(engine, graph, fleet))
    assert got == oracle_digest(case_id, graph, factory_fn, place, k), case_id


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_stop_on_gather_bit_identical(engine):
    case_id, graph, factory_fn, place, k = MATRIX[2]
    got = digest(
        run_engine(engine, graph, make_fleet(graph, factory_fn, place, k),
                   stop_on_gather=True)
    )
    ref = digest(
        run_engine(ORACLE, graph, make_fleet(graph, factory_fn, place, k),
                   stop_on_gather=True)
    )
    assert got == ref, case_id


# ---------------------------------------------------------------------------
# The stepwise protocol
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_stepwise_protocol_matches_run(engine):
    """Driving step/sync_state/positions by hand reaches the oracle result.

    Every backend steps one round (or one fast-forward jump) at a time and
    is held in lockstep with a reference engine — positions and round
    counters must agree after every step.
    """
    case_id, graph, factory_fn, place, k = MATRIX[0]
    cls = get_engine(engine)
    eng = cls(EngineRequest(graph=graph, robots=make_fleet(graph, factory_fn, place, k)))
    ref = get_engine(ORACLE)(
        EngineRequest(graph=graph, robots=make_fleet(graph, factory_fn, place, k))
    )

    guard = 0
    while not eng.done:
        before = eng.rounds
        eng.step()
        eng.sync_state()
        assert eng.rounds > before, "step must advance by at least one round"
        ref.step()
        ref.sync_state()
        assert eng.rounds == ref.rounds
        assert eng.positions() == ref.positions()
        guard += 1
        assert guard < 1_000_000, "stepwise run did not terminate"

    got = digest(eng.finalize())
    assert got == oracle_digest(case_id, graph, factory_fn, place, k)


# ---------------------------------------------------------------------------
# Instrumentation: identical when claimed, typed refusal when not
# ---------------------------------------------------------------------------

_TRACE_CASES = [MATRIX[0], MATRIX[4], MATRIX[8]]


@pytest.mark.parametrize(
    "case_id,graph,factory_fn,place,k", _TRACE_CASES, ids=[c[0] for c in _TRACE_CASES]
)
@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_trace_conformance(engine, case_id, graph, factory_fn, place, k):
    caps = get_engine(engine).capabilities
    if not caps.supports_tracing:
        with pytest.raises(UnsupportedFeature) as ei:
            run_engine(engine, graph, make_fleet(graph, factory_fn, place, k),
                       trace=TraceRecorder())
        assert ei.value.engine == engine
        return
    tr = TraceRecorder()
    got = digest(
        run_engine(engine, graph, make_fleet(graph, factory_fn, place, k), trace=tr)
    )
    ref_tr = TraceRecorder()
    ref = digest(
        run_engine(ORACLE, graph, make_fleet(graph, factory_fn, place, k), trace=ref_tr)
    )
    assert tr.events == ref_tr.events, "trace divergence"
    assert got == ref


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_replay_conformance(engine):
    case_id, graph, factory_fn, place, k = MATRIX[1]
    caps = get_engine(engine).capabilities
    if not caps.supports_replay:
        with pytest.raises(UnsupportedFeature) as ei:
            run_engine(engine, graph, make_fleet(graph, factory_fn, place, k),
                       replay=ReplayRecorder())
        assert ei.value.engine == engine
        return
    rec = ReplayRecorder()
    got = digest(
        run_engine(engine, graph, make_fleet(graph, factory_fn, place, k), replay=rec)
    )
    ref_rec = ReplayRecorder()
    ref = digest(
        run_engine(ORACLE, graph, make_fleet(graph, factory_fn, place, k),
                   replay=ref_rec)
    )
    assert rec.frames == ref_rec.frames, "replay divergence"
    assert got == ref


#: Activation runs use the schedule-free random-walk baseline: the paper's
#: oblivious schedules deliberately abort under any non-synchronous
#: activation (see the ``adversarial-activation`` scenario), so a walker
#: fleet is the instance that actually exercises the models end to end.
_ACTIVATION_SPEC = RunSpec(
    algorithm="random_walk",
    family="ring",
    graph={"n": 8},
    placement="dispersed",
    k=3,
    placement_args={"seed": 3},
    labels_args={"seed": 3},
    algorithm_args={"seed": 3},
    uses_uxs=False,
)


def _activation_fleet():
    graph, starts, labels, factory_for = materialize(_ACTIVATION_SPEC)
    factory = factory_for()
    return graph, [
        RobotSpec(label=lab, start=s, factory=factory)
        for lab, s in zip(labels, starts)
    ]


@pytest.mark.parametrize(
    "model_name,model_args",
    [("round-robin", {"groups": 2}), ("adversarial", {"budget": 1})],
)
@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_activation_conformance(engine, model_name, model_args):
    """Activation oracle: the seed scheduler plus the documented wake filter.

    The seed predates activation models, so the oracle here is the
    test-only :class:`ReferenceWithActivation` shim — the same one the
    differential suite uses.  Models are stateful: every run gets a fresh
    one.
    """
    caps = get_engine(engine).capabilities
    if not caps.supports_activation:
        graph, fleet = _activation_fleet()
        with pytest.raises(UnsupportedFeature) as ei:
            run_engine(engine, graph, fleet,
                       activation=build_activation(model_name, dict(model_args)))
        assert ei.value.engine == engine
        return
    graph, fleet = _activation_fleet()
    got = digest(
        run_engine(engine, graph, fleet, stop_on_gather=True, max_rounds=500_000,
                   activation=build_activation(model_name, dict(model_args)))
    )
    graph, fleet = _activation_fleet()
    sched = ReferenceWithActivation(
        graph, fleet, activation=build_activation(model_name, dict(model_args))
    )
    sched.run(max_rounds=500_000, stop_on_gather=True)
    assert got == digest(package_result(sched))


# ---------------------------------------------------------------------------
# Failure modes: identical exception types and messages
# ---------------------------------------------------------------------------


def _sleep_forever(ctx):
    obs = yield  # noqa: F841 — prime the generator
    obs = yield Action.sleep(None, wake_on_meet=True)
    yield Action.terminate()


def _bad_port(ctx):
    obs = yield
    obs = yield Action.move(obs.degree + 3)
    yield Action.terminate()


def _sleep_past_budget(ctx):
    obs = yield  # noqa: F841 — prime the generator
    obs = yield Action.sleep(60)
    yield Action.terminate()


def _walk_done(ctx):
    obs = yield
    walk = Action.walk((1, 0, 1))
    while walk.steps < 3:
        obs = yield walk
    obs = yield walk  # finished: a protocol violation
    yield Action.terminate()


def _walk_past_budget(ctx):
    obs = yield
    walk = Action.walk((1,) * 200)
    while walk.steps < 200:
        obs = yield walk
    yield Action.terminate()


def _error_case(kind):
    """(graph, fresh fleet, run kwargs) provoking one failure mode."""
    if kind == "timeout":
        _, graph, factory_fn, place, k = MATRIX[2]
        return graph, make_fleet(graph, factory_fn, place, k), {"max_rounds": 50}
    if kind == "timeout_jump":
        # the fast-forward jump lands past the budget: the timeout must
        # fire before the sleeper is woken
        fleet = [RobotSpec(label=1, start=0, factory=_sleep_past_budget)]
        return gg.path(3), fleet, {"max_rounds": 50}
    if kind == "deadlock":
        return gg.path(3), [RobotSpec(label=1, start=0, factory=_sleep_forever)], {}
    if kind == "bad_port":
        return gg.path(3), [RobotSpec(label=1, start=0, factory=_bad_port)], {}
    if kind == "walk_done":
        return gg.ring(5), [RobotSpec(label=1, start=0, factory=_walk_done)], {}
    if kind == "walk_timeout":
        fleet = [RobotSpec(label=1, start=0, factory=_walk_past_budget)]
        return gg.ring(5), fleet, {"max_rounds": 50}
    raise AssertionError(kind)


def _failure_signature(engine, kind):
    graph, fleet, kwargs = _error_case(kind)
    try:
        run_engine(engine, graph, fleet, **kwargs)
    except Exception as exc:  # noqa: BLE001 — the signature IS the test
        return type(exc).__name__, str(exc)
    pytest.fail(f"{engine}: expected {kind} failure, run completed")


_ORACLE_FAILURES = {}


@pytest.mark.parametrize(
    "kind",
    ["timeout", "timeout_jump", "deadlock", "bad_port", "walk_done", "walk_timeout"],
)
@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_failure_conformance(engine, kind):
    if kind not in _ORACLE_FAILURES:
        _ORACLE_FAILURES[kind] = _failure_signature(ORACLE, kind)
    assert _failure_signature(engine, kind) == _ORACLE_FAILURES[kind]


def test_walk_failure_oracle_messages():
    """The oracle side of the walk kinds: the expander names the robot,
    and a walk stops at the budget like any per-round program."""
    assert _failure_signature(ORACLE, "walk_done") == (
        "ProtocolViolation", "robot 1: walk already complete"
    )
    assert _failure_signature(ORACLE, "walk_timeout") == (
        "SimulationTimeout", "simulation exceeded 51 rounds: 1:active"
    )


def test_timeout_jump_oracle_reports_the_sleeper():
    """The oracle side of ``timeout_jump``: the jump to round 60 happens,
    and the budget check fires before the robot wakes."""
    assert _failure_signature(ORACLE, "timeout_jump") == (
        "SimulationTimeout", "simulation exceeded 60 rounds: 1:sleeping"
    )


# ---------------------------------------------------------------------------
# Runtime dispatch: identical records, identical cache keys
# ---------------------------------------------------------------------------


def _runtime_specs():
    spec = RunSpec("faster", "ring", {"n": 8}, k=3, seed=5)
    return replicate_spec(spec, 3, root_seed=9)


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_runtime_records_and_cache_keys_identical(engine, tmp_path):
    """``execute(engine=...)`` forks neither records nor the cache.

    The engine is an execution parameter: a cache populated under any
    backend must be a 100% hit under any other, because the key hashes the
    spec alone.
    """
    specs = _runtime_specs()
    cache = ResultCache(tmp_path / "cache")
    result = execute(specs, executor=SerialExecutor(), cache=cache, engine=engine)
    records = [o.run_or_raise() for o in result.outcomes]

    oracle = execute(specs, executor=SerialExecutor(), engine=ORACLE)
    assert records == [o.run_or_raise() for o in oracle.outcomes]

    if get_engine(engine).capabilities.supports_batch:
        assert result.stats.batched == len(specs)
    else:
        assert result.stats.batched == 0

    rerun = execute(specs, executor=SerialExecutor(), cache=cache, engine=ORACLE)
    assert rerun.stats.cache_hits == len(specs)
    assert rerun.stats.executed == 0
    assert [o.run_or_raise() for o in rerun.outcomes] == records


def test_engine_name_is_the_only_replica_batching_spelling():
    """The pre-registry spellings are gone: ``batch=`` is no keyword of
    ``execute`` or ``scenario_sweep``, and ``repro.sim`` no longer serves
    the replica classes (they live in :mod:`repro.sim.batch`)."""
    with pytest.raises(TypeError, match="batch"):
        execute(_runtime_specs(), executor=SerialExecutor(), batch=True)
    with pytest.raises(TypeError, match="batch"):
        scenario_sweep("clean-sync", batch=True)
    with pytest.raises(ImportError):
        from repro.sim import ReplicaBatch  # noqa: F401


def test_world_run_default_is_the_default_engine():
    case_id, graph, factory_fn, place, k = MATRIX[0]
    implicit = World(graph, make_fleet(graph, factory_fn, place, k)).run()
    explicit = World(graph, make_fleet(graph, factory_fn, place, k)).run(
        engine=DEFAULT_ENGINE
    )
    assert digest(implicit) == digest(explicit)
    assert digest(implicit) == oracle_digest(case_id, graph, factory_fn, place, k)


# ---------------------------------------------------------------------------
# The registry itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_registered_name_and_capabilities_are_honest_declarations(engine):
    cls = get_engine(engine)
    assert cls.name == engine
    assert isinstance(cls.capabilities, EngineCapabilities)
    if cls.capabilities.supports_batch:
        assert cls.batch_backend in ("list", "numpy", "numpy2d")


def test_expected_backends_present():
    assert {"reference", "incremental", "soa", "batch-list"} <= set(ENGINES)
    assert "batch-numpy" in ENGINES
    assert "batch-numpy2d" in ENGINES
    assert DEFAULT_ENGINE in ENGINES


def test_unknown_engine_raises_with_full_listing():
    with pytest.raises(ValueError) as ei:
        get_engine("warp-drive")
    message = str(ei.value)
    assert "warp-drive" in message
    for known in list_engines():
        assert known in message


def test_double_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_engine(get_engine(DEFAULT_ENGINE))


def test_register_replace_unregister_roundtrip():
    class DummyEngine(Engine):
        name = "conformance-dummy"
        capabilities = EngineCapabilities()

    try:
        register_engine(DummyEngine)
        assert "conformance-dummy" in list_engines()
        with pytest.raises(ValueError, match="already registered"):
            register_engine(DummyEngine)
        assert register_engine(DummyEngine, replace=True) is DummyEngine
    finally:
        unregister_engine("conformance-dummy")
    assert "conformance-dummy" not in list_engines()


def test_registration_validates_name_and_capabilities():
    class NoName(Engine):
        capabilities = EngineCapabilities()

    class NoCaps(Engine):
        name = "conformance-no-caps"
        capabilities = None

    with pytest.raises(ValueError, match="name"):
        register_engine(NoName)
    with pytest.raises(ValueError, match="EngineCapabilities"):
        register_engine(NoCaps)


def test_listing_is_sorted_and_stable():
    names = list_engines()
    assert names == sorted(names)
    assert list_engines() == names

"""The replica-major 2D engine vs. the scalar truth, bit for bit.

Pins both halves of ``batch-numpy2d``'s contract
(:mod:`repro.sim.batch2d`):

* **hot**: replicas whose fleets share a
  :class:`~repro.sim.vector.VectorProgram` retire through array kernels —
  every result field must equal a ``batch-list`` run of the *scalar twin*
  program, including first-gather rounds, active-round counts, and
  termination metadata;
* **cold**: anything the kernel cannot prove — irregular graphs,
  timeout-bound overruns, ``stop_on_gather``, mixed-factory fleets, bad
  params — must fall back to the scalar drive with results (and errors)
  identical to ``batch-list``, while ``vector_stats`` accounts for every
  declined replica.

A hypothesis property sweeps batches that mix hot rotor fleets with
arbitrary scripted (sleep/meet/card) fleets — the hot/cold boundary the
issue calls out.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gg
from repro.runtime import (
    SerialExecutor,
    execute,
    register_algorithm,
    replicate_spec,
    unregister_algorithm,
)
from repro.runtime.spec import RunSpec
from repro.sim.batch import ReplicaBatch, make_replica_batch
from repro.sim.batch2d import Replica2DBatch
from repro.sim.engines import get_engine, list_engines
from repro.sim.robot import RobotSpec
from repro.sim.vector import (
    RotorWalkKernel,
    VectorProgram,
    plan_for,
    rotor_walk_factory,
    rotor_walk_program,
)
from tests.conftest import scaled_examples, scripted_factory, scripts

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def snap(result):
    """Every observable field of a RunResult, as one comparable value."""
    m = result.metrics
    return {
        "gathered": result.gathered,
        "detected": result.detected,
        "final_node": result.final_node,
        "positions": dict(result.positions),
        "stats": result.stats,
        "rounds": m.rounds,
        "rounds_executed": m.rounds_executed,
        "total_moves": m.total_moves,
        "max_moves": m.max_moves,
        "moves_by_robot": dict(m.moves_by_robot),
        "active_rounds_by_robot": dict(m.active_rounds_by_robot),
        "first_gather_round": m.first_gather_round,
        "last_termination_round": m.last_termination_round,
        "gathered_at_end": m.gathered_at_end,
        "terminations_all_gathered": m.terminations_all_gathered,
        "max_card_bits": m.max_card_bits,
    }


def outcome_snap(outcome):
    """Comparable projection of a ReplicaOutcome (result or error)."""
    if outcome.ok:
        return snap(outcome.result)
    return {"error": outcome.error, "error_type": outcome.error_type}


def rotor_fleet(graph, k, seed, rounds=60, delay=0, hot=True):
    """One k-robot fleet; ``hot`` shares a VectorProgram, else scalar twins."""
    if hot:
        prog = rotor_walk_program(rounds, seed, delay)
        factories = [prog] * k
    else:
        factory = rotor_walk_factory(rounds, seed, delay)
        factories = [factory] * k
    starts = [(seed * 7 + i * 13) % graph.n for i in range(k)]
    labels = [1 + seed % 50 + i * 61 for i in range(k)]
    return [
        RobotSpec(label=lab, start=s, factory=f)
        for lab, s, f in zip(labels, starts, factories)
    ]


def assert_batches_identical(graph, hot_fleets, ref_fleets, max_rounds=10_000,
                             stop_on_gather=False):
    """numpy2d vs batch-list over paired fleets: outcomes + summary equal."""
    engine = make_replica_batch(graph, hot_fleets, backend="numpy2d")
    assert isinstance(engine, Replica2DBatch)
    ref = make_replica_batch(graph, ref_fleets, backend="list")
    got = engine.run(max_rounds=max_rounds, stop_on_gather=stop_on_gather)
    want = ref.run(max_rounds=max_rounds, stop_on_gather=stop_on_gather)
    for j, (a, b) in enumerate(zip(got, want)):
        assert outcome_snap(a) == outcome_snap(b), f"replica {j} diverged"
    assert replace(engine.summary, backend="x") == replace(ref.summary, backend="x")
    return engine


# ---------------------------------------------------------------------------
# Dispatch and registration
# ---------------------------------------------------------------------------


def test_make_replica_batch_dispatch():
    graph = gg.ring(8)
    fleets = [rotor_fleet(graph, 2, 1)]
    assert isinstance(make_replica_batch(graph, fleets, backend="numpy2d"),
                      Replica2DBatch)
    plain = make_replica_batch(graph, fleets, backend="list")
    assert type(plain) is ReplicaBatch
    with pytest.raises(ValueError, match="unknown batch backend"):
        make_replica_batch(graph, fleets, backend="cuda")


def test_engine_registered_with_numpy2d_backend():
    assert "batch-numpy2d" in list_engines()
    cls = get_engine("batch-numpy2d")
    assert cls.capabilities.supports_batch
    assert cls.batch_backend == "numpy2d"


def test_plan_is_memoized_per_graph():
    graph = gg.ring(12)
    p1 = plan_for(graph, RotorWalkKernel, (30,))
    p2 = plan_for(graph, RotorWalkKernel, (30,))
    assert p1 is p2 and p1 is not None
    assert plan_for(graph, RotorWalkKernel, (31,)) is not p1


# ---------------------------------------------------------------------------
# Hot path: bit-identity across graphs, fleet sizes, and wake offsets
# ---------------------------------------------------------------------------

REGULAR_GRAPHS = [
    ("ring-32", lambda: gg.ring(32)),
    ("torus-4x6", lambda: gg.torus(4, 6)),
    ("hypercube-3", lambda: gg.hypercube(3)),
    ("random-regular-20-3", lambda: gg.random_regular(20, 3, seed=1)),
]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("gname,build", REGULAR_GRAPHS, ids=[g[0] for g in REGULAR_GRAPHS])
def test_hot_replicas_bit_identical_to_scalar(gname, build, k):
    graph = build()
    replicas = 8
    # mixed per-replica wake offsets: delay=0 replicas never sleep, the
    # rest exercise the kernel's wake-frontier arithmetic
    delays = [r % 4 for r in range(replicas)]
    hot = [rotor_fleet(graph, k, r, rounds=50, delay=delays[r]) for r in range(replicas)]
    ref = [rotor_fleet(graph, k, r, rounds=50, delay=delays[r], hot=False)
           for r in range(replicas)]
    engine = assert_batches_identical(graph, hot, ref)
    assert engine.vector_stats == {"vectorized": replicas, "fallbacks": 0}


@pytest.mark.parametrize("rounds", [1, 2, 3, 9])
def test_hot_tiny_walks_bit_identical(rounds):
    # walk lengths at and around the prefix-doubling boundaries
    graph = gg.ring(10)
    hot = [rotor_fleet(graph, 2, r, rounds=rounds) for r in range(4)]
    ref = [rotor_fleet(graph, 2, r, rounds=rounds, hot=False) for r in range(4)]
    assert_batches_identical(graph, hot, ref)


def test_colocated_fleet_under_delay_detects_round_zero_gather():
    # the sleep round commits with both robots still on the shared start:
    # the scalar path records first_gather_round=0 before any move — the
    # kernel must too (and must NOT for delay=0, where round 0 moves first)
    graph = gg.ring(16)
    for delay in (0, 3):
        prog = rotor_walk_program(20, 9, delay)
        hot = [[RobotSpec(label=1, start=5, factory=prog),
                RobotSpec(label=2, start=5, factory=prog)]]
        twin = rotor_walk_factory(20, 9, delay)
        ref = [[RobotSpec(label=1, start=5, factory=twin),
                RobotSpec(label=2, start=5, factory=twin)]]
        engine = assert_batches_identical(graph, hot, ref)
        assert engine.vector_stats["vectorized"] == 1


# ---------------------------------------------------------------------------
# Cold regimes: every fallback is silent, counted, and bit-identical
# ---------------------------------------------------------------------------


def test_mixed_hot_and_cold_fleets_in_one_batch():
    """Hot rotor fleets interleaved with scripted sleep/meet/card fleets and
    a failing construction — outcomes all match batch-list, in order."""
    graph = gg.ring(16)
    cold_scripts = [
        [("move", 1), ("sleep", 2), ("move", 0), ("stay",)],
        [("sleep_meet", 5), ("move", 1), ("card", 3)],
    ]

    def fleets(hot):
        out = []
        for r in range(6):
            if r % 2 == 0:
                out.append(rotor_fleet(graph, 2, r, rounds=30, delay=r % 3, hot=hot))
            else:
                sc = cold_scripts[(r // 2) % len(cold_scripts)]
                out.append([
                    RobotSpec(label=1, start=r, factory=scripted_factory(sc)),
                    RobotSpec(label=2, start=(r + 5) % graph.n,
                              factory=scripted_factory(list(reversed(sc)))),
                ])
        # a construction failure (duplicate labels) must stay isolated
        out.append([
            RobotSpec(label=7, start=0, factory=scripted_factory([("stay",)])),
            RobotSpec(label=7, start=1, factory=scripted_factory([("stay",)])),
        ])
        return out

    engine = assert_batches_identical(graph, fleets(True), fleets(False))
    assert engine.vector_stats == {"vectorized": 3, "fallbacks": 0}


def test_fallback_on_irregular_graph():
    # star/path graphs are not regular: the kernel must decline and the
    # scalar drive must produce exactly the batch-list results
    for graph in (gg.star(7), gg.path(6)):
        hot = [rotor_fleet(graph, 2, r, rounds=12) for r in range(4)]
        ref = [rotor_fleet(graph, 2, r, rounds=12, hot=False) for r in range(4)]
        engine = assert_batches_identical(graph, hot, ref)
        assert engine.vector_stats == {"vectorized": 0, "fallbacks": 4}


def test_fallback_on_stop_on_gather():
    graph = gg.ring(12)
    hot = [rotor_fleet(graph, 2, r, rounds=40) for r in range(4)]
    ref = [rotor_fleet(graph, 2, r, rounds=40, hot=False) for r in range(4)]
    engine = assert_batches_identical(graph, hot, ref, stop_on_gather=True)
    assert engine.vector_stats == {"vectorized": 0, "fallbacks": 4}


def test_fallback_timeout_parity():
    """Walks that overrun max_rounds are declined by accepts() and must
    time out through the scalar path with the identical error string —
    both for long walks and for delays that push past the bound."""
    graph = gg.ring(8)
    cases = [
        {"rounds": 200, "delay": 0},   # walk alone overruns
        {"rounds": 40, "delay": 80},   # the wake offset overruns
    ]
    for case in cases:
        prog = rotor_walk_program(case["rounds"], 3, case["delay"])
        hot = [[RobotSpec(label=1, start=0, factory=prog)]]
        twin = rotor_walk_factory(case["rounds"], 3, case["delay"])
        ref = [[RobotSpec(label=1, start=0, factory=twin)]]
        engine = make_replica_batch(graph, hot, backend="numpy2d")
        a = engine.run(max_rounds=100)[0]
        b = make_replica_batch(graph, ref, backend="list").run(max_rounds=100)[0]
        assert not a.ok and not b.ok
        assert (a.error, a.error_type) == (b.error, b.error_type)
        assert a.error_type == "SimulationTimeout"
        assert engine.vector_stats == {"vectorized": 0, "fallbacks": 1}


def test_fallback_on_unacceptable_params_and_shared():
    graph = gg.ring(8)
    # params the kernel cannot prove (non-int seed) and a shared tuple it
    # rejects (rounds < 1): both run scalar, bit-identical to the twin
    bad = [
        VectorProgram(rotor_walk_factory(10, 2), RotorWalkKernel,
                      shared=(10,), params={"seed": "two"}),
        VectorProgram(rotor_walk_factory(10, 2), RotorWalkKernel,
                      shared=("ten",), params={"seed": 2}),
    ]
    for prog in bad:
        hot = [[RobotSpec(label=1, start=0, factory=prog),
                RobotSpec(label=2, start=3, factory=prog)]]
        twin = rotor_walk_factory(10, 2)
        ref = [[RobotSpec(label=1, start=0, factory=twin),
                RobotSpec(label=2, start=3, factory=twin)]]
        engine = assert_batches_identical(graph, hot, ref)
        assert engine.vector_stats == {"vectorized": 0, "fallbacks": 1}


def test_mixed_factory_fleet_is_not_a_hot_candidate():
    # one robot on the VectorProgram, one on a plain factory: the fleet
    # must run scalar (and is not a "fallback" — it never declared itself)
    graph = gg.ring(8)
    prog = rotor_walk_program(15, 1)
    twin = rotor_walk_factory(15, 1)
    hot = [[RobotSpec(label=1, start=0, factory=prog),
            RobotSpec(label=2, start=4, factory=twin)]]
    ref = [[RobotSpec(label=1, start=0, factory=twin),
            RobotSpec(label=2, start=4, factory=twin)]]
    engine = assert_batches_identical(graph, hot, ref)
    assert engine.vector_stats == {"vectorized": 0, "fallbacks": 0}


# ---------------------------------------------------------------------------
# Runtime dispatch: engine="batch-numpy2d" through execute()
# ---------------------------------------------------------------------------

PROBE = "test-batch2d-rotor"


def _probe_builder(opts):
    return rotor_walk_program(opts.get("rounds", 40), opts.get("seed", 0))


def test_runtime_records_byte_identical_across_engines():
    register_algorithm(PROBE, _probe_builder, uses_uxs=False, detects=True)
    try:
        base = RunSpec(algorithm=PROBE, family="ring", graph={"n": 32},
                       placement="dispersed", k=2,
                       algorithm_args={"rounds": 40}, uses_uxs=False)
        specs = replicate_spec(base, 10)
        results = {}
        for engine in ("batch-numpy2d", "batch-list", None):
            kwargs = {"engine": engine} if engine else {}
            res = execute(specs, executor=SerialExecutor(), **kwargs)
            assert all(o.ok for o in res.outcomes)
            results[engine] = [o.run.to_dict() for o in res.outcomes]
        assert results["batch-numpy2d"] == results["batch-list"]
        assert results["batch-numpy2d"] == results[None]
    finally:
        unregister_algorithm(PROBE)


# ---------------------------------------------------------------------------
# Property: arbitrary mixes of hot and scripted fleets stay bit-identical
# ---------------------------------------------------------------------------

hot_fleet_params = st.fixed_dictionaries({
    "kind": st.just("hot"),
    "rounds": st.integers(min_value=1, max_value=12),
    "seed": st.integers(min_value=0, max_value=30),
    "delay": st.integers(min_value=0, max_value=4),
    "start_a": st.integers(min_value=0, max_value=5),
    "start_b": st.integers(min_value=0, max_value=5),
})

cold_fleet_params = st.fixed_dictionaries({
    "kind": st.just("cold"),
    "script_a": scripts(max_size=6),
    "script_b": scripts(max_size=6),
    "start_a": st.integers(min_value=0, max_value=5),
    "start_b": st.integers(min_value=0, max_value=5),
})


def _property_fleets(batch_params, hot):
    fleets = []
    for p in batch_params:
        if p["kind"] == "hot":
            if hot:
                fac_a = fac_b = rotor_walk_program(p["rounds"], p["seed"], p["delay"])
            else:
                fac_a = fac_b = rotor_walk_factory(p["rounds"], p["seed"], p["delay"])
        else:
            fac_a = scripted_factory(p["script_a"])
            fac_b = scripted_factory(p["script_b"])
        fleets.append([
            RobotSpec(label=1, start=p["start_a"], factory=fac_a),
            RobotSpec(label=2, start=p["start_b"], factory=fac_b),
        ])
    return fleets


@settings(max_examples=scaled_examples(30), deadline=None)
@given(batch_params=st.lists(st.one_of(hot_fleet_params, cold_fleet_params),
                             min_size=1, max_size=6))
def test_property_mixed_regime_batches_bit_identical(batch_params):
    graph = gg.ring(6)
    engine = make_replica_batch(graph, _property_fleets(batch_params, True),
                                backend="numpy2d")
    got = engine.run(max_rounds=500)
    want = make_replica_batch(graph, _property_fleets(batch_params, False),
                              backend="list").run(max_rounds=500)
    for j, (a, b) in enumerate(zip(got, want)):
        assert outcome_snap(a) == outcome_snap(b), f"replica {j} diverged"
    n_hot = sum(1 for p in batch_params if p["kind"] == "hot")
    stats = engine.vector_stats
    assert stats["vectorized"] + stats["fallbacks"] == n_hot

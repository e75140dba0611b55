"""The batched replica engine is bit-identical to scalar execution.

:mod:`repro.sim.batch` runs R seed-replicas in lockstep, one
``Scheduler._step_soa`` call per replica per turn; :mod:`repro.runtime` groups
differ-only-by-seed specs into :class:`BatchRunSpec` units.  This module
pins, for both bookkeeping backends (NumPy and the pure-list fallback):

* engine-level identity — positions, statuses, rounds, and every
  :class:`~repro.sim.metrics.RunMetrics` field against scalar
  ``World.run`` on real algorithms over the integration-matrix instances;
* runtime-level identity — ``execute(engine="batch-...")`` records (including the
  memoized pair-distance column) byte-equal to scalar records, cache keys
  interchangeable in both directions;
* failure parity — timeouts and poisoned replicas produce the scalar
  path's exact error strings, isolated per replica;
* grouping rules — what batches, what stays scalar, and why;
* hypothesis — random scripted robots (sleeps, meets, cards, follows are
  exercised through the engine's cold path) bit-identical per seed.

``REPRO_DIFF_SCALE`` (set by the nightly workflow) multiplies replica
counts for the full-size matrix.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.placement import assign_labels, dispersed_random
from repro.core.faster_gathering import faster_gathering_program
from repro.core.undispersed import undispersed_gathering_program
from repro.graphs import generators as gg
from repro.runtime import (
    BatchRunSpec,
    ParallelExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    batch_key,
    execute,
    execute_batch_spec,
    group_into_batches,
    replicate_spec,
)
from repro.sim.batch import (
    BACKENDS,
    HAVE_NUMPY,
    make_replica_batch,
    resolve_backend,
)
from repro.sim.robot import RobotSpec
from repro.sim.world import World
from tests.conftest import scaled_examples, scripted_factory, scripts
from tests.test_integration_matrix import FAMILY_INSTANCES

#: Nightly knob: multiplies replica counts (full-size differential matrix).
DIFF_SCALE = max(1, int(os.environ.get("REPRO_DIFF_SCALE", "1")))

BACKEND_NAMES = sorted(BACKENDS)

#: The best available replica engine (numpy bookkeeping when importable).
BATCH_ENGINE = "batch-numpy" if HAVE_NUMPY else "batch-list"


def metrics_dict(m):
    return {
        **m.as_dict(),
        "moves_by_robot": m.moves_by_robot,
        "active_rounds_by_robot": m.active_rounds_by_robot,
        "max_card_bits": m.max_card_bits,
    }


# ---------------------------------------------------------------------------
# Engine-level: ReplicaBatch vs World.run on real algorithms
# ---------------------------------------------------------------------------


ENGINE_CASES = [
    ("faster-k2", faster_gathering_program, 2),   # the specialized pair slice
    ("faster-k4", faster_gathering_program, 4),   # the general slice
    ("undispersed-k3", undispersed_gathering_program, 3),
]


def _fleet(graph, prog, k, seed):
    starts = dispersed_random(graph, min(k, graph.n), seed=seed)
    labels = assign_labels(len(starts), graph.n, scheme="random", seed=seed)
    factory = prog()
    return [
        RobotSpec(label=l, start=s, factory=factory)
        for l, s in zip(labels, starts)
    ]


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("case,prog,k", ENGINE_CASES, ids=[c[0] for c in ENGINE_CASES])
@pytest.mark.parametrize(
    "name,graph", FAMILY_INSTANCES, ids=[name for name, _ in FAMILY_INSTANCES]
)
def test_engine_bit_identical_on_matrix(name, graph, case, prog, k, backend):
    """Every replica's positions/statuses/metrics equal a scalar run with
    the same seed, over the full integration-matrix graph battery."""
    replicas = 3 * DIFF_SCALE
    batch = make_replica_batch(
        graph, [_fleet(graph, prog, k, s) for s in range(replicas)],
        strict=True, backend=backend,
    )
    outcomes = batch.run(max_rounds=500_000)
    assert batch.summary.backend == backend
    assert batch.summary.completed + batch.summary.failed == replicas
    for seed, outcome in enumerate(outcomes):
        try:
            scalar = World(graph, _fleet(graph, prog, k, seed), strict=True).run(
                max_rounds=500_000
            )
        except Exception as exc:
            # a seed the scalar path cannot finish (e.g. an adversarial
            # placement timing out) must fail the replica identically
            assert not outcome.ok, (name, seed)
            assert outcome.error_type == type(exc).__name__, (name, seed)
            assert outcome.error == str(exc), (name, seed)
            continue
        assert outcome.ok, (name, seed, outcome.error_type, outcome.error)
        assert outcome.result.positions == scalar.positions, (name, seed)
        assert metrics_dict(outcome.result.metrics) == metrics_dict(scalar.metrics), (
            name,
            seed,
        )
        assert outcome.result.gathered == scalar.gathered
        assert outcome.result.detected == scalar.detected
        assert outcome.result.stats == scalar.stats


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_backends_agree_exactly(backend):
    """Both backends produce identical outcomes and summaries (ints only)."""
    graph = gg.ring(10)

    def mk():
        return [_fleet(graph, faster_gathering_program, 3, s) for s in range(4)]

    ref = make_replica_batch(graph, mk(), strict=True, backend="list")
    ref_out = ref.run()
    other = make_replica_batch(graph, mk(), strict=True, backend=backend)
    other_out = other.run()
    for a, b in zip(ref_out, other_out):
        assert a.result.positions == b.result.positions
        assert metrics_dict(a.result.metrics) == metrics_dict(b.result.metrics)
    assert replace(ref.summary, backend="x") == replace(other.summary, backend="x")


def test_resolve_backend():
    assert resolve_backend("list").name == "list"
    assert resolve_backend("auto").name == ("numpy" if HAVE_NUMPY else "list")
    if HAVE_NUMPY:
        assert resolve_backend("numpy2d").name == "numpy2d"
    with pytest.raises(ValueError, match="unknown batch backend"):
        resolve_backend("cuda")


def test_engine_isolates_construction_failures():
    """A fleet with duplicate labels fails alone; siblings still run."""
    graph = gg.ring(8)
    good = _fleet(graph, undispersed_gathering_program, 3, 1)
    bad = [
        RobotSpec(label=5, start=0, factory=undispersed_gathering_program()),
        RobotSpec(label=5, start=1, factory=undispersed_gathering_program()),
    ]
    batch = make_replica_batch(graph, [good, bad, _fleet(graph, undispersed_gathering_program, 3, 2)])
    outcomes = batch.run(max_rounds=500_000)
    assert outcomes[0].ok and outcomes[2].ok
    assert not outcomes[1].ok
    assert outcomes[1].error_type == "ValueError"
    assert "labels must be unique" in outcomes[1].error
    assert batch.summary.failed == 1


# ---------------------------------------------------------------------------
# Runtime-level: execute(engine="batch-...") vs scalar execute
# ---------------------------------------------------------------------------


def _campaign_specs(replicas=None):
    replicas = replicas if replicas is not None else 4 * DIFF_SCALE
    base = RunSpec(
        algorithm="faster", family="ring", graph={"n": 12},
        placement="dispersed", k=4,
    )
    return [replace(base, seed=s) for s in range(replicas)]


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_runtime_records_byte_identical(backend):
    specs = _campaign_specs()
    scalar = execute(specs, executor=SerialExecutor())
    batched = execute(specs, executor=SerialExecutor(), engine=f"batch-{backend}")
    assert batched.stats.batched == len(specs)
    assert scalar.stats.batched == 0
    for a, b in zip(scalar.outcomes, batched.outcomes):
        assert a.spec == b.spec
        assert b.batched and not a.batched
        assert a.run.to_dict() == b.run.to_dict()


def test_cache_keys_interchangeable_both_directions(tmp_path):
    """Batched results hit a scalar-written cache and vice versa — the
    per-replica SHA-256 identity is unchanged by batching."""
    specs = _campaign_specs(4)
    scalar_dir, batch_dir = tmp_path / "scalar", tmp_path / "batch"
    execute(specs, cache=ResultCache(scalar_dir))
    execute(specs, cache=ResultCache(batch_dir), engine=BATCH_ENGINE)
    from_scalar = execute(specs, cache=ResultCache(scalar_dir), engine=BATCH_ENGINE)
    assert from_scalar.stats.cache_hits == len(specs)
    from_batch = execute(specs, cache=ResultCache(batch_dir))
    assert from_batch.stats.cache_hits == len(specs)
    for a, b in zip(from_scalar.outcomes, from_batch.outcomes):
        assert a.run.to_dict() == b.run.to_dict()


def test_parallel_batched_execution_matches_serial(tmp_path):
    """Whole batches dispatched to worker processes return the same
    outcomes as in-process batching."""
    specs = _campaign_specs(4) + [
        replace(_campaign_specs(1)[0], graph={"n": 10}, seed=s) for s in range(4)
    ]
    serial = execute(specs, executor=SerialExecutor(), engine=BATCH_ENGINE)
    parallel = execute(
        specs, executor=ParallelExecutor(workers=2, mp_context="fork"), engine=BATCH_ENGINE
    )
    for a, b in zip(serial.outcomes, parallel.outcomes):
        assert a.spec == b.spec
        assert a.run.to_dict() == b.run.to_dict()


def test_timeout_error_parity():
    specs = [replace(s, max_rounds=5) for s in _campaign_specs(3)]
    scalar = execute(specs, executor=SerialExecutor())
    batched = execute(specs, executor=SerialExecutor(), engine=BATCH_ENGINE)
    assert scalar.stats.failures == batched.stats.failures == 3
    for a, b in zip(scalar.outcomes, batched.outcomes):
        assert not a.ok and not b.ok
        assert (a.error_type, a.error) == (b.error_type, b.error)


def test_stop_on_gather_parity():
    base = RunSpec(
        algorithm="tz", family="ring", graph={"n": 10}, placement="dispersed",
        k=2, uses_uxs=False, stop_on_gather=True, max_rounds=50_000,
    )
    specs = [replace(base, seed=s) for s in range(4)]
    scalar = execute(specs, executor=SerialExecutor())
    batched = execute(specs, executor=SerialExecutor(), engine=BATCH_ENGINE)
    for a, b in zip(scalar.outcomes, batched.outcomes):
        assert a.run.to_dict() == b.run.to_dict()
        assert b.run.first_gather_round is not None


def test_batch_level_failure_hits_every_replica_identically():
    base = RunSpec(algorithm="no-such-algo", family="ring", graph={"n": 8})
    specs = [replace(base, seed=s) for s in range(3)]
    scalar = execute(specs, executor=SerialExecutor())
    batched = execute(specs, executor=SerialExecutor(), engine=BATCH_ENGINE)
    for a, b in zip(scalar.outcomes, batched.outcomes):
        assert (a.error_type, a.error) == (b.error_type, b.error)


# ---------------------------------------------------------------------------
# Grouping rules
# ---------------------------------------------------------------------------


class TestGrouping:
    def test_differ_only_by_seed_groups(self):
        specs = _campaign_specs(4)
        batches, singles = group_into_batches(specs)
        assert len(batches) == 1 and not singles
        indices, bspec = batches[0]
        assert indices == [0, 1, 2, 3]
        assert [s.seed for s in bspec.specs()] == [0, 1, 2, 3]
        assert bspec.specs() == specs

    def test_non_clean_specs_stay_scalar(self):
        spec = replace(_campaign_specs(1)[0], activation="round-robin")
        assert batch_key(spec) is None
        batches, singles = group_into_batches([spec, replace(spec, seed=9)])
        assert not batches and len(singles) == 2

    def test_faulted_specs_stay_scalar(self):
        spec = replace(_campaign_specs(1)[0], faults={"crash": {0: 3}})
        assert batch_key(spec) is None

    def test_singletons_stay_scalar(self):
        a = _campaign_specs(1)[0]
        b = replace(a, graph={"n": 16})  # different shape: its own group of 1
        batches, singles = group_into_batches([a, b])
        assert not batches and [i for i, _ in singles] == [0, 1]

    def test_mixed_batch_preserves_submission_order(self):
        specs = _campaign_specs(3)
        odd = replace(specs[0], activation="round-robin", seed=77)
        mixed = [specs[0], odd, specs[1], specs[2]]
        result = execute(mixed, executor=SerialExecutor(), engine=BATCH_ENGINE)
        assert [o.spec for o in result.outcomes] == mixed
        assert [o.batched for o in result.outcomes] == [True, False, True, True]

    def test_from_specs_rejects_mismatched_shapes(self):
        specs = _campaign_specs(2)
        with pytest.raises(ValueError, match="batchable identity"):
            BatchRunSpec.from_specs([specs[0], replace(specs[1], k=3)])
        with pytest.raises(ValueError, match="at least one"):
            BatchRunSpec.from_specs([])

    def test_pinned_scheme_seeds_still_group(self):
        """Per-scheme pinned seeds are part of the shared shape; the spec
        seed is the only thing allowed to differ."""
        base = replace(_campaign_specs(1)[0], placement_args={"seed": 3})
        group = [replace(base, seed=s) for s in range(3)]
        batches, singles = group_into_batches(group)
        assert len(batches) == 1 and not singles

    def test_replicate_spec_shape(self):
        base = replace(
            _campaign_specs(1)[0],
            placement_args={"seed": 3},
            labels_args={"seed": 4},
        )
        reps = replicate_spec(base, 4, root_seed=11)
        assert reps[0] == base  # replica 0 untouched (same cache key)
        for r in reps[1:]:
            assert r.seed is not None and r.seed != base.seed
            assert "seed" not in r.placement_args
            assert "seed" not in r.labels_args
        # siblings 1.. group together (replica 0 pins scheme seeds)
        batches, singles = group_into_batches(reps)
        assert len(batches) == 1 and len(batches[0][0]) == 3
        assert [i for i, _ in singles] == [0]
        with pytest.raises(ValueError, match="replicas"):
            replicate_spec(base, 0)

    def test_execute_batch_spec_outcome_order_and_flags(self):
        bspec = BatchRunSpec.from_specs(_campaign_specs(3))
        outcomes = execute_batch_spec(bspec)
        assert [o.spec.seed for o in outcomes] == [0, 1, 2]
        assert all(o.ok and o.batched for o in outcomes)


# ---------------------------------------------------------------------------
# Hypothesis: random scripted robots, batched vs scalar, per seed
# (shared generators from repro.testing.strategies, via conftest; this
# module keeps its historical shorter script shape)
# ---------------------------------------------------------------------------

script_strategy = scripts(max_size=8)


@given(
    st.integers(0, 3),
    st.lists(st.lists(script_strategy, min_size=2, max_size=4), min_size=2, max_size=4),
    st.data(),
)
@settings(max_examples=scaled_examples(60), deadline=None)
def test_scripted_replicas_bit_identical(graph_pick, replica_scripts, data):
    """Each replica (its own random script set + starts) matches a scalar
    run bit-for-bit, under both backends, through every cold path the
    scripts can reach (sleeps, meets, cards, terminations)."""
    graph = [gg.ring(6), gg.path(5), gg.star(6), gg.erdos_renyi(7, seed=3)][graph_pick]
    starts = [
        [
            data.draw(st.integers(0, graph.n - 1), label=f"r{r}s{i}")
            for i in range(len(scripts))
        ]
        for r, scripts in enumerate(replica_scripts)
    ]

    def fleet(r):
        return [
            RobotSpec(label=i + 1, start=s, factory=scripted_factory(sc))
            for i, (s, sc) in enumerate(zip(starts[r], replica_scripts[r]))
        ]

    scalar = [
        World(graph, fleet(r)).run(max_rounds=10_000)
        for r in range(len(replica_scripts))
    ]
    for backend in BACKEND_NAMES:
        batch = make_replica_batch(
            graph, [fleet(r) for r in range(len(replica_scripts))], backend=backend
        )
        outcomes = batch.run(max_rounds=10_000)
        for r, (outcome, ref) in enumerate(zip(outcomes, scalar)):
            assert outcome.ok, (r, outcome.error_type, outcome.error)
            assert outcome.result.positions == ref.positions, r
            assert metrics_dict(outcome.result.metrics) == metrics_dict(ref.metrics), r

"""Tests for repro.runtime: specs, executors, seed streams, cache, isolation."""

from __future__ import annotations

import json

import pytest

from repro.runtime import (
    ParallelExecutor,
    ResultCache,
    RunFailure,
    RunSpec,
    SerialExecutor,
    assign_seeds,
    derive_seed,
    execute,
    execute_spec,
    register_algorithm,
    run_specs,
    unregister_algorithm,
)
from repro.sim.actions import Action


def small_batch():
    """A mixed, fast batch: three sizes, two algorithms, one baseline."""
    specs = [
        RunSpec(
            algorithm="faster",
            family="ring",
            graph={"n": n},
            placement="scatter",
            k=n // 2 + 1,
            placement_args={"seed": 1},
            labels_args={"seed": n},
        )
        for n in (8, 9, 10)
    ]
    specs.append(
        RunSpec(
            algorithm="undispersed",
            family="erdos_renyi",
            graph={"n": 9, "seed": 3},
            placement="undispersed",
            k=3,
            placement_args={"seed": 5},
            labels_args={"seed": 5},
            uses_uxs=False,
        )
    )
    return specs


class TestSpec:
    def test_canonical_json_is_stable_and_orders_keys(self):
        spec = small_batch()[0]
        assert spec.canonical_json() == spec.canonical_json()
        payload = json.loads(spec.canonical_json())
        assert payload["spec"]["algorithm"] == "faster"
        assert "schema" in payload

    def test_distinct_specs_have_distinct_keys(self):
        a, b = small_batch()[:2]
        assert ResultCache.key_for(a) != ResultCache.key_for(b)
        # and a seed change alone re-keys
        from dataclasses import replace

        assert ResultCache.key_for(a) != ResultCache.key_for(replace(a, seed=7))

    def test_canonical_json_rejects_unserializable_values(self):
        """Silently stringifying a function would embed a memory address and
        quietly break cache-key identity across processes."""
        spec = RunSpec(algorithm="faster", family="ring", graph={"n": 8},
                       placement_args={"seed": lambda: 1})
        with pytest.raises(TypeError):
            spec.canonical_json()

    def test_execute_spec_unknown_algorithm_is_isolated(self):
        outcome = execute_spec(RunSpec(algorithm="bogus", family="ring", graph={"n": 8}))
        assert not outcome.ok
        assert outcome.error_type == "ValueError"
        with pytest.raises(RunFailure, match="bogus"):
            outcome.run_or_raise()


class TestSeedStreams:
    def test_derive_seed_deterministic_and_spread(self):
        a = derive_seed(0, 0)
        assert a == derive_seed(0, 0)
        stream = {derive_seed(0, i) for i in range(100)}
        assert len(stream) == 100
        assert derive_seed(1, 0) not in stream

    def test_assign_seeds_fills_only_unset(self):
        specs = [
            RunSpec(algorithm="faster", family="ring", graph={"n": 8}),
            RunSpec(algorithm="faster", family="ring", graph={"n": 8}, seed=42),
        ]
        seeded = assign_seeds(specs, root_seed=0)
        assert seeded[0].seed == derive_seed(0, 0)
        assert seeded[1].seed == 42
        assert specs[0].seed is None  # originals untouched

    def test_root_seed_same_results_any_executor(self):
        specs = [
            RunSpec(algorithm="faster", family="ring", graph={"n": 8},
                    placement="dispersed", k=3)
            for _ in range(4)
        ]
        serial = run_specs(specs, root_seed=0)
        parallel = run_specs(specs, executor=ParallelExecutor(workers=2), root_seed=0)
        assert serial == parallel
        assert run_specs(specs, root_seed=1) != serial  # the root actually matters


class TestExecutors:
    def test_parallel_matches_serial(self):
        specs = small_batch()
        serial = run_specs(specs, executor=SerialExecutor())
        parallel = run_specs(specs, executor=ParallelExecutor(workers=3, chunksize=1))
        assert serial == parallel

    def test_default_executor_is_serial(self):
        specs = small_batch()[:1]
        assert run_specs(specs) == run_specs(specs, executor=SerialExecutor())

    def test_progress_callback_fires_per_run(self):
        seen = []
        specs = small_batch()[:2]
        run_specs(specs, progress=lambda o, done, total: seen.append((done, total, o.ok)))
        assert seen == [(1, 2, True), (2, 2, True)]

    def test_parallel_progress_counts_all(self):
        seen = []
        run_specs(
            small_batch(),
            executor=ParallelExecutor(workers=2, chunksize=2),
            progress=lambda o, done, total: seen.append(done),
        )
        assert sorted(seen) == [1, 2, 3, 4]

    def test_empty_batch(self):
        assert run_specs([], executor=ParallelExecutor(workers=2)) == []

    def test_raising_progress_propagates_under_parallel(self):
        """A failing caller callback (e.g. cache disk-full) must surface,
        not be mistaken for a dead worker and trigger re-simulation."""

        def boom(outcome, done, total):
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            run_specs(small_batch(), executor=ParallelExecutor(workers=2, chunksize=1),
                      progress=boom)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)


@pytest.fixture
def violator():
    """A registered program that breaks the action protocol on purpose."""

    def violating_program(opts):
        def factory(ctx):
            def program():
                _obs = yield
                yield Action.move(9999)  # out-of-range port -> ProtocolViolation

            return program()

        return factory

    register_algorithm("test-violator", violating_program, uses_uxs=False)
    yield "test-violator"
    unregister_algorithm("test-violator")


class TestFailureIsolation:
    def bad_spec(self, name):
        return RunSpec(algorithm=name, family="ring", graph={"n": 8},
                       placement="dispersed", k=2, uses_uxs=False)

    def test_violation_does_not_kill_serial_batch(self, violator):
        specs = [small_batch()[0], self.bad_spec(violator), small_batch()[1]]
        result = execute(specs)
        assert [o.ok for o in result.outcomes] == [True, False, True]
        assert result.outcomes[1].error_type == "ProtocolViolation"
        assert result.stats.failures == 1
        with pytest.raises(RunFailure):
            result.records()

    def test_violation_does_not_kill_parallel_batch(self, violator):
        specs = [small_batch()[0], self.bad_spec(violator), small_batch()[1]]
        result = execute(specs, executor=ParallelExecutor(workers=2, chunksize=1))
        assert [o.ok for o in result.outcomes] == [True, False, True]
        assert result.outcomes[1].error_type == "ProtocolViolation"

    def test_dead_worker_process_poisons_only_its_own_spec(self):
        """An OOM-killed/segfaulted worker breaks the whole pool; healthy
        specs must be retried in fresh pools, not reported as failed."""
        import os

        def killer_program(opts):
            def factory(ctx):
                def program():
                    _obs = yield
                    os._exit(13)  # simulate the kernel killing the worker

                return program()

            return factory

        register_algorithm("test-worker-killer", killer_program, uses_uxs=False)
        try:
            specs = [small_batch()[0], self.bad_spec("test-worker-killer"),
                     small_batch()[1], small_batch()[2]]
            result = execute(specs, executor=ParallelExecutor(workers=2, chunksize=1))
            assert [o.ok for o in result.outcomes] == [True, False, True, True]
            assert "BrokenProcessPool" in (result.outcomes[1].error_type or "")
            # and the healthy records are the real ones, not error stubs
            serial = execute([specs[0], specs[2], specs[3]])
            assert [result.outcomes[i].run for i in (0, 2, 3)] == serial.records()
        finally:
            unregister_algorithm("test-worker-killer")

    def test_dead_worker_process_poisons_only_its_own_replica(self):
        """A replica that kills its worker mid-batch fails alone: the other
        replicas of its batch, and the other batches, return the serial
        records."""
        import os
        from dataclasses import replace

        from repro.core.undispersed import undispersed_gathering_program

        def killer_builder(opts):
            if opts.get("doom") != opts["seed"]:
                return undispersed_gathering_program()

            def factory(ctx):
                def program():
                    _obs = yield
                    os._exit(13)  # simulate the kernel killing the worker

                return program()

            return factory

        register_algorithm("test-replica-killer", killer_builder, uses_uxs=False)
        try:
            base = RunSpec(algorithm="test-replica-killer", family="ring",
                           graph={"n": 8}, placement="undispersed", k=3,
                           uses_uxs=False)
            doomed = replace(base, algorithm_args={"doom": 1})
            specs = [replace(doomed, seed=s) for s in range(3)]
            specs += [replace(base, seed=s) for s in range(3)]
            result = execute(
                specs,
                executor=ParallelExecutor(workers=2, mp_context="fork"),
                engine="batch-numpy",
            )
            assert [o.ok for o in result.outcomes] == [True, False, True, True, True, True]
            assert "BrokenProcessPool" in (result.outcomes[1].error_type or "")
            healthy = [0, 2, 3, 4, 5]
            serial = execute([specs[i] for i in healthy])
            assert [result.outcomes[i].run for i in healthy] == serial.records()
        finally:
            unregister_algorithm("test-replica-killer")


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = small_batch()
        first = execute(specs, cache=cache)
        assert first.stats.executed == len(specs)
        assert first.stats.cache_hits == 0
        assert len(cache) == len(specs)

        second = execute(specs, cache=cache)
        assert second.stats.executed == 0
        assert second.stats.cache_hits == len(specs)
        assert all(o.cached for o in second.outcomes)
        assert first.records() == second.records()

    def test_cache_is_spec_sensitive(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_batch()[0]
        execute([spec], cache=cache)
        from dataclasses import replace

        changed = replace(spec, placement_args={"seed": 2})
        result = execute([changed], cache=cache)
        assert result.stats.executed == 1  # different spec, no false hit

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_batch()[0]
        execute([spec], cache=cache)
        path = cache._path(cache.key_for(spec))
        path.write_text("{ not json")
        rerun = execute([spec], cache=cache)
        assert rerun.stats.executed == 1
        # and the entry healed
        assert execute([spec], cache=cache).stats.cache_hits == 1

    def test_failures_are_not_cached(self, tmp_path, violator):
        cache = ResultCache(tmp_path)
        bad = RunSpec(algorithm=violator, family="ring", graph={"n": 8},
                      placement="dispersed", k=2, uses_uxs=False)
        assert execute([bad], cache=cache).stats.failures == 1
        assert len(cache) == 0
        assert execute([bad], cache=cache).stats.executed == 1  # retried, not replayed

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        execute(small_batch()[:2], cache=cache)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_interrupted_batch_keeps_completed_results(self, tmp_path):
        """Write-through: results land in the cache as they complete, so an
        interrupt mid-batch does not discard finished simulations."""
        cache = ResultCache(tmp_path)
        specs = small_batch()[:3]

        def interrupt_after_two(outcome, done, total):
            if done == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            execute(specs, cache=cache, progress=interrupt_after_two)
        assert len(cache) == 2
        resumed = execute(specs, cache=cache)
        assert resumed.stats.cache_hits == 2
        assert resumed.stats.executed == 1


class TestSweepIntegration:
    def test_sweeps_identical_serial_vs_parallel(self):
        from repro.analysis import sweeps

        serial = sweeps.regime_sweep(ns=(9,))
        parallel = sweeps.regime_sweep(ns=(9,), executor=ParallelExecutor(workers=2))
        assert serial == parallel

    def test_report_identical_with_cache_and_workers(self, tmp_path):
        from repro.analysis.report import generate_report

        cache = ResultCache(tmp_path)
        cold = generate_report(quick=True, cache=cache)
        warm = generate_report(
            quick=True, executor=ParallelExecutor(workers=2), cache=cache
        )
        assert cold == warm
        assert cache.hits > 0

    def test_report_root_seed_changes_no_rows(self):
        """Canned sweeps pin their seeds: root_seed is cache identity only."""
        from repro.analysis.report import generate_report

        assert generate_report(quick=True) == generate_report(quick=True, root_seed=0)


class TestCliRuntimeFlags:
    def test_sweep_workers_identical_rows(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--ns", "8", "10", "--k", "3", "--seed", "0"]) == 0
        baseline = capsys.readouterr().out
        assert main(["sweep", "--ns", "8", "10", "--k", "3", "--seed", "0",
                     "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert baseline in parallel  # same table + slope, plus the runtime line
        assert "2 executed, 0 cached" in parallel

    def test_sweep_second_invocation_fully_cached(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["sweep", "--ns", "8", "10", "--k", "3", "--seed", "0",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 executed, 0 cached" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 executed, 2 cached" in second
        assert first == second.replace("0 executed, 2 cached", "2 executed, 0 cached")

    def test_run_with_cache(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["run", "--family", "ring", "--n", "10", "--k", "6",
                "--placement", "scatter", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "1 executed, 0 cached" in capsys.readouterr().out
        assert main(argv) == 0
        assert "0 executed, 1 cached" in capsys.readouterr().out


class TestGraphMemoization:
    """Per-process graph/CSR memo behind ``materialize`` (graph_cache)."""

    def setup_method(self):
        from repro.runtime import graph_cache

        graph_cache.clear()

    def test_same_key_returns_shared_instance(self):
        from repro.runtime import graph_cache

        g1 = graph_cache.graph_for("ring", {"n": 12})
        g2 = graph_cache.graph_for("ring", {"n": 12})
        assert g1 is g2
        info = graph_cache.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_distinct_params_distinct_graphs(self):
        from repro.runtime import graph_cache

        g1 = graph_cache.graph_for("ring", {"n": 12})
        g2 = graph_cache.graph_for("ring", {"n": 14})
        assert g1 is not g2 and g1.n != g2.n

    def test_disabled_context_builds_fresh(self):
        from repro.runtime import graph_cache

        g1 = graph_cache.graph_for("ring", {"n": 12})
        with graph_cache.disabled():
            g2 = graph_cache.graph_for("ring", {"n": 12})
        assert g1 is not g2

    def test_materialize_uses_memo_and_results_unchanged(self):
        from repro.runtime import graph_cache
        from repro.runtime.spec import materialize

        spec = RunSpec("undispersed", "ring", {"n": 10},
                       placement="undispersed", k=3, seed=5, uses_uxs=False)
        g1, starts1, labels1, _ = materialize(spec)
        g2, starts2, labels2, _ = materialize(spec)
        assert g1 is g2  # shared build
        assert (starts1, labels1) == (starts2, labels2)
        assert graph_cache.cache_info()["hits"] >= 1
        # executing against the memoized graph is bit-identical to a cold build
        hot = execute_spec(spec).run
        with graph_cache.disabled():
            cold = execute_spec(spec).run
        assert hot.to_dict() == cold.to_dict()

    def test_eviction_is_bounded(self):
        from repro.runtime import graph_cache

        for n in range(4, 4 + graph_cache.MAX_ENTRIES + 8):
            graph_cache.graph_for("ring", {"n": n})
        assert graph_cache.cache_info()["size"] <= graph_cache.MAX_ENTRIES

    def test_clear_drops_the_walk_tables(self):
        """The scheduler's walk rows go with the graphs; rows rebuilt after
        ``clear`` equal the dropped ones, and the record is unchanged."""
        from repro.graphs import csr
        from repro.runtime import graph_cache

        def rows():
            tables = csr._walk_tables
            assert tables[0] is graph_cache.graph_for("ring", {"n": 12}).csr
            return {
                (len(offsets), start): pair
                for offsets, starts in tables[1].values()
                for start, pair in starts.items()
            }

        spec = RunSpec("uxs", "ring", {"n": 12}, placement="dispersed", k=3, seed=5)
        first = execute_spec(spec).run
        before = rows()
        assert before
        graph_cache.clear()
        assert csr._walk_tables is None
        assert execute_spec(spec).run.to_dict() == first.to_dict()
        after = rows()
        assert after == before
        assert all(after[key] is not before[key] for key in after)


class TestChunkedCache:
    """Chunked result-record aggregation (``put_batch`` / ``cache_chunk``)."""

    def test_put_batch_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = small_batch()
        runs = [execute_spec(s).run_or_raise() for s in specs]
        assert cache.put_batch(zip(specs, runs)) == len(specs)
        # a single chunk file holds every record
        assert len(list((tmp_path / "chunks").glob("*.json"))) == 1
        assert len(cache) == len(specs)
        for spec, run in zip(specs, runs):
            assert spec in cache
            assert cache.get(spec).to_dict() == run.to_dict()

    def test_chunk_entries_survive_reopen(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = small_batch()
        runs = [execute_spec(s).run_or_raise() for s in specs]
        cache.put_batch(zip(specs, runs))
        reopened = ResultCache(tmp_path)
        assert execute(specs, cache=reopened).stats.cache_hits == len(specs)

    def test_execute_cache_chunk_writes_chunks_not_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = small_batch()
        result = execute(specs, cache=cache, cache_chunk=32)
        assert result.stats.executed == len(specs)
        per_key = list(tmp_path.glob("[0-9a-f][0-9a-f]/*.json"))
        chunks = list((tmp_path / "chunks").glob("*.json"))
        assert per_key == [] and len(chunks) == 1
        # second pass: fully cached from the chunk index
        again = execute(specs, cache=ResultCache(tmp_path), cache_chunk=32)
        assert again.stats.cache_hits == len(specs)

    def test_cache_chunk_flushes_every_n(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = small_batch()
        assert len(specs) >= 2
        execute(specs, cache=cache, cache_chunk=1)  # one chunk per record
        chunks = list((tmp_path / "chunks").glob("*.json"))
        assert len(chunks) == len(specs)

    def test_per_key_file_shadows_chunk_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_batch()[0]
        run = execute_spec(spec).run_or_raise()
        cache.put_batch([(spec, run)])
        cache.put(spec, run)  # re-executed write-through wins
        assert len(cache) == 1
        assert cache.get(spec).to_dict() == run.to_dict()

    def test_clear_removes_chunks(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = small_batch()
        runs = [execute_spec(s).run_or_raise() for s in specs]
        cache.put_batch(zip(specs, runs))
        assert cache.clear() == len(specs)
        assert len(ResultCache(tmp_path)) == 0

    def test_corrupt_chunk_is_skipped(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = small_batch()
        runs = [execute_spec(s).run_or_raise() for s in specs]
        cache.put_batch(zip(specs, runs))
        for chunk in (tmp_path / "chunks").glob("*.json"):
            chunk.write_text("{ truncated")
        reopened = ResultCache(tmp_path)
        assert reopened.get(specs[0]) is None  # miss, not an error
        assert reopened.misses == 1

    def test_put_batch_empty_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.put_batch([]) == 0
        # no chunks directory materializes for an empty flush
        assert not (tmp_path / "chunks").exists()
        assert len(cache) == 0

    def test_put_batch_duplicate_specs_collapse_to_one_record(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_batch()[0]
        run = execute_spec(spec).run_or_raise()
        # the same spec twice in one batch: last record wins, one key stored
        assert cache.put_batch([(spec, run), (spec, run)]) == 1
        assert len(cache) == 1
        assert cache.get(spec).to_dict() == run.to_dict()

    def test_cache_dir_collision_across_writers(self, tmp_path):
        """Two cache handles on one directory (the parallel-worker shape).

        A record chunk-written by another handle *after* this handle's
        index loaded is found anyway: a miss rechecks the chunk
        directory's mtime signature and reloads a stale index.  Per-key
        write-through files are always visible to every handle, and a
        fresh handle sees the union of everything on disk.
        """
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        specs = small_batch()
        runs = [execute_spec(s).run_or_raise() for s in specs]
        a.put_batch(zip(specs[:2], runs[:2]))    # loads a's index first
        b.put_batch(zip(specs[2:], runs[2:]))
        b.put(specs[0], runs[0])                  # write-through collision
        # each writer serves its own chunk records
        assert a.get(specs[1]).to_dict() == runs[1].to_dict()
        assert b.get(specs[2]).to_dict() == runs[2].to_dict()
        # per-key write-through is visible across handles immediately
        assert a.get(specs[0]).to_dict() == runs[0].to_dict()
        # a's snapshot predates b's chunk: the miss detects the stale
        # index (chunk dir mtime moved) and refreshes into a hit
        assert a.get(specs[2]).to_dict() == runs[2].to_dict()
        # a fresh handle (the next sweep invocation) sees the union
        fresh = ResultCache(tmp_path)
        for spec, run in zip(specs, runs):
            assert fresh.get(spec).to_dict() == run.to_dict()
        assert len(fresh) == len(specs)

    def test_concurrent_workers_share_one_cache_dir(self, tmp_path):
        """A parallel chunked-cache batch against one directory: every
        record lands, and a fresh handle reads all of them back."""
        specs = small_batch()
        result = execute(
            specs,
            executor=ParallelExecutor(workers=2, chunksize=1),
            cache=ResultCache(tmp_path),
            cache_chunk=2,
        )
        assert result.stats.executed == len(specs)
        again = execute(specs, cache=ResultCache(tmp_path))
        assert again.stats.cache_hits == len(specs)


class TestGraphMemoEdges:
    """graph_cache edge cases: non-JSON params, counter reset, key shape."""

    def setup_method(self):
        from repro.runtime import graph_cache

        graph_cache.clear()

    def test_non_json_params_fall_back_to_fresh_builds(self, monkeypatch):
        from repro.graphs import generators as gg
        from repro.runtime import graph_cache

        def tolerant_ring(n, marker=None):
            return gg.ring(n)

        monkeypatch.setitem(gg.FAMILIES, "tolerant-ring", tolerant_ring)
        weird = {"n": 12, "marker": {1, 2}}  # a set defeats JSON keying
        with pytest.raises(TypeError):
            json.dumps(weird)
        g1 = graph_cache.graph_for("tolerant-ring", dict(weird))
        g2 = graph_cache.graph_for("tolerant-ring", dict(weird))
        # unkeyable params build fresh each time and never enter the memo
        assert g1.n == g2.n == 12 and g1 is not g2
        assert graph_cache.cache_info()["size"] == 0

    def test_clear_resets_counters(self):
        from repro.runtime import graph_cache

        graph_cache.graph_for("ring", {"n": 12})
        graph_cache.graph_for("ring", {"n": 12})
        graph_cache.clear()
        info = graph_cache.cache_info()
        assert info == {"hits": 0, "misses": 0, "size": 0}

    def test_param_order_does_not_split_keys(self):
        from repro.runtime import graph_cache

        g1 = graph_cache.graph_for("erdos_renyi", {"n": 9, "seed": 3})
        g2 = graph_cache.graph_for("erdos_renyi", {"seed": 3, "n": 9})
        assert g1 is g2

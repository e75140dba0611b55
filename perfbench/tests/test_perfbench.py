"""Tests of the benchmark itself: inputs, output checks, trace arithmetic."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import bench
import checks
import hostspeed
import tracing
from repro.runtime import RunSpec, execute
from workloads import WORKLOADS, campaign_half, gate_slice, make_specs


def one_run(algorithm="undispersed", placement="undispersed", n=16, seed=3):
    spec = RunSpec(algorithm, "ring", {"n": n}, placement=placement, k=4, seed=seed,
                   uses_uxs=algorithm != "undispersed")
    return execute([spec]).outcomes[0]


class TestSpecGeneration:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_deterministic_per_seed(self, name):
        workload = WORKLOADS[name]
        assert make_specs(workload, 7) == make_specs(workload, 7)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_seeds_reroll_placement_not_graphs(self, name):
        workload = WORKLOADS[name]
        a, b = make_specs(workload, 7), make_specs(workload, 8)
        assert len(a) == len(b) == len(workload.runs) * 3 * len(workload.ns) * workload.replicas
        assert a != b
        assert [(s.family, s.graph) for s in a] == [(s.family, s.graph) for s in b]
        assert len({s.canonical_json() for s in a}) == len(a)  # no duplicate cells

    def test_gate_slice_is_a_replica_pair_per_algorithm(self):
        specs = gate_slice(WORKLOADS["faster-sweep"], 0)
        assert [(s.algorithm, s.family, s.graph["n"]) for s in specs] == [
            ("faster", "ring", 16), ("faster", "ring", 16),
            ("undispersed", "ring", 16), ("undispersed", "ring", 16),
        ]

    def test_campaign_half_is_seeded(self):
        specs = make_specs(WORKLOADS["campaign-resume"], 0, replicas=2)
        half = campaign_half(specs, 0)
        assert len(half) == len(specs) // 2
        assert half == campaign_half(specs, 0)
        assert half != campaign_half(specs, 1)


class TestOutputCheck:
    def test_correct_record_passes(self):
        outcome = one_run()
        assert outcome.ok
        assert checks.check_outcomes([outcome]) == []

    def test_detected_without_gathering_is_rejected(self):
        outcome = one_run()
        outcome.run = replace(outcome.run, gathered=False)
        assert any("detected without gathering" in p for p in checks.check_outcomes([outcome]))

    def test_rounds_over_the_schedule_bound_are_rejected(self):
        outcome = one_run()
        outcome.run = replace(outcome.run, rounds=checks.round_bound("undispersed", 16, {}) + 1)
        assert any("exceed the schedule bound" in p for p in checks.check_outcomes([outcome]))

    def test_faster_bound_follows_the_gathering_step(self):
        from repro.core import bounds

        boundaries = bounds.faster_gathering_boundaries(16)
        assert checks.round_bound("faster", 16, {"gathered_at_step": 2}) == boundaries[1] + 1
        assert checks.round_bound("faster", 16, {}) == boundaries[-1] + checks.uxs_budget(16)

    def test_changed_digest_is_rejected(self, tmp_path):
        outcome = one_run()
        digest = checks.records_digest([outcome])
        stored = tmp_path / "digests.json"
        stored.write_text(json.dumps({"w": digest}))
        seed = checks.DEFAULT_SEED
        assert checks.check_digest("w", seed, digest, stored) == []
        tampered = replace(outcome.run, total_moves=outcome.run.total_moves + 1)
        other = checks.records_digest([replace(outcome, run=tampered)])
        assert other != digest
        assert checks.check_digest("w", seed, other, stored)
        assert checks.check_digest("w", seed + 1, other, stored) == []  # default seed only

    def test_failed_frac_counts_an_injected_failure(self):
        good = one_run()
        bad = execute([RunSpec("undispersed", "ring", {"n": 3}, placement="dispersed", k=4)]).outcomes[0]
        assert not bad.ok
        assert checks.failed_frac([good, bad]) == 0.5
        assert checks.check_outcomes([good, bad])

    def test_engine_gate_passes_on_agreeing_engines(self):
        specs = gate_slice(WORKLOADS["faster-sweep"], 0)[2:]  # the cheap undispersed pair
        assert checks.engine_gate(specs) == []

    def test_engine_gate_reports_a_disagreeing_engine(self, monkeypatch):
        real = checks.api.execute

        def skewed(specs, engine=None, **kwargs):
            result = real(specs, engine=engine, **kwargs)
            if engine == "reference":
                first = result.outcomes[0]
                first.run = replace(first.run, rounds=first.run.rounds + 1)
            return result

        monkeypatch.setattr(checks.api, "execute", skewed)
        specs = gate_slice(WORKLOADS["faster-sweep"], 0)[2:]
        assert checks.engine_gate(specs) == ["engine 'reference' disagrees with the default engine"]


def span(sid, parent, start, end, name="x", **counts):
    return {"id": sid, "name": name, "parent": parent, "run": "r", "start": start, "end": end,
            "counts": counts}


class TestTrace:
    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            span("root", None, 0.0, 10.0),
            span("a", "root", 1.0, 4.0),
            span("b", "root", 3.0, 6.0),  # overlaps a: covered once
            span("c", "root", 9.0, 12.0),  # clipped to the parent's end
            span("a1", "a", 2.0, 3.0),
        ]
        own = tracing.self_times(spans)
        assert own["root"] == pytest.approx(10.0 - 5.0 - 1.0)
        assert own["a"] == pytest.approx(2.0)
        assert own["b"] == pytest.approx(3.0)
        assert own["a1"] == pytest.approx(1.0)

    def test_dispatch_is_call_time_minus_spec_time(self):
        spans = [
            span("e", None, 0.0, 10.0, name="runtime.execute"),
            span("s1", "e", 1.0, 4.0, name="runtime.spec"),
            span("s2", "e", 5.0, 9.0, name="runtime.spec"),
        ]
        assert tracing.layer_metrics(spans, 0.0)["executor.dispatch_s"] == pytest.approx(3.0)

    def test_traced_execute_counts_runs_and_restores(self):
        from repro.runtime import api
        from repro.sim.scheduler import Scheduler

        original = (api.execute, Scheduler._step)
        specs = gate_slice(WORKLOADS["faster-sweep"], 0)[2:]
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            outcomes = api.execute(specs).outcomes
        finally:
            restore()
        assert (api.execute, Scheduler._step) == original
        metrics = tracing.layer_metrics(tracer.spans, 0.0)
        assert metrics["sim.runs"] == 2
        assert metrics["sim.rounds"] == sum(o.run.rounds for o in outcomes)
        assert metrics["placement.calls"] == 4  # start nodes and labels per run
        assert metrics["sim.sends"] > 0
        assert list(metrics) == list(tracing.LAYER_METRICS)
        assert all(s["run"] for s in tracer.spans)


def test_host_speed_scale_divides_by_the_mean_probe():
    assert hostspeed.scale(hostspeed.REFERENCE_S, hostspeed.REFERENCE_S) == pytest.approx(1.0)
    assert hostspeed.scale(1e-4, 3e-4) == pytest.approx(hostspeed.REFERENCE_S / 2e-4)
    assert hostspeed.probe() > 0


def test_benchmark_json_matches_the_tables():
    stored = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert stored == bench.benchmark_json()

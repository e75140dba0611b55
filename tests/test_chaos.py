"""The chaos proofs: campaigns survive SIGKILL, vandalism, and slow claims.

These tests drive the real campaign code through real failures — workers
killed with SIGKILL mid-cell, cache files torn behind the cache's back,
leases orphaned by dead processes — and assert the one promise that
matters: the grid converges, and the results are bit-identical to a clean
serial run.
"""

from __future__ import annotations

import json

import pytest

from repro.campaigns import CampaignManifest, run_campaign, run_worker, status_of
from repro.runtime import ResultCache, RunSpec, SerialExecutor
from repro.testing.chaos import (
    CHAOS_ENV_VAR,
    ChaosConfig,
    ChaosMonkey,
    chaos_from_env,
    orphan_lease,
    plant_stale_tmp,
    truncate_entry,
)


def grid(ns=(6, 8, 10), seed=0):
    return [
        RunSpec(
            algorithm="faster",
            family="ring",
            graph={"n": n},
            placement="scatter",
            k=3,
            placement_args={"seed": seed},
            labels_args={"seed": seed},
        )
        for n in ns
    ]


def clean_records(manifest):
    """What a clean serial run of the whole grid produces, keyed by cell."""
    return {
        ResultCache.key_for(o.spec): o.run.to_dict()
        for o in SerialExecutor().run(manifest.specs())
    }


def assert_bit_identical(manifest, cache):
    cache.refresh()
    expected = clean_records(manifest)
    for cell in manifest.cells:
        assert cache.get(cell.spec).to_dict() == expected[cell.key]


class TestChaosConfig:
    def test_round_trips_through_json_and_env(self):
        config = ChaosConfig(seed=7, kill={"pre_write": 0.5}, kill_limit=2, claim_delay=0.1)
        assert ChaosConfig.from_json(config.to_json()) == config
        assert json.loads(config.env()[CHAOS_ENV_VAR]) == json.loads(config.to_json())

    def test_unknown_fault_point_is_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig(kill={"before_breakfast": 1.0})

    def test_env_parsing(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        assert chaos_from_env(tmp_path) is None
        monkeypatch.setenv(CHAOS_ENV_VAR, '{"seed": 3, "kill": {"claimed": 1.0}}')
        monkey = chaos_from_env(tmp_path)
        assert monkey.config.seed == 3
        monkeypatch.setenv(CHAOS_ENV_VAR, "not json")
        with pytest.raises(json.JSONDecodeError):
            chaos_from_env(tmp_path)

    def test_kill_decisions_are_seed_deterministic(self, tmp_path):
        a = ChaosMonkey(ChaosConfig(seed=1, kill={"pre_write": 0.5}), tmp_path)
        b = ChaosMonkey(ChaosConfig(seed=1, kill={"pre_write": 0.5}), tmp_path)
        keys = [f"key{i}" for i in range(64)]
        decisions = [a.should_kill("pre_write", k) for k in keys]
        assert decisions == [b.should_kill("pre_write", k) for k in keys]
        assert any(decisions) and not all(decisions)
        # Other points are untouched by this schedule.
        assert not any(a.should_kill("claimed", k) for k in keys)

    def test_kill_slots_are_rationed(self, tmp_path):
        monkey = ChaosMonkey(ChaosConfig(kill_limit=2), tmp_path)
        assert monkey._claim_kill_slot()
        assert monkey._claim_kill_slot()
        assert not monkey._claim_kill_slot()  # limit reached, even cross-monkey
        assert monkey.kills_used() == 2


class TestSigkillRecovery:
    """The acceptance scenario: SIGKILL a worker mid-cell, resume, converge."""

    def test_killed_worker_then_resume_is_bit_identical(self, tmp_path, monkeypatch):
        manifest = CampaignManifest.from_specs(grid())
        config = ChaosConfig(seed=0, kill={"pre_write": 1.0}, kill_limit=1)
        monkeypatch.setenv(CHAOS_ENV_VAR, config.to_json())

        # Two OS workers; exactly one dies after executing its first cell
        # but before the cache write (the worst place: work done, lost).
        interrupted = run_campaign(manifest, tmp_path, workers=2, idle_timeout=2)
        status = status_of(manifest, tmp_path)
        assert not status.complete
        assert status.done == len(manifest.cells) - 1
        assert status.claimed == 1  # the dead worker's lease lingers

        # Resume (chaos off): the stale lease is reclaimed and exactly the
        # killed cell re-executes — completed cells are not re-run.
        monkeypatch.delenv(CHAOS_ENV_VAR)
        resumed = run_campaign(manifest, tmp_path, workers=1, lease_timeout=0.5)
        assert resumed.executed == 1
        assert resumed.reclaimed == 1
        assert resumed.cache_hits == len(manifest.cells) - 1
        assert status_of(manifest, tmp_path).complete
        assert_bit_identical(manifest, ResultCache(tmp_path))
        assert interrupted.executed + resumed.executed == len(manifest.cells)

    def test_completed_campaign_resumes_with_zero_executions(self, tmp_path):
        manifest = CampaignManifest.from_specs(grid())
        run_campaign(manifest, tmp_path, workers=2, idle_timeout=2)
        assert status_of(manifest, tmp_path).complete

        resumed = run_campaign(manifest, tmp_path, workers=1)
        assert resumed.executed == 0
        assert resumed.cache_hits == len(manifest.cells)

    def test_kill_after_write_loses_nothing(self, tmp_path, monkeypatch):
        """post_write kill: the cell committed before the worker died, so
        resume finds it done and only sweeps the orphaned lease."""
        manifest = CampaignManifest.from_specs(grid())
        config = ChaosConfig(seed=0, kill={"post_write": 1.0}, kill_limit=1)
        monkeypatch.setenv(CHAOS_ENV_VAR, config.to_json())
        run_campaign(manifest, tmp_path, workers=2, idle_timeout=2)

        monkeypatch.delenv(CHAOS_ENV_VAR)
        resumed = run_campaign(manifest, tmp_path, workers=1, lease_timeout=0.5)
        assert resumed.executed == 0
        assert status_of(manifest, tmp_path).complete
        assert_bit_identical(manifest, ResultCache(tmp_path))


class TestVandalismRecovery:
    def test_torn_entry_reexecutes_on_resume(self, tmp_path):
        manifest = CampaignManifest.from_specs(grid())
        cache = ResultCache(tmp_path)
        run_worker(manifest, cache)

        truncate_entry(cache, manifest.cells[1].spec)
        planted = plant_stale_tmp(cache, count=2)

        stats = run_worker(manifest, ResultCache(tmp_path))
        assert stats.executed == 1  # only the vandalized cell
        assert stats.tmp_swept == 2
        assert stats.corrupt == 1
        assert not any(p.exists() for p in planted)
        assert status_of(manifest, tmp_path).complete
        assert_bit_identical(manifest, ResultCache(tmp_path))

    def test_stale_orphan_lease_on_pending_cell_is_reclaimed(self, tmp_path):
        """A worker that died holding a lease (without ever writing) must
        not block the cell forever: past the timeout the lease is reclaimed
        and the cell executes."""
        manifest = CampaignManifest.from_specs(grid())
        orphan_lease(tmp_path, manifest.campaign_id, manifest.cells[1].key)

        stats = run_worker(manifest, ResultCache(tmp_path), lease_timeout=60)
        assert stats.executed == len(manifest.cells)
        assert stats.reclaimed == 1
        assert status_of(manifest, tmp_path).complete
        assert_bit_identical(manifest, ResultCache(tmp_path))

    def test_orphan_lease_over_done_cell_is_swept_at_startup(self, tmp_path):
        manifest = CampaignManifest.from_specs(grid())
        cache = ResultCache(tmp_path)
        run_worker(manifest, cache)

        path = orphan_lease(tmp_path, manifest.campaign_id, manifest.cells[0].key)
        stats = run_worker(manifest, ResultCache(tmp_path))
        assert stats.executed == 0
        assert not path.exists()


class TestClaimDelays:
    def test_slow_claims_still_converge(self, tmp_path):
        manifest = CampaignManifest.from_specs(grid())
        monkey = ChaosMonkey(ChaosConfig(seed=2, claim_delay=0.02), tmp_path)
        stats = run_worker(manifest, ResultCache(tmp_path), chaos=monkey)
        assert stats.executed == len(manifest.cells)
        assert status_of(manifest, tmp_path).complete
        assert_bit_identical(manifest, ResultCache(tmp_path))

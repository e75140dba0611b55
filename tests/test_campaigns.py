"""Campaign layer: manifests, the lease protocol, workers, and the CLI.

The crash-safety *proofs* (SIGKILL, torn files, orphaned leases) live in
tests/test_chaos.py; this file covers the sunny-day contracts the chaos
tests rely on.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

import pytest

from repro.campaigns import (
    CampaignManifest,
    LeaseManager,
    campaigns_dir,
    default_owner,
    list_manifests,
    load_manifest,
    manifest_path,
    resolve_campaign_id,
    run_campaign,
    run_worker,
    save_manifest,
    status_of,
)
from repro.cli import main
from repro.runtime import ResultCache, RunSpec, SerialExecutor, execute
from repro.scenarios import get_scenario


def grid(ns=(6, 8), seed=0):
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


class TestManifest:
    def test_id_ignores_order_and_duplicates(self):
        specs = grid((6, 8, 10))
        a = CampaignManifest.from_specs(specs)
        b = CampaignManifest.from_specs(list(reversed(specs)) + specs[:1])
        assert a.campaign_id == b.campaign_id
        assert len(b.cells) == 3  # duplicates collapse

    def test_id_differs_for_different_grids(self):
        assert (
            CampaignManifest.from_specs(grid((6, 8))).campaign_id
            != CampaignManifest.from_specs(grid((6, 10))).campaign_id
        )

    def test_round_trips_through_disk(self, tmp_path):
        manifest = CampaignManifest.from_specs(grid(), meta={"title": "rt"})
        path = save_manifest(manifest, tmp_path)
        assert path == manifest_path(tmp_path, manifest.campaign_id)
        loaded = load_manifest(tmp_path, manifest.campaign_id)
        assert loaded.campaign_id == manifest.campaign_id
        assert loaded.meta == {"title": "rt"}
        assert [c.key for c in loaded.cells] == [c.key for c in manifest.cells]
        assert loaded.specs() == manifest.specs()

    def test_save_is_write_once(self, tmp_path):
        manifest = CampaignManifest.from_specs(grid(), meta={"title": "first"})
        save_manifest(manifest, tmp_path)
        again = CampaignManifest.from_specs(grid(), meta={"title": "second"})
        save_manifest(again, tmp_path)
        assert load_manifest(tmp_path, manifest.campaign_id).meta == {"title": "first"}

    def test_tampered_manifest_is_rejected(self, tmp_path):
        manifest = CampaignManifest.from_specs(grid())
        path = save_manifest(manifest, tmp_path)
        payload = json.loads(path.read_text())
        payload["cells"][0]["spec"]["spec"]["k"] = 99  # spec no longer hashes to its key
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_manifest(tmp_path, manifest.campaign_id)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path, "0" * 64)

    def test_prefix_resolution(self, tmp_path):
        manifest = CampaignManifest.from_specs(grid())
        save_manifest(manifest, tmp_path)
        assert resolve_campaign_id(tmp_path, manifest.campaign_id[:8]) == manifest.campaign_id
        assert list_manifests(tmp_path) == [manifest.campaign_id]
        with pytest.raises(ValueError):
            resolve_campaign_id(tmp_path, "zzzz")

    def test_ambiguous_prefix_raises(self, tmp_path):
        a = CampaignManifest.from_specs(grid((6, 8)))
        b = CampaignManifest.from_specs(grid((6, 10)))
        save_manifest(a, tmp_path)
        save_manifest(b, tmp_path)
        with pytest.raises(ValueError):
            resolve_campaign_id(tmp_path, "")  # matches both


class TestLeases:
    def test_claim_release_cycle(self, tmp_path):
        leases = LeaseManager(tmp_path, "c1")
        lease = leases.try_claim("k1")
        assert lease is not None and lease.path.exists()
        assert leases.held_keys() == ["k1"]
        leases.release(lease)
        assert not lease.path.exists()

    def test_contention_is_counted(self, tmp_path):
        first = LeaseManager(tmp_path, "c1")
        second = LeaseManager(tmp_path, "c1")
        assert first.try_claim("k1") is not None
        assert second.try_claim("k1") is None
        assert second.contended == 1
        assert first.reclaimed == second.reclaimed == 0

    def test_stale_lease_is_reclaimed(self, tmp_path):
        dead = LeaseManager(tmp_path, "c1", owner="dead:1:aa")
        lease = dead.try_claim("k1")
        old = time.time() - 1000
        os.utime(lease.path, (old, old))

        alive = LeaseManager(tmp_path, "c1", timeout=1.0)
        taken = alive.try_claim("k1")
        assert taken is not None
        assert alive.reclaimed == 1
        assert json.loads(taken.path.read_text())["owner"] == alive.owner

    def test_heartbeat_keeps_a_lease_fresh(self, tmp_path):
        holder = LeaseManager(tmp_path, "c1")
        lease = holder.try_claim("k1")
        old = time.time() - 1000
        os.utime(lease.path, (old, old))
        assert lease.heartbeat()

        rival = LeaseManager(tmp_path, "c1", timeout=500.0)
        assert rival.try_claim("k1") is None

    def test_sweep_orphans(self, tmp_path):
        leases = LeaseManager(tmp_path, "c1")
        done = leases.try_claim("done-key")
        live = leases.try_claim("live-key")
        leases.sweep_orphans(["done-key"])
        assert not done.path.exists()
        assert live.path.exists()

    def test_default_owner_is_unique_per_call(self):
        assert default_owner() != default_owner()

    def test_campaigns_are_isolated(self, tmp_path):
        a = LeaseManager(tmp_path, "c1")
        b = LeaseManager(tmp_path, "c2")
        assert a.try_claim("k1") is not None
        assert b.try_claim("k1") is not None  # same key, different campaign


class TestWorker:
    def test_single_worker_matches_serial_execution(self, tmp_path):
        specs = grid((6, 8, 10))
        manifest = CampaignManifest.from_specs(specs)
        cache = ResultCache(tmp_path)

        stats = run_worker(manifest, cache)
        assert stats.executed == 3 and stats.failures == 0

        clean = SerialExecutor().run(manifest.specs())
        for outcome in clean:
            assert cache.get(outcome.spec).to_dict() == outcome.run.to_dict()

    def test_completed_campaign_resumes_with_zero_executions(self, tmp_path):
        manifest = CampaignManifest.from_specs(grid())
        cache = ResultCache(tmp_path)
        run_worker(manifest, cache)

        again = run_worker(manifest, cache)
        assert again.executed == 0
        assert again.cache_hits == len(manifest.cells)

    def test_two_inprocess_workers_split_the_grid(self, tmp_path):
        manifest = CampaignManifest.from_specs(grid((6, 8, 10, 12)))
        cache = ResultCache(tmp_path)
        a = run_worker(manifest, cache, owner="a:1:aa", idle_timeout=0.1)
        b = run_worker(manifest, ResultCache(tmp_path), owner="b:2:bb", idle_timeout=0.1)
        assert a.executed == 4 and b.executed == 0
        assert b.cache_hits == 4
        assert status_of(manifest, tmp_path).complete

    def test_failed_cell_is_tried_once_then_the_worker_returns(self, tmp_path):
        """A failed cell leaves the worker's pending set once: no backoff
        on a grid with nothing left, and progress counts it once."""
        specs = grid((6, 8, 10))
        specs[1] = replace(specs[1], max_rounds=5)
        manifest = CampaignManifest.from_specs(specs)
        seen = []
        stats = run_worker(manifest, ResultCache(tmp_path), idle_timeout=1,
                           progress=lambda outcome, done, total: seen.append((done, total)))
        assert (stats.executed, stats.failures, stats.retries) == (3, 1, 0)
        assert seen == [(1, 3), (2, 3), (3, 3)]
        assert status_of(manifest, tmp_path).done == 2

    def test_replica_engine_runs_each_cell_as_execute_does(self, tmp_path):
        """Under a replica engine a campaign cell runs as ``execute`` runs a
        lone spec, so an activation-model cell runs on the default engine
        instead of failing."""
        clean = RunSpec("faster", "ring", {"n": 8}, placement="dispersed", k=3)
        specs = [get_scenario("adversarial-activation").specs[0]]
        specs += [replace(clean, seed=s) for s in range(2)]
        manifest = CampaignManifest.from_specs(specs)
        cache = ResultCache(tmp_path)
        stats = run_worker(manifest, cache, engine="batch-numpy", idle_timeout=1)
        assert (stats.executed, stats.failures) == (3, 0)
        for outcome in execute(specs, engine="batch-numpy").outcomes:
            assert cache.get(outcome.spec).to_dict() == outcome.run.to_dict()

    def test_cell_written_by_a_rival_before_the_claim_is_not_run_again(self, tmp_path):
        """A rival worker can write a cell and release its lease between
        this worker's cache check and its claim; the claim then succeeds,
        and the worker must find the record instead of running the cell."""
        manifest = CampaignManifest.from_specs(grid((6,)))
        rival = ResultCache(tmp_path)

        class RivalWritesDuringTheClaimDelay:
            def delay_claim(self, key):
                (cell,) = [c for c in manifest.cells if c.key == key]
                rival.put(cell.spec, SerialExecutor().run([cell.spec])[0].run)

            def trip(self, point, key):
                pass

        stats = run_worker(manifest, ResultCache(tmp_path),
                           chaos=RivalWritesDuringTheClaimDelay(), idle_timeout=1)
        assert (stats.executed, stats.cache_hits) == (0, 1)
        assert status_of(manifest, tmp_path).claimed == 0

    def test_multiprocess_campaign_completes(self, tmp_path):
        manifest = CampaignManifest.from_specs(grid((6, 8, 10)))
        stats = run_campaign(manifest, tmp_path, workers=2, idle_timeout=2)
        assert status_of(manifest, tmp_path).complete
        assert stats.executed == 3 and stats.failures == 0
        # Manifest was persisted by run_campaign itself.
        assert list_manifests(tmp_path) == [manifest.campaign_id]

    def test_status_counts(self, tmp_path):
        specs = grid((6, 8, 10))
        manifest = CampaignManifest.from_specs(specs)
        cache = ResultCache(tmp_path)
        status = status_of(manifest, tmp_path)
        assert (status.total, status.done, status.pending) == (3, 0, 3)
        assert not status.complete

        run_worker(manifest, cache)
        status = status_of(manifest, tmp_path)
        assert (status.done, status.claimed, status.pending) == (3, 0, 0)
        assert status.complete
        assert "3/3 done" in status.summary()


class TestCampaignCli:
    def create(self, tmp_path, capsys, *extra):
        rc = main(["campaign", "create", "--ns", "6", "8", "--k", "3",
                   "--cache-dir", str(tmp_path), "--quiet", *extra])
        assert rc == 0
        return capsys.readouterr().out.strip()

    def test_create_run_status_resume(self, tmp_path, capsys):
        cid = self.create(tmp_path, capsys)
        assert len(cid) == 64

        rc = main(["campaign", "run", "--campaign", cid[:10],
                   "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2/2 done" in out and "2 executed" in out

        rc = main(["campaign", "status", "--campaign", cid,
                   "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert "2/2 done" in capsys.readouterr().out

        rc = main(["campaign", "resume", "--campaign", cid,
                   "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 executed" in out and "2 cached" in out

    def test_create_is_idempotent(self, tmp_path, capsys):
        assert self.create(tmp_path, capsys) == self.create(tmp_path, capsys)
        assert len(list(campaigns_dir(tmp_path).glob("*.json"))) == 1

    def test_create_without_cache_dir_fails(self):
        with pytest.raises(SystemExit):
            main(["campaign", "create", "--ns", "6"])

    def test_unknown_campaign_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "--campaign", "ffff", "--cache-dir", str(tmp_path)])

    def test_status_lists_all_campaigns(self, tmp_path, capsys):
        self.create(tmp_path, capsys, "--title", "listed")
        rc = main(["campaign", "status", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "listed" in out and "1 campaigns" in out

    def test_scenario_create_rejects_shape_flags(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "create", "--scenario", "clean-sync", "--n", "20",
                  "--cache-dir", str(tmp_path)])

    def test_scenario_campaign_feeds_scenarios_run(self, tmp_path, capsys):
        """A scenario campaign's results are the same cache entries
        ``scenarios run`` wants: running the scenario afterwards is all hits."""
        rc = main(["campaign", "create", "--scenario", "clean-sync",
                   "--cache-dir", str(tmp_path), "--quiet"])
        assert rc == 0
        cid = capsys.readouterr().out.strip()
        assert main(["campaign", "run", "--campaign", cid,
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()

        rc = main(["scenarios", "run", "clean-sync", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 executed" not in out or "cached" in out

    def test_sweep_resume_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--ns", "6", "--resume"])

    def test_sweep_resume_reports_swept_droppings(self, tmp_path, capsys):
        from repro.testing.chaos import plant_stale_tmp

        cache = ResultCache(tmp_path)
        plant_stale_tmp(cache, count=2)
        rc = main(["sweep", "--ns", "6", "--k", "3",
                   "--cache-dir", str(tmp_path), "--resume"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 tmp swept" in out

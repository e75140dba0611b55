"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.sim.batch import HAVE_NUMPY

#: The replica engine the removed ``--batch`` alias used to select.
LEGACY_BATCH_ENGINE = "batch-numpy" if HAVE_NUMPY else "batch-list"


class TestInformational:
    def test_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "ring" in out and "lollipop" in out

    def test_bounds(self, capsys):
        assert main(["bounds", "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "R1(n)" in out and "Faster-Gathering E6" in out

    def test_bounds_with_delta(self, capsys):
        assert main(["bounds", "--n", "10", "--max-degree", "3"]) == 0
        assert "Δ=3" in capsys.readouterr().out

    def test_plan(self, capsys):
        assert main(["plan", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "length T" in out and "certified" in out


class TestRun:
    def test_run_faster_default(self, capsys):
        rc = main(["run", "--family", "ring", "--n", "10", "--k", "6",
                   "--placement", "scatter"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gathered" in out and "regime" in out

    def test_run_undispersed(self, capsys):
        rc = main(["run", "--family", "erdos_renyi", "--n", "9", "--k", "3",
                   "--algorithm", "undispersed", "--placement", "undispersed"])
        assert rc == 0

    def test_run_tz_reports_first_gather(self, capsys):
        rc = main(["run", "--family", "ring", "--n", "8", "--k", "2",
                   "--algorithm", "tz"])
        assert rc == 0
        assert "no detection" in capsys.readouterr().out

    def test_run_with_knowledge(self, capsys):
        rc = main(["run", "--family", "ring", "--n", "10", "--k", "2",
                   "--placement", "pair-distance", "--pair-distance", "2",
                   "--max-degree", "2", "--hop-distance", "2"])
        assert rc == 0

    def test_pair_distance_requires_value(self):
        with pytest.raises(SystemExit):
            main(["run", "--placement", "pair-distance"])


class TestSweep:
    def test_sweep_prints_slope(self, capsys):
        rc = main(["sweep", "--family", "ring", "--algorithm", "undispersed",
                   "--placement", "undispersed", "--k", "3",
                   "--ns", "8", "12"])
        assert rc == 0
        assert "log-log slope" in capsys.readouterr().out


class TestReplicaFlags:
    def test_sweep_replicas_aggregates_rows(self, capsys):
        rc = main(["sweep", "--ns", "8", "12", "--replicas", "3",
                   "--workers", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rounds_mean" in out and "× 3 replicas" in out
        assert "log-log slope" in out

    def test_sweep_batch_routes_through_engine(self, capsys):
        rc = main(["sweep", "--ns", "8", "--replicas", "3",
                   "--engine", LEGACY_BATCH_ENGINE, "--workers", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        # replicas 1.. group and batch; replica 0 keeps its pinned seeds
        assert "(2 batched)" in out and f"engine={LEGACY_BATCH_ENGINE}" in out

    def test_sweep_batched_rows_equal_scalar_rows(self, capsys):
        argv = ["sweep", "--ns", "8", "12", "--replicas", "3"]
        assert main(argv) == 0
        scalar_out = capsys.readouterr().out.splitlines()
        assert main(argv + ["--engine", LEGACY_BATCH_ENGINE]) == 0
        batched_out = capsys.readouterr().out.splitlines()
        # the table is identical; only the (optional) runtime line differs
        table = [l for l in scalar_out if "|" in l or "slope" in l]
        table_b = [l for l in batched_out if "|" in l or "slope" in l]
        assert table == table_b

    def test_scenarios_run_replicas(self, capsys):
        rc = main(["scenarios", "run", "clean-sync", "--replicas", "2",
                   "--engine", LEGACY_BATCH_ENGINE, "--workers", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replica" in out  # the per-row replica column appears

    def test_sweep_scenario_honors_replica_flags(self, capsys):
        rc = main(["sweep", "--scenario", "clean-sync", "--replicas", "2",
                   "--engine", LEGACY_BATCH_ENGINE])
        assert rc == 0
        assert "replica" in capsys.readouterr().out

    def test_sweep_scenario_still_rejects_shape_flags(self):
        with pytest.raises(SystemExit, match="ignored"):
            main(["sweep", "--scenario", "clean-sync", "--k", "5"])


class TestEngineFlag:
    def test_sweep_engine_batch_rows_equal_legacy_batch_rows(self, capsys):
        """``batch-list`` rows equal those of the engine the removed
        ``--batch`` alias selected (numpy bookkeeping when importable)."""
        argv = ["sweep", "--ns", "8", "--replicas", "3", "--workers", "1"]
        assert main(argv + ["--engine", "batch-list"]) == 0
        engine_out = capsys.readouterr().out.splitlines()
        assert main(argv + ["--engine", LEGACY_BATCH_ENGINE]) == 0
        legacy_out = capsys.readouterr().out.splitlines()
        table_e = [l for l in engine_out if "|" in l or "slope" in l]
        table_l = [l for l in legacy_out if "|" in l or "slope" in l]
        assert table_e == table_l
        assert any("(2 batched)" in l for l in engine_out)
        assert any("engine=batch-list" in l for l in engine_out)

    def test_sweep_scalar_engines_match_default(self, capsys):
        def table(lines):
            return [l for l in lines if "|" in l or "slope" in l]

        argv = ["sweep", "--ns", "8", "12", "--workers", "1"]
        assert main(argv) == 0
        default_table = table(capsys.readouterr().out.splitlines())
        for name in ("reference", "incremental", "soa"):
            assert main(argv + ["--engine", name]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert table(lines) == default_table, name
            assert any(f"engine={name}" in l for l in lines), name

    def test_unknown_engine_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--ns", "8", "--engine", "warp-drive"])

    def test_removed_batch_alias_rejected_by_parser(self, capsys):
        for argv in (["sweep", "--ns", "8", "--batch"],
                     ["scenarios", "run", "clean-sync", "--batch"]):
            with pytest.raises(SystemExit):
                main(argv)
            assert "unrecognized arguments: --batch" in capsys.readouterr().err

    def test_scenarios_run_engine_flag(self, capsys):
        rc = main(["scenarios", "run", "clean-sync", "--replicas", "2",
                   "--engine", "batch-list", "--workers", "1"])
        assert rc == 0
        assert "replica" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "bogus"])

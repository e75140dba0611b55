"""Edge cases of the experiment harness and scheduler not covered elsewhere."""

import pytest

from repro.analysis.experiments import run_gathering, verify_uxs_for_graph
from repro.core.undispersed import undispersed_gathering_program
from repro.graphs import generators as gg
from repro.sim.actions import Action
from repro.sim.errors import SimulationTimeout
from repro.sim.robot import RobotSpec
from repro.sim.world import World
from repro.uxs.sequence import UxsPlan
from repro.uxs.verify import UxsCertificationError


class TestUxsVerificationGate:
    def test_rejects_uncovered_graph(self, monkeypatch):
        """The harness must refuse to report results when the plan's
        coverage property is broken (DESIGN.md S1's honesty mechanism)."""
        import repro.analysis.experiments as exps

        bogus = UxsPlan(8, (0, 0, 0), provenance="fixed")  # cannot cover a ring
        monkeypatch.setattr(exps, "practical_plan", lambda n: bogus)
        with pytest.raises(UxsCertificationError):
            verify_uxs_for_graph(gg.ring(8))

    def test_failing_graph_raises_on_every_call(self, monkeypatch):
        import repro.analysis.experiments as exps

        bogus = UxsPlan(8, (0, 0, 0), provenance="fixed")
        monkeypatch.setattr(exps, "practical_plan", lambda n: bogus)
        g = gg.ring(8)
        for _ in range(3):
            with pytest.raises(UxsCertificationError):
                verify_uxs_for_graph(g)

    def test_memo_does_not_answer_for_another_plan(self, monkeypatch):
        """A graph certified with the real plan must be checked again, and
        fail, once ``practical_plan`` hands out a different plan."""
        import repro.analysis.experiments as exps

        g = gg.ring(8)
        verify_uxs_for_graph(g)  # passes, and is remembered
        bogus = UxsPlan(8, (0, 0, 0), provenance="fixed")
        monkeypatch.setattr(exps, "practical_plan", lambda n: bogus)
        with pytest.raises(UxsCertificationError):
            verify_uxs_for_graph(g)

    def test_pass_remembered_until_graph_cache_clear(self, monkeypatch):
        import repro.analysis.experiments as exps
        from repro.runtime import graph_cache

        checks = []
        covers = exps.covers_all_starts

        def spy(graph, offsets):
            checks.append(graph)
            return covers(graph, offsets)

        monkeypatch.setattr(exps, "covers_all_starts", spy)
        g = gg.ring(8)
        verify_uxs_for_graph(g)
        verify_uxs_for_graph(g)
        assert checks == [g]
        graph_cache.clear()
        verify_uxs_for_graph(g)
        assert checks == [g, g]

    def test_skip_for_non_uxs_algorithms(self, monkeypatch):
        import repro.analysis.experiments as exps

        bogus = UxsPlan(8, (0,), provenance="fixed")
        monkeypatch.setattr(exps, "practical_plan", lambda n: bogus)
        # uses_uxs=False: no gate, run proceeds
        rec = run_gathering(
            "undispersed", gg.ring(8), [0, 0], [3, 9],
            lambda: undispersed_gathering_program(), uses_uxs=False,
        )
        assert rec.gathered


class TestWorldOptions:
    def test_max_rounds_passthrough(self):
        def spinner(ctx):
            obs = yield
            while True:
                obs = yield Action.stay()

        w = World(gg.ring(5), [RobotSpec(1, 0, spinner)])
        with pytest.raises(SimulationTimeout):
            w.run(max_rounds=25)

    def test_stop_on_gather_skips_termination(self):
        def spinner(ctx):
            obs = yield
            while True:
                obs = yield Action.stay()

        w = World(gg.ring(5), [RobotSpec(1, 0, spinner), RobotSpec(2, 0, spinner)])
        res = w.run(stop_on_gather=True)
        assert res.metrics.first_gather_round == 0
        assert not res.detected


class TestFollowWhileLeaderSleeps:
    def test_follower_of_sleeper_stays(self):
        woke = {}

        def sleeper(ctx):
            obs = yield
            obs = yield Action.sleep(20)
            yield Action.terminate()

        def follower(ctx):
            obs = yield
            obs = yield Action.follow(2, until_round=10, on_leader_terminate="wake")
            woke["round"] = obs.round
            yield Action.terminate()

        w = World(gg.ring(5), [RobotSpec(2, 0, sleeper), RobotSpec(1, 0, follower)])
        res = w.run()
        assert woke["round"] == 10
        assert res.metrics.moves_by_robot[1] == 0

    def test_fast_forward_respects_follower_until(self):
        """With only a sleeper and a persistent follower, the jump must not
        overshoot the follower's resume round."""
        seen = {}

        def sleeper(ctx):
            obs = yield
            obs = yield Action.sleep(100)
            yield Action.terminate()

        def follower(ctx):
            obs = yield
            obs = yield Action.follow(2, until_round=30, on_leader_terminate="wake")
            seen["resume"] = obs.round
            obs = yield Action.sleep(200)
            yield Action.terminate()

        w = World(gg.ring(5), [RobotSpec(2, 0, sleeper), RobotSpec(1, 0, follower)])
        w.run()
        assert seen["resume"] == 30


class TestCardEdgeCases:
    def test_none_card_keeps_previous(self):
        seen = []

        def publisher(ctx):
            obs = yield
            obs = yield Action.stay(card={"v": 7})
            obs = yield Action.stay()  # card=None: keep
            obs = yield Action.stay()
            yield Action.terminate()

        def reader(ctx):
            obs = yield
            for _ in range(4):
                card = next((c for c in obs.cards if c["id"] == 1), None)
                seen.append(card.get("v") if card else None)
                obs = yield Action.stay()
            yield Action.terminate()

        World(gg.ring(5), [RobotSpec(1, 0, publisher), RobotSpec(2, 0, reader)]).run()
        assert seen == [None, 7, 7, 7]

    def test_card_replaced_not_merged(self):
        seen = {}

        def publisher(ctx):
            obs = yield
            obs = yield Action.stay(card={"a": 1, "b": 2})
            obs = yield Action.stay(card={"a": 9})  # b must vanish
            yield Action.terminate()

        def reader(ctx):
            obs = yield
            obs = yield Action.stay()
            obs = yield Action.stay()
            card = next(c for c in obs.cards if c["id"] == 1)
            seen["keys"] = set(card.keys())
            yield Action.terminate()

        World(gg.ring(5), [RobotSpec(1, 0, publisher), RobotSpec(2, 0, reader)]).run()
        assert seen["keys"] == {"id", "a"}

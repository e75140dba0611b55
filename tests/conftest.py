"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

import pytest

from repro.graphs import generators as gg
from repro.graphs.port_graph import PortGraph
from repro.sim.robot import RobotSpec
from repro.sim.world import World, RunResult

# Shared hypothesis strategies live in the importable package module
# (repro.testing.strategies) so the fuzzer's tests and the property suite
# draw from one vocabulary; re-exported here unchanged for test-local use.
from repro.testing.strategies import (  # noqa: F401
    activation_strategy,
    fault_plan_strategy,
    follower_scripts,
    placements,
    random_port_graph,
    script_strategy,
    scripted_factory,
    scripts,
    step_strategy,
)

#: Multiplier for hypothesis example counts.  1 for ordinary runs; the
#: nightly workflow sets ``REPRO_HYPOTHESIS_SCALE`` (see docs/CI.md) to
#: sweep the property suites much deeper without slowing PR feedback.
HYPOTHESIS_SCALE = max(1, int(os.environ.get("REPRO_HYPOTHESIS_SCALE", "1")))


def scaled_examples(n: int) -> int:
    """``max_examples`` for a property test: ``n`` scaled by the nightly
    multiplier (use inside ``@settings``)."""
    return n * HYPOTHESIS_SCALE


def small_battery() -> List[PortGraph]:
    """A deterministic mixed bag of small graphs used by integration tests."""
    return [
        gg.ring(8),
        gg.path(7),
        gg.grid(3, 3),
        gg.complete(6),
        gg.star(7),
        gg.binary_tree(7),
        gg.lollipop(8),
        gg.erdos_renyi(9, seed=3),
        gg.random_regular(8, 3, seed=5),
        gg.ring(8, numbering="random", seed=11),
        gg.erdos_renyi(9, seed=3, numbering="random"),
    ]


@pytest.fixture(scope="session")
def battery() -> List[PortGraph]:
    return small_battery()


def run_world(
    graph: PortGraph,
    placement: Sequence[int],
    labels: Sequence[int],
    factory,
    knowledge: Optional[Dict] = None,
    strict: bool = True,
    **run_kwargs,
) -> RunResult:
    """Build a world with one shared program factory and run it."""
    specs = [
        RobotSpec(label=l, start=s, factory=factory, knowledge=dict(knowledge or {}))
        for l, s in zip(labels, placement)
    ]
    return World(graph, specs, strict=strict).run(**run_kwargs)

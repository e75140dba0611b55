"""World: a graph + robots, and the result of running them.

This is the user-facing entry point of the simulator::

    from repro.graphs import generators
    from repro.sim import World, RobotSpec
    from repro.core.faster_gathering import faster_gathering_program

    g = generators.ring(12)
    world = World(g, [RobotSpec(label=5, start=0, factory=faster_gathering_program()),
                      RobotSpec(label=9, start=1, factory=faster_gathering_program())])
    result = world.run()
    assert result.gathered and result.detected

``World.run`` resolves a named backend from the engine registry
(:mod:`repro.sim.engines`; the default is the optimized scalar
:class:`~repro.sim.scheduler.Scheduler`), drives it to completion, and
packages a :class:`RunResult`.  Pass ``engine="reference"`` (or any name
from :func:`repro.sim.engines.list_engines`) to pin a specific backend —
results are bit-identical across conforming backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.graphs.port_graph import PortGraph
from repro.graphs.traversal import require_connected
from repro.sim.metrics import RunMetrics
from repro.sim.robot import RobotSpec
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder

__all__ = ["World", "RunResult", "package_result"]

#: Default safety valve.  The deterministic schedules of this library are
#: bounded and computable in advance; the default limit is generous enough
#: for every in-repo experiment and exists only to turn accidental infinite
#: loops into crisp errors.
DEFAULT_MAX_ROUNDS = 500_000_000


@dataclass
class RunResult:
    """Outcome of one simulation run.

    ``gathered`` — all robots ended on a single node.
    ``detected`` — every robot terminated, and each terminated while all
    robots were co-located (the gathering-with-detection contract).
    ``metrics`` — round/move counters (:class:`~repro.sim.metrics.RunMetrics`).
    ``final_node`` — the common final node if gathered, else ``None``.
    ``positions`` — label -> final node.
    ``stats`` — per-robot algorithm statistics (label -> ctx.stats).
    """

    gathered: bool
    detected: bool
    metrics: RunMetrics
    final_node: Optional[int]
    positions: Dict[int, int]
    stats: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        """Shorthand for ``metrics.rounds``."""
        return self.metrics.rounds

    @property
    def total_moves(self) -> int:
        """Shorthand for ``metrics.total_moves``."""
        return self.metrics.total_moves


class World:
    """A configured simulation: connected port graph + robot specs."""

    def __init__(
        self,
        graph: PortGraph,
        robots: List[RobotSpec],
        strict: bool = False,
    ):
        require_connected(graph)
        if not robots:
            raise ValueError("need at least one robot")
        self.graph = graph
        self.robots = list(robots)
        self.strict = strict

    def run(
        self,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        trace: Optional[TraceRecorder] = None,
        stop_on_gather: bool = False,
        replay=None,
        activation=None,
        engine: Optional[str] = None,
    ) -> RunResult:
        """Run to completion (every robot terminated) and collect results.

        ``stop_on_gather=True`` stops at the first all-co-located round
        instead — for baselines without termination (their ``detected`` will
        be ``False``; read ``metrics.first_gather_round``).

        ``replay`` — an optional :class:`repro.sim.replay.ReplayRecorder`
        that snapshots positions after every executed round.

        ``activation`` — an optional :class:`repro.sim.activation.
        ActivationModel` weakening the synchronous discipline; ``None``
        keeps the paper's fully synchronous model.

        ``engine`` — a backend name from :func:`repro.sim.engines.
        list_engines` (``None`` uses the default scalar scheduler).  All
        conforming backends return bit-identical results; a backend asked
        for a feature it lacks raises :class:`repro.sim.engine.
        UnsupportedFeature` before any round executes.  See
        ``docs/ENGINES.md``.
        """
        # Imported here, not at the top: the engine registry imports this
        # module (package_result, DEFAULT_MAX_ROUNDS) to build its adapters.
        from repro.sim.engine import EngineRequest
        from repro.sim.engines import resolve_engine

        engine_cls = resolve_engine(engine)
        backend = engine_cls(
            EngineRequest(
                graph=self.graph,
                robots=self.robots,
                strict=self.strict,
                trace=trace,
                replay=replay,
                activation=activation,
            )
        )
        return backend.run(max_rounds=max_rounds, stop_on_gather=stop_on_gather)


def package_result(sched: Scheduler) -> RunResult:
    """Package a finished scheduler into a :class:`RunResult`.

    Shared by :meth:`World.run`'s engines and the batched replica engine
    (:mod:`repro.sim.batch`), which runs each replica through
    ``Scheduler.run``, so a batched replica's result is assembled by the
    exact code a scalar run uses.  The scheduler must have completed
    (``run`` returned, or a stepwise engine's ``finalize`` called
    ``_finalize``).
    """
    metrics: RunMetrics = sched.metrics
    positions = sched.positions()
    nodes = set(positions.values())
    gathered = len(nodes) == 1
    detected = gathered and metrics.terminations_all_gathered and sched.all_terminated()
    return RunResult(
        gathered=gathered,
        detected=detected,
        metrics=metrics,
        final_node=nodes.pop() if gathered else None,
        positions=positions,
        stats={r.label: dict(r.ctx.stats) for r in sched.robots},
    )

"""Batched replica engine: many seed-replicas over one shared graph.

The probabilistic experiments in this repository are *replica campaigns*:
the same graph and program run under dozens of seeds (different placements,
labels, and program randomness).  This module runs R such replicas over
shared immutable data — one graph and its compiled CSR kernel — and
reports one outcome per replica.

Architecture
------------

Each replica is backed by a real :class:`~repro.sim.scheduler.Scheduler`
(sharing the one graph), so every replica owns exactly the state a scalar
run would own.  :meth:`ReplicaBatch.run` runs the replicas one after
another, each through ``Scheduler.run`` + ``package_result`` — the loop
and packaging ``World.run`` uses — so a replica's result, or its error,
is the scalar run's by construction.  Before that, the
:meth:`ReplicaBatch._vector_phase` hook may install whole end states
computed by array kernels (:class:`~repro.sim.batch2d.Replica2DBatch`);
such a replica's ``Scheduler.run`` then only finalizes it.

Failure isolation matches the runtime layer's: an exception inside one
replica (protocol violation, deadlock, timeout) becomes that replica's
error outcome — message-identical to what the scalar path raises — and
the rest of the batch keeps running.

The engine is deliberately *clean-model only*: no tracing, no replay, no
activation models, no fault plans.  Those regimes are per-replica
divergent by nature; the runtime layer (:mod:`repro.runtime`) only groups
specs into batches when they qualify (see ``RunSpec.is_clean``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.graphs.port_graph import PortGraph
from repro.sim.robot import RobotSpec
from repro.sim.scheduler import Scheduler
from repro.sim.world import DEFAULT_MAX_ROUNDS, RunResult, package_result

__all__ = [
    "ReplicaBatch",
    "ReplicaOutcome",
    "BatchSummary",
    "resolve_backend",
    "make_replica_batch",
    "BACKENDS",
]


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Backend:
    """A backend: its name, which selects the driver class (see
    :func:`make_replica_batch`)."""

    name: str


#: Selectable backends by name; ``"auto"`` resolves to ``"numpy"``.  Every
#: backend runs each replica through ``Scheduler.run``; ``numpy2d`` selects
#: the driver that adds the replica-major kernel front-run.
BACKENDS = {name: _Backend(name) for name in ("list", "numpy", "numpy2d")}


def resolve_backend(name: str) -> _Backend:
    """The backend for ``name`` (``"auto"``/``"numpy2d"``/``"numpy"``/``"list"``).

    ``"auto"`` picks ``"numpy"``: the 2D replica-major driver only pays off
    for fleets that declare a :class:`~repro.sim.vector.VectorProgram`, so
    it stays opt-in.
    """
    try:
        return BACKENDS["numpy" if name == "auto" else name]
    except KeyError:
        known = sorted(BACKENDS) + ["auto"]
        raise ValueError(f"unknown batch backend {name!r}; known: {known}") from None


def make_replica_batch(
    graph: PortGraph,
    fleets: Sequence[Sequence[RobotSpec]],
    strict: bool = False,
    backend: str = "auto",
) -> "ReplicaBatch":
    """Construct the driver ``backend`` selects.

    ``"numpy2d"`` selects the replica-major
    :class:`~repro.sim.batch2d.Replica2DBatch` (imported here: it
    subclasses :class:`ReplicaBatch`); every other name builds a plain
    :class:`ReplicaBatch`.  All drivers are bit-identical on results; the
    name only picks the execution strategy.
    """
    ops = resolve_backend(backend)  # raises on unknown names, resolves auto
    if ops.name == "numpy2d":
        from repro.sim.batch2d import Replica2DBatch

        return Replica2DBatch(graph, fleets, strict=strict)
    return ReplicaBatch(graph, fleets, strict=strict, backend=ops.name)


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


@dataclass
class ReplicaOutcome:
    """What one replica produced: a result, or an isolated failure.

    ``error``/``error_type`` carry the stringified exception exactly as the
    scalar path (``repro.runtime.spec.execute_spec``) would report it, so a
    batched campaign and a scalar campaign fail identically.
    """

    result: Optional[RunResult] = None
    error: Optional[str] = None
    error_type: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True iff this replica produced a result and no error."""
        return self.result is not None and self.error is None


@dataclass
class BatchSummary:
    """Aggregate accounting for one :meth:`ReplicaBatch.run` call."""

    replicas: int = 0
    completed: int = 0
    failed: int = 0
    rounds_executed_total: int = 0
    total_moves: int = 0
    max_rounds: int = 0
    backend: str = "list"


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ReplicaBatch:
    """R seed-replicas of one configuration over one shared graph.

    Parameters
    ----------
    graph:
        The shared (immutable) port graph every replica runs on.
    fleets:
        One list of :class:`RobotSpec` per replica.  Replicas are
        independent — different starts, labels, and program instances —
        but share the graph and its compiled CSR kernel.
    strict:
        Passed through to each replica's scheduler.
    backend:
        A name from :data:`BACKENDS` (or ``"auto"``), reported in the
        summary.  Results are bit-identical across backends.
    """

    def __init__(
        self,
        graph: PortGraph,
        fleets: Sequence[Sequence[RobotSpec]],
        strict: bool = False,
        backend: str = "auto",
    ):
        self.graph = graph
        self.ops = resolve_backend(backend)
        self.scheds: List[Optional[Scheduler]] = []
        self.outcomes: List[Optional[ReplicaOutcome]] = []
        for specs in fleets:
            # Construction (label validation, program priming) can raise per
            # replica; isolate it exactly like the scalar path would.
            try:
                sched = Scheduler(graph, list(specs), strict=strict)
            except Exception as exc:
                self.scheds.append(None)
                self.outcomes.append(
                    ReplicaOutcome(error=str(exc), error_type=type(exc).__name__)
                )
                continue
            self.scheds.append(sched)
            self.outcomes.append(None)
        self.summary = BatchSummary(replicas=len(self.scheds), backend=self.ops.name)

    # ------------------------------------------------------------------
    def run(
        self, max_rounds: int = DEFAULT_MAX_ROUNDS, stop_on_gather: bool = False
    ) -> List[ReplicaOutcome]:
        """Run every replica to completion; outcomes in replica order.

        Each live replica runs through ``Scheduler.run`` + ``package_result``
        — the same ``stop_on_gather`` early exit, the same ``max_rounds``
        timeout (reported as an error outcome instead of a raised
        exception), the same finalized metrics.
        """
        outcomes = self.outcomes
        live = [j for j, outcome in enumerate(outcomes) if outcome is None]
        self._vector_phase(live, max_rounds, stop_on_gather)
        for j in live:
            sched = self.scheds[j]
            try:
                sched.run(max_rounds, stop_on_gather=stop_on_gather)
            except Exception as exc:
                # Isolated failure: the exception the scalar path raises,
                # stringified identically; siblings keep running.
                outcomes[j] = ReplicaOutcome(
                    error=str(exc), error_type=type(exc).__name__
                )
            else:
                outcomes[j] = ReplicaOutcome(result=package_result(sched))
        done = [o.result.metrics for o in outcomes if o.ok]
        self.summary = BatchSummary(
            replicas=len(outcomes),
            completed=len(done),
            failed=len(outcomes) - len(done),
            rounds_executed_total=sum(m.rounds_executed for m in done),
            total_moves=sum(m.total_moves for m in done),
            max_rounds=max((m.rounds for m in done), default=0),
            backend=self.ops.name,
        )
        return list(outcomes)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def _vector_phase(
        self, live: List[int], max_rounds: int, stop_on_gather: bool
    ) -> None:
        """Hook for replica-major execution, run before the replicas'
        ``Scheduler.run`` calls.

        The base engine vectorizes nothing.
        :class:`~repro.sim.batch2d.Replica2DBatch` overrides this to
        install the end states of hot replicas, computed by array kernels.
        """

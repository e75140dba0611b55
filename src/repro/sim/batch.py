"""Batched replica engine: lockstep multi-seed simulation.

The probabilistic experiments in this repository are *replica campaigns*:
the same graph and program run under dozens of seeds (different placements,
labels, and program randomness).  Running each replica through its own
:class:`~repro.sim.world.World` pays the full scheduler overhead R times;
this module runs R replicas **in lockstep** over shared immutable data —
one graph and its compiled CSR kernel — and retires replicas
individually as they terminate.

Architecture
------------

Each replica is backed by a real :class:`~repro.sim.scheduler.Scheduler`
(sharing the one graph), so every replica owns exactly the state a scalar
run would own, and every round runs through that scheduler's own code.
The batch layer adds two things on top:

* **Lockstep turns** — the driver visits the live replicas in order,
  applies ``Scheduler.run``'s gates (terminated, gathered under
  ``stop_on_gather``, past ``max_rounds``) exactly as a scalar run would,
  and advances each replica by one :meth:`Scheduler._step_soa` call
  bounded by :data:`ReplicaBatch.SLICE` rounds.  The turn size is only a
  scheduling knob: replicas are independent, so it cannot change any
  result.
* **R-wide bookkeeping** — per-replica rounds, moves, executed-round and
  error counters, filled when a replica retires and aggregated once.  The
  backend is NumPy when importable and a pure-list implementation
  otherwise; both are integer-exact, so results are bit-identical either
  way (``tests/test_batch_differential.py`` runs both and pins traces,
  positions, statuses and every metric against scalar runs).

Failure isolation matches the runtime layer's: an exception inside one
replica (protocol violation, deadlock, timeout) retires that replica with
an error outcome — message-identical to what the scalar path raises — and
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

try:  # NumPy is a declared dependency, but the engine must not require it:
    import numpy as _np  # the pure-list backend keeps results bit-identical
except ImportError:  # pragma: no cover - exercised via backend="list"
    _np = None

__all__ = [
    "ReplicaBatch",
    "ReplicaOutcome",
    "BatchSummary",
    "HAVE_NUMPY",
    "resolve_backend",
    "make_replica_batch",
    "BACKENDS",
]

HAVE_NUMPY = _np is not None


# ---------------------------------------------------------------------------
# Bookkeeping backends
# ---------------------------------------------------------------------------


class _ListBackend:
    """Pure-Python R-wide integer arrays (always available)."""

    name = "list"

    @staticmethod
    def zeros(n: int):
        return [0] * n

    @staticmethod
    def total(arr) -> int:
        return sum(arr)

    @staticmethod
    def maximum(arr) -> int:
        return max(arr) if arr else 0

    @staticmethod
    def count_nonzero(arr) -> int:
        return sum(1 for v in arr if v)

    @staticmethod
    def tolist(arr) -> List[int]:
        return list(arr)


class _NumpyBackend:
    """R-wide int64 NumPy arrays; aggregation runs vectorized.

    Every operation is integer-exact, so summaries are bit-identical to the
    list backend's — NumPy buys aggregation speed at large R, nothing else.
    """

    name = "numpy"

    @staticmethod
    def zeros(n: int):
        return _np.zeros(n, dtype=_np.int64)

    @staticmethod
    def total(arr) -> int:
        return int(arr.sum())

    @staticmethod
    def maximum(arr) -> int:
        return int(arr.max()) if arr.size else 0

    @staticmethod
    def count_nonzero(arr) -> int:
        return int(_np.count_nonzero(arr))

    @staticmethod
    def tolist(arr) -> List[int]:
        return [int(v) for v in arr]


if HAVE_NUMPY:

    class _Numpy2DBackend(_NumpyBackend):
        """Bookkeeping for the replica-major 2D engine.

        The R-wide bookkeeping ops are exactly :class:`_NumpyBackend`'s —
        what changes under ``backend="numpy2d"`` is the *driver*:
        :func:`make_replica_batch` returns a
        :class:`~repro.sim.batch2d.Replica2DBatch`, which front-runs the
        lockstep loop with whole-replica array kernels (see that module).
        """

        name = "numpy2d"


#: Selectable backends by name; ``"auto"`` prefers NumPy when importable.
BACKENDS = {"list": _ListBackend}
if HAVE_NUMPY:
    BACKENDS["numpy"] = _NumpyBackend
    BACKENDS["numpy2d"] = _Numpy2DBackend


def resolve_backend(name: str):
    """The backend class for ``name`` (``"auto"``/``"numpy2d"``/``"numpy"``/``"list"``).

    ``"auto"`` prefers the plain NumPy bookkeeping backend: the 2D
    replica-major driver only pays off for fleets that declare a
    :class:`~repro.sim.vector.VectorProgram`, so it stays opt-in.
    """
    if name == "auto":
        return BACKENDS["numpy"] if HAVE_NUMPY else BACKENDS["list"]
    try:
        return BACKENDS[name]
    except KeyError:
        known = sorted(BACKENDS) + ["auto"]
        raise ValueError(f"unknown batch backend {name!r}; known: {known}") from None


def make_replica_batch(
    graph: PortGraph,
    fleets: Sequence[Sequence[RobotSpec]],
    strict: bool = False,
    backend: str = "auto",
) -> "ReplicaBatch":
    """Construct the right batch engine for ``backend``.

    ``"numpy2d"`` selects the replica-major
    :class:`~repro.sim.batch2d.Replica2DBatch` (imported lazily — the
    module needs NumPy); every other name builds a plain
    :class:`ReplicaBatch`.  All engines are bit-identical on results; the
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
    """R seed-replicas of one configuration, run in lockstep.

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
        ``"auto"`` (NumPy when importable), ``"numpy"``, or ``"list"`` —
        selects the R-wide bookkeeping backend.  Results are bit-identical
        across backends.
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

    #: Rounds one replica may advance per lockstep turn.  Purely a
    #: scheduling knob — replicas are independent, so the turn size cannot
    #: affect any result.
    SLICE = 64

    # ------------------------------------------------------------------
    def run(
        self, max_rounds: int = DEFAULT_MAX_ROUNDS, stop_on_gather: bool = False
    ) -> List[ReplicaOutcome]:
        """Run every replica to completion; outcomes in replica order.

        Per-replica semantics are those of ``Scheduler.run`` +
        ``package_result``: the same ``stop_on_gather`` early exit, the same
        ``max_rounds`` timeout (reported as an error outcome instead of a
        raised exception), the same finalized metrics.

        Each turn applies ``Scheduler.run``'s gates in its exact order, then
        advances the replica by one ``_step_soa`` call that stops at the
        turn budget, the timeout round, termination or (under
        ``stop_on_gather``) gathering, whichever comes first.
        """
        ops = self.ops
        R = len(self.scheds)
        # R-wide bookkeeping (backend-managed): filled at retirement,
        # aggregated once at the end.
        rounds_arr = ops.zeros(R)
        executed_arr = ops.zeros(R)
        moves_arr = ops.zeros(R)
        error_arr = ops.zeros(R)

        scheds = self.scheds
        outcomes = self.outcomes
        slice_budget = self.SLICE
        timeout_round = max_rounds + 1

        live = [j for j in range(R) if outcomes[j] is None]
        for j in live:
            scheds[j]._stop_on_gather = stop_on_gather
        # Replica-major front-run: subclasses (Replica2DBatch) may retire
        # whole replicas through array kernels before the lockstep loop ever
        # steps a generator.  The base engine keeps every replica.
        live = self._vector_phase(
            live, rounds_arr, executed_arr, moves_arr, error_arr,
            max_rounds, stop_on_gather,
        )
        while live:
            nxt: List[int] = []
            for j in live:
                sched = scheds[j]
                try:
                    # --- Scheduler.run loop gates, in its exact order ----
                    if sched._alive == 0 or (
                        stop_on_gather and sched.metrics.first_gather_round is not None
                    ):
                        self._retire(j, rounds_arr, executed_arr, moves_arr)
                        continue
                    rnd = sched.round
                    if rnd > max_rounds:
                        raise sched._timeout_error()
                    sched._step_soa(min(rnd + slice_budget, timeout_round))
                    nxt.append(j)
                except Exception as exc:
                    # Isolated failure: the same exception the scalar path
                    # would surface, stringified identically; siblings
                    # keep running.
                    error_arr[j] = 1
                    outcomes[j] = ReplicaOutcome(
                        error=str(exc), error_type=type(exc).__name__
                    )
            live = nxt

        failed_init = sum(
            1 for s, o in zip(scheds, outcomes) if s is None and o is not None
        )
        self.summary = BatchSummary(
            replicas=R,
            completed=sum(1 for o in outcomes if o is not None and o.ok),
            failed=ops.count_nonzero(error_arr) + failed_init,
            rounds_executed_total=ops.total(executed_arr),
            total_moves=ops.total(moves_arr),
            max_rounds=ops.maximum(rounds_arr),
            backend=ops.name,
        )
        return list(outcomes)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def _vector_phase(
        self, live, rounds_arr, executed_arr, moves_arr, error_arr,
        max_rounds: int, stop_on_gather: bool,
    ) -> List[int]:
        """Hook for replica-major execution; returns the replicas still live.

        The base engine vectorizes nothing — every replica proceeds to the
        lockstep generator loop.  :class:`~repro.sim.batch2d.Replica2DBatch`
        overrides this to retire hot replicas through array kernels.
        """
        return live

    # ------------------------------------------------------------------
    def _retire(self, j: int, rounds_arr, executed_arr, moves_arr) -> None:
        """Finalize replica ``j`` through the scalar code path and record
        its bookkeeping row."""
        sched = self.scheds[j]
        metrics = sched._finalize()
        self.outcomes[j] = ReplicaOutcome(result=package_result(sched))
        rounds_arr[j] = metrics.rounds
        executed_arr[j] = metrics.rounds_executed
        moves_arr[j] = metrics.total_moves

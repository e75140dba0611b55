"""The engine registry: named backends behind the :class:`Engine` protocol.

Every execution path in the repository registers here under a stable name:

============= ========================================================== =====
name          implementation                                             notes
============= ========================================================== =====
reference     :class:`~repro.sim.reference.ReferenceScheduler`           the executable spec; the conformance oracle
incremental   ``Scheduler`` pinned to the general path (PR-2 regime)     incremental occupancy/card caches, no SoA rounds
soa           :class:`~repro.sim.scheduler.Scheduler` (default)          dual-regime: SoA loop + general fallback
batch-list    :class:`~repro.sim.batch.ReplicaBatch` (list backend)      lockstep replicas, pure-Python bookkeeping
batch-numpy   :class:`~repro.sim.batch.ReplicaBatch` (numpy backend)     lockstep replicas, vectorized bookkeeping
batch-numpy2d :class:`~repro.sim.batch2d.Replica2DBatch`                 replica-major 2D kernels + scalar fallback
============= ========================================================== =====

Call sites name a backend (``World.run(engine="soa")``, ``execute(specs,
engine="batch-numpy")``, ``--engine`` on the CLI) and the factory here
resolves it; :func:`get_engine` raises a ``ValueError`` listing the
registered names for typos.  The ``batch-numpy*`` backends register only
when numpy is importable, so :func:`list_engines` always reflects what can
actually run.

The conformance harness (``tests/test_engine_conformance.py``) runs every
registered backend against the ``reference`` oracle; see ``docs/ENGINES.md``
for the contract and for adding a backend.
"""

from __future__ import annotations

import builtins
from typing import Dict, List, Optional, Type

from repro.sim import errors as _errors
from repro.sim.batch import HAVE_NUMPY, ReplicaOutcome, make_replica_batch
from repro.sim.engine import Engine, EngineCapabilities, EngineRequest
from repro.sim.reference import ReferenceScheduler
from repro.sim.scheduler import Scheduler
from repro.sim.world import DEFAULT_MAX_ROUNDS, package_result

__all__ = [
    "DEFAULT_ENGINE",
    "IncrementalScheduler",
    "get_engine",
    "list_engines",
    "register_engine",
    "unregister_engine",
]

#: The backend ``World.run`` uses when no engine is named — today's default
#: scalar path, so defaults stay bit- and cache-identical to history.
DEFAULT_ENGINE = "soa"

_REGISTRY: Dict[str, Type[Engine]] = {}


def register_engine(cls: Type[Engine], *, replace: bool = False) -> Type[Engine]:
    """Register an :class:`Engine` subclass under ``cls.name``.

    Double registration is rejected (pass ``replace=True`` to swap a
    backend deliberately, e.g. a test double); the name must be a
    non-empty string distinct from the abstract default.
    """
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name or name == "abstract":
        raise ValueError(f"engine class {cls!r} needs a concrete 'name' attribute")
    if not isinstance(getattr(cls, "capabilities", None), EngineCapabilities):
        raise ValueError(f"engine {name!r} needs an EngineCapabilities declaration")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"engine {name!r} is already registered "
            f"(pass replace=True to substitute it)"
        )
    _REGISTRY[name] = cls
    return cls


def unregister_engine(name: str) -> None:
    """Remove ``name`` from the registry (no-op if absent; test hygiene)."""
    _REGISTRY.pop(name, None)


def get_engine(name: str) -> Type[Engine]:
    """The registered engine class for ``name``.

    Unknown names raise a ``ValueError`` listing every registered backend —
    the one place a typo'd ``--engine``/``engine=`` surfaces.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; registered engines: {list_engines()}"
        ) from None


def list_engines() -> List[str]:
    """Registered backend names, sorted (stable across calls)."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Scheduler-backed backends (scalar paths)
# ---------------------------------------------------------------------------


class IncrementalScheduler(Scheduler):
    """``Scheduler`` pinned to the incremental general path (PR-2 regime).

    ``_uses_soa = False`` makes the :class:`~repro.sim.robot.RobotState`
    facades authoritative from construction and sends every round through
    ``_step`` onto the general path, never into the SoA loop.  Semantics
    are those of the full scheduler — this class only forecloses the fast
    regime.
    """

    _uses_soa = False


class _SchedulerEngine(Engine):
    """Adapter: one :class:`Scheduler` (sub)class as an :class:`Engine`.

    ``run`` delegates to ``Scheduler.run`` verbatim — same loop, same
    ``stop_on_gather`` early exit, same timeout — so adapter dispatch can
    never perturb results.
    """

    scheduler_cls: type = Scheduler

    def __init__(self, request: EngineRequest):
        super().__init__(request)
        self._sched = type(self).scheduler_cls(
            request.graph,
            list(request.robots),
            trace=request.trace,
            strict=request.strict,
            replay=request.replay,
            activation=request.activation,
        )

    @property
    def done(self) -> bool:
        return self._sched.all_terminated()

    @property
    def rounds(self) -> int:
        return self._sched.round

    def step(self) -> None:
        self._sched._step()

    def sync_state(self) -> None:
        if self._sched._soa:
            self._sched._sync_states()

    def positions(self) -> Dict[int, int]:
        return self._sched.positions()

    def finalize(self):
        self._sched._finalize()
        return package_result(self._sched)

    def run(self, max_rounds: int, stop_on_gather: bool = False):
        self._sched.run(max_rounds=max_rounds, stop_on_gather=stop_on_gather)
        return package_result(self._sched)


@register_engine
class ReferenceEngine(_SchedulerEngine):
    """The seed scheduler, verbatim — the oracle every backend must match.

    No activation support: the seed predates activation models and must not
    be improved (tests needing activation on the reference path use an
    explicit shim, never a silent ignore).
    """

    name = "reference"
    capabilities = EngineCapabilities(
        supports_tracing=True, supports_replay=True
    )
    scheduler_cls = ReferenceScheduler


@register_engine
class IncrementalEngine(_SchedulerEngine):
    """The incremental general path (PR-2), pinned for every round."""

    name = "incremental"
    capabilities = EngineCapabilities(
        supports_activation=True, supports_tracing=True, supports_replay=True
    )
    scheduler_cls = IncrementalScheduler


@register_engine
class SoAEngine(_SchedulerEngine):
    """The default dual-regime scheduler (SoA loop + general fallback)."""

    name = "soa"
    capabilities = EngineCapabilities(
        supports_activation=True, supports_tracing=True, supports_replay=True
    )
    scheduler_cls = Scheduler


# ---------------------------------------------------------------------------
# Replica-batch backends
# ---------------------------------------------------------------------------


def _rebuild_error(outcome: ReplicaOutcome) -> Exception:
    """Reconstruct a replica's isolated failure as a raisable exception.

    :class:`~repro.sim.batch.ReplicaBatch` stores failures as
    ``(str(exc), type(exc).__name__)`` — exactly what the scalar runtime
    records.  Single-run engine semantics require *raising*; rebuilding by
    type name + message keeps ``str``/``type`` identical to the scalar
    path without re-running failed constructors.
    """
    exc_type = getattr(_errors, outcome.error_type or "", None)
    if exc_type is None:
        exc_type = getattr(builtins, outcome.error_type or "", None)
    if not (isinstance(exc_type, type) and issubclass(exc_type, BaseException)):
        exc_type = _errors.SimulationError
    exc = exc_type.__new__(exc_type)
    Exception.__init__(exc, outcome.error or "")
    return exc


class _BatchEngine(Engine):
    """Adapter: :class:`ReplicaBatch` as a (coarse-stepped) single-run engine.

    The replica engine's unit of progress is a lockstep turn of many
    rounds, so :meth:`step` runs the request to completion on first call
    (the protocol allows steps of more than one round).  Multi-replica use
    goes through the runtime (``execute(engine="batch-...")`` groups
    seed-replicas); here one fleet of size R=1 runs with scalar-identical
    results.
    """

    batch_backend: str = "list"

    def __init__(self, request: EngineRequest):
        super().__init__(request)
        self._batch = make_replica_batch(
            request.graph,
            [list(request.robots)],
            strict=request.strict,
            backend=type(self).batch_backend,
        )
        self._result = None

    @property
    def done(self) -> bool:
        return self._result is not None

    @property
    def rounds(self) -> int:
        if self._result is not None:
            return self._result.metrics.rounds
        return 0

    def step(self) -> None:
        # The replica engine's smallest externally observable unit of
        # progress is the whole run (replicas retire inside lockstep
        # turns), so one "step" drives it to completion under the default
        # budget.
        if self._result is None:
            self.run(DEFAULT_MAX_ROUNDS)

    def sync_state(self) -> None:
        return None

    def positions(self) -> Dict[int, int]:
        if self._result is None:
            return {r.label: r.start for r in self.request.robots}
        return dict(self._result.positions)

    def finalize(self):
        if self._result is None:
            raise RuntimeError("finalize() before run() on a batch engine")
        return self._result

    def run(self, max_rounds: int, stop_on_gather: bool = False):
        outcome = self._batch.run(
            max_rounds=max_rounds, stop_on_gather=stop_on_gather
        )[0]
        if not outcome.ok:
            raise _rebuild_error(outcome)
        self._result = outcome.result
        return self._result


@register_engine
class BatchListEngine(_BatchEngine):
    """Lockstep replica engine, pure-Python bookkeeping (always available)."""

    name = "batch-list"
    capabilities = EngineCapabilities(supports_batch=True)
    batch_backend = "list"


if HAVE_NUMPY:

    @register_engine
    class BatchNumpyEngine(_BatchEngine):
        """Lockstep replica engine, numpy bookkeeping (bit-identical to list)."""

        name = "batch-numpy"
        capabilities = EngineCapabilities(supports_batch=True)
        batch_backend = "numpy"

    @register_engine
    class BatchNumpy2DEngine(_BatchEngine):
        """Replica-major 2D engine: array kernels for hot replicas, the
        lockstep scalar drive for everything else (bit-identical either
        way; see :mod:`repro.sim.batch2d`)."""

        name = "batch-numpy2d"
        capabilities = EngineCapabilities(supports_batch=True)
        batch_backend = "numpy2d"


def resolve_engine(name: Optional[str]) -> Type[Engine]:
    """The engine class for ``name``, defaulting to :data:`DEFAULT_ENGINE`."""
    return get_engine(name if name is not None else DEFAULT_ENGINE)

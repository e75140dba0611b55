"""The engine registry: named backends behind the :class:`Engine` protocol.

Every execution path in the repository registers here under a stable name:

============= ================================================================== =====
name          implementation                                                     notes
============= ================================================================== =====
reference     :class:`~repro.sim.reference.ReferenceScheduler`                   the executable spec; the conformance oracle
incremental   ``Scheduler`` pinned to per-round stepping                         one SoA frame per round
soa           :class:`~repro.sim.scheduler.Scheduler` (default)                  SoA loop, one frame per run
batch-list    ``Scheduler``; batches: :class:`~repro.sim.batch.ReplicaBatch`     replica by replica through ``Scheduler.run``
batch-numpy   ``Scheduler``; batches: :class:`~repro.sim.batch.ReplicaBatch`     the same, under the ``numpy`` backend name
batch-numpy2d ``Scheduler``; batches: :class:`~repro.sim.batch2d.Replica2DBatch` 2D kernels for hot replicas, then ``Scheduler.run``
============= ================================================================== =====

Call sites name a backend (``World.run(engine="soa")``, ``execute(specs,
engine="batch-numpy")``, ``--engine`` on the CLI) and the factory here
resolves it; :func:`get_engine` raises a ``ValueError`` listing the
registered names for typos.  A ``batch-*`` engine's single run is an
ordinary scheduler run; its name matters to the runtime, which groups
differ-only-by-seed specs into replica batches on its ``batch_backend``.
Every registered engine steps one round (or one fast-forward jump) per
``step()``.

The conformance harness (``tests/test_engine_conformance.py``) runs every
registered backend against the ``reference`` oracle; see ``docs/ENGINES.md``
for the contract and for adding a backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.sim.engine import Engine, EngineCapabilities, EngineRequest
from repro.sim.reference import ReferenceScheduler
from repro.sim.scheduler import Scheduler
from repro.sim.world import package_result

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
    """``Scheduler`` pinned to per-round stepping (``_step_general``).

    ``_uses_soa = False`` sends every round through ``_step``, which runs
    one SoA frame per round or jump instead of one per run.  Semantics
    are those of the full scheduler.  The name is older than this pin;
    the backend stays registered because its conformance ids check,
    against the seed, that a frame hands the run over intact at every
    round.
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
    """The scheduler, one SoA frame per round (see
    :class:`IncrementalScheduler`)."""

    name = "incremental"
    capabilities = EngineCapabilities(
        supports_activation=True, supports_tracing=True, supports_replay=True
    )
    scheduler_cls = IncrementalScheduler


@register_engine
class SoAEngine(_SchedulerEngine):
    """The default scheduler: the SoA loop, one frame per run, traced and
    activation-model runs included."""

    name = "soa"
    capabilities = EngineCapabilities(
        supports_activation=True, supports_tracing=True, supports_replay=True
    )
    scheduler_cls = Scheduler


# ---------------------------------------------------------------------------
# Replica-batch backends
# ---------------------------------------------------------------------------


@register_engine
class BatchListEngine(_SchedulerEngine):
    """Replica batches on the ``list`` backend; a single run is an
    ordinary scheduler run."""

    name = "batch-list"
    capabilities = EngineCapabilities(supports_batch=True)
    batch_backend = "list"


@register_engine
class BatchNumpyEngine(_SchedulerEngine):
    """Replica batches on the ``numpy`` backend; a single run is an
    ordinary scheduler run."""

    name = "batch-numpy"
    capabilities = EngineCapabilities(supports_batch=True)
    batch_backend = "numpy"


@register_engine
class BatchNumpy2DEngine(_SchedulerEngine):
    """Replica batches with the replica-major 2D kernel front-run (see
    :mod:`repro.sim.batch2d`); a single run is an ordinary scheduler run."""

    name = "batch-numpy2d"
    capabilities = EngineCapabilities(supports_batch=True)
    batch_backend = "numpy2d"


def resolve_engine(name: Optional[str]) -> Type[Engine]:
    """The engine class for ``name``, defaulting to :data:`DEFAULT_ENGINE`."""
    return get_engine(name if name is not None else DEFAULT_ENGINE)

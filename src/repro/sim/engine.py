"""The engine protocol: one simulation contract, N interchangeable backends.

Four execution paths grew up in this repository — the seed
:class:`~repro.sim.reference.ReferenceScheduler` (the executable spec), the
incremental general path, the struct-of-arrays hot loop (both inside
:class:`~repro.sim.scheduler.Scheduler`), and the lockstep replica engine
(:class:`~repro.sim.batch.ReplicaBatch`).  This module defines the contract
they all satisfy, so call sites select a backend by *name* instead of
hard-coding a class:

* :class:`EngineRequest` — everything one run needs: the graph, the robot
  fleet, and the optional instrumentation (trace / replay / activation).
* :class:`EngineCapabilities` — what a backend honestly supports.  A
  request asking for a feature the backend lacks raises a typed
  :class:`UnsupportedFeature` at construction time — never a silent
  fallback, never silently ignored instrumentation.
* :class:`Engine` — construct from a request, then either drive it
  coarsely (:meth:`Engine.run`) or round-by-round (:meth:`Engine.step` /
  :meth:`Engine.sync_state` / :meth:`Engine.finalize`).

Backends register by name in :mod:`repro.sim.engines`; the conformance
harness (``tests/test_engine_conformance.py``) runs every registered
backend against the reference oracle and asserts the capability flags are
honest.  See ``docs/ENGINES.md`` for the full contract and how to add a
backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Dict, Sequence

from repro.sim.errors import SimulationError
from repro.sim.robot import RobotSpec

if TYPE_CHECKING:  # pragma: no cover — annotation-only; avoids an import cycle
    from repro.sim.world import RunResult

__all__ = [
    "Engine",
    "EngineCapabilities",
    "EngineRequest",
    "UnsupportedFeature",
]


class UnsupportedFeature(SimulationError):
    """A request asked an engine for a feature it does not implement.

    Raised at engine *construction*, so an unsupported combination fails
    loudly before a single round executes — a backend silently ignoring a
    trace recorder or an activation model would report results for an
    experiment that never ran.
    """

    def __init__(self, engine: str, feature: str):
        super().__init__(
            f"engine {engine!r} does not support {feature} "
            f"(see repro.sim.engines.list_engines() and docs/ENGINES.md)"
        )
        self.engine = engine
        self.feature = feature


@dataclass(frozen=True)
class EngineCapabilities:
    """Honest feature flags for one backend.

    ``supports_batch`` — the backend can run many seed-replicas in lockstep
    (the runtime routes ``group_into_batches`` output through it).
    ``supports_activation`` — non-synchronous activation models.
    ``supports_tracing`` — event tracing (:class:`~repro.sim.trace.
    TraceRecorder`).
    ``supports_replay`` — per-round position snapshots
    (:class:`~repro.sim.replay.ReplayRecorder`).
    """

    supports_batch: bool = False
    supports_activation: bool = False
    supports_tracing: bool = False
    supports_replay: bool = False


@dataclass
class EngineRequest:
    """One simulation, fully described: what every backend consumes.

    The fields mirror ``World.run``'s surface — the graph and fleet come
    from the :class:`~repro.sim.world.World`, the rest are per-run options.
    Validation (connectivity, label uniqueness) stays in ``World`` /
    ``Scheduler``; the request is a plain carrier.
    """

    graph: Any
    robots: Sequence[RobotSpec]
    strict: bool = False
    trace: Any = None
    replay: Any = None
    activation: Any = None


class Engine(ABC):
    """One simulation backend driving an :class:`EngineRequest`.

    Subclasses declare a unique :attr:`name` and honest
    :attr:`capabilities`, and implement the stepwise protocol.  The
    constructor enforces capabilities against the request; backends never
    see instrumentation they did not claim.

    The stepwise protocol: :meth:`step` advances the simulation by at least
    one round (a backend may advance further — the replica engine runs
    the whole request), :attr:`done` reports completion, :meth:`sync_state`
    makes label-level queries (:meth:`positions`) current mid-run, and
    :meth:`finalize` packages the finished run.  :meth:`run` drives the
    whole thing and is what ``World.run`` calls.
    """

    #: Registry key; unique across registered backends.
    name: ClassVar[str] = "abstract"
    capabilities: ClassVar[EngineCapabilities] = EngineCapabilities()

    def __init__(self, request: EngineRequest):
        caps = type(self).capabilities
        if request.trace is not None and not caps.supports_tracing:
            raise UnsupportedFeature(type(self).name, "event tracing (trace=...)")
        if request.replay is not None and not caps.supports_replay:
            raise UnsupportedFeature(type(self).name, "replay recording (replay=...)")
        if request.activation is not None and not caps.supports_activation:
            raise UnsupportedFeature(
                type(self).name, "activation models (activation=...)"
            )
        self.request = request

    # -- stepwise protocol ---------------------------------------------
    @property
    @abstractmethod
    def done(self) -> bool:
        """Every robot terminated (the run can be finalized)."""

    @property
    @abstractmethod
    def rounds(self) -> int:
        """Simulated rounds elapsed so far."""

    @abstractmethod
    def step(self) -> None:
        """Advance the simulation by at least one round."""

    @abstractmethod
    def sync_state(self) -> None:
        """Make label-level state current (cheap when already current).

        Backends with internal array state flush it to their queryable
        form; afterwards :meth:`positions` reflects the last executed
        round.
        """

    @abstractmethod
    def positions(self) -> Dict[int, int]:
        """label -> node for every robot; call :meth:`sync_state` first
        when stepping manually."""

    @abstractmethod
    def finalize(self) -> "RunResult":
        """Package the completed run (see :func:`repro.sim.world.
        package_result`); call once, after :attr:`done` (or a
        ``stop_on_gather`` early exit)."""

    # -- coarse driver --------------------------------------------------
    @abstractmethod
    def run(self, max_rounds: int, stop_on_gather: bool = False) -> "RunResult":
        """Drive the request to completion and return its result.

        Semantics are those of ``Scheduler.run`` + ``package_result``: the
        same ``stop_on_gather`` early exit, the same
        :class:`~repro.sim.errors.SimulationTimeout` past ``max_rounds``,
        bit-identical results across conforming backends.
        """

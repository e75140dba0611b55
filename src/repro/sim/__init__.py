"""Synchronous mobile-robot simulator (Face-to-Face model).

Implements the execution model of the paper's Section 1.1:

* time proceeds in synchronous rounds;
* in each round every robot (i) reads the *cards* — public state — of all
  robots co-located on its node, computes, and (ii) optionally moves through
  a port to an adjacent node;
* robots on the same node in the same round can communicate (here: via the
  cards they publish); robots crossing the same edge in opposite directions
  do **not** meet;
* after a move a robot knows both port numbers of the traversed edge (its
  chosen exit port and the observed entry port).

Robot algorithms are Python generators: they ``yield`` an
:class:`~repro.sim.actions.Action` every round and receive the next round's
:class:`~repro.sim.actions.Observation`.  The scheduler supports *idle
fast-forwarding*: when every robot is asleep (the algorithms of this paper
spend most of their padded schedules waiting), simulated time jumps to the
next wake-up, so `Õ(n^5)`-round schedules cost wall-clock proportional to
actual movement only.

The robot-facing API deliberately hides node identities: an observation
exposes only the current node's degree, the entry port of the last move, and
co-located cards — exactly the information the model grants.

Execution backends live behind the engine protocol (:mod:`repro.sim.engine`)
and register by name in :mod:`repro.sim.engines`; ``World.run(engine=...)``
selects one, and all conforming backends return bit-identical results (see
docs/ENGINES.md).
"""

from repro.sim.actions import Action, Observation
from repro.sim.activation import (
    ActivationModel,
    AdversarialActivation,
    RoundRobinActivation,
    SynchronousActivation,
    build_activation,
)
from repro.sim.engine import (
    Engine,
    EngineCapabilities,
    EngineRequest,
    UnsupportedFeature,
)
from repro.sim.engines import DEFAULT_ENGINE, get_engine, list_engines
from repro.sim.robot import RobotContext, RobotSpec
from repro.sim.world import World, RunResult
from repro.sim.errors import (
    SimulationError,
    SimulationTimeout,
    SimulationDeadlock,
    ProtocolViolation,
)
from repro.sim.trace import TraceRecorder, Event

__all__ = [
    "Action",
    "Observation",
    "ActivationModel",
    "SynchronousActivation",
    "RoundRobinActivation",
    "AdversarialActivation",
    "build_activation",
    "Engine",
    "EngineCapabilities",
    "EngineRequest",
    "UnsupportedFeature",
    "DEFAULT_ENGINE",
    "get_engine",
    "list_engines",
    "RobotContext",
    "RobotSpec",
    "World",
    "RunResult",
    "SimulationError",
    "SimulationTimeout",
    "SimulationDeadlock",
    "ProtocolViolation",
    "TraceRecorder",
    "Event",
]

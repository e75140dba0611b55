"""Robot programs and per-robot simulator state.

A robot *program* is a generator function::

    def program(ctx: RobotContext):
        obs = yield                      # bootstrap: receive round-0 observation
        while ...:
            obs = yield Action.move(0)   # act, receive next observation

The first statement must be a bare ``yield`` (the scheduler primes the
generator before round 0).  Afterwards, every ``yield action`` receives the
observation of the round in which the robot next acts — the following round
for ordinary actions, the wake round for sleeps and persistent follows.

A program may also yield a declared walk (``Action.walk(offsets)``, see
:mod:`repro.sim.actions`): the engine then moves the robot without
resuming the program, which receives the observation of the hand-back
activation and continues the walk by yielding the same object again::

    walk = Action.walk(offsets)
    while walk.steps < len(offsets):
        obs = yield walk                 # cards changed, or the walk ended

``walk.steps`` is the one action field the engine writes.  An engine that
does not run walks natively (the seed scheduler) runs every program
through :func:`expand_walks`, which turns each walk back into per-round
moves.

Programs interact with the world *only* through observations and actions;
:class:`RobotContext` carries the static knowledge the model grants (the
robot's label and ``n``) plus any explicitly granted extras (e.g. the
maximum degree for the Remark-14 ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional

from repro.sim.actions import WALK, Action, Observation
from repro.sim.errors import ProtocolViolation

__all__ = ["RobotContext", "RobotSpec", "Program", "ProgramFactory", "expand_walks"]

Program = Generator[Optional[Action], Observation, None]
ProgramFactory = Callable[["RobotContext"], Program]


@dataclass
class RobotContext:
    """Static, model-sanctioned knowledge of one robot.

    Attributes
    ----------
    label:
        The robot's unique ID in ``[1, n^b]`` (the paper's label ``ℓ``).
    n:
        Number of nodes of the graph — the only graph parameter robots know.
    knowledge:
        Explicitly granted extra knowledge for ablations; keys used by the
        library: ``"max_degree"`` (Remark 14), ``"hop_distance"``
        (Remark 13).  Absent keys mean "unknown", as in the base model.
    stats:
        A scratch dict the program may fill with algorithm-specific metrics
        (map sizes, phase boundaries, ...).  Collected into the run result.
    """

    label: int
    n: int
    knowledge: Dict[str, Any] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)


@dataclass
class RobotSpec:
    """What the experimenter provides per robot: label, start node, program."""

    label: int
    start: int
    factory: ProgramFactory
    knowledge: Dict[str, Any] = field(default_factory=dict)


def expand_walks(program: Program, label: int) -> Program:
    """``program`` with every walk it yields expanded into per-round moves.

    The expansion follows the hand-back rule of :mod:`repro.sim.actions`:
    each activation takes one step and the program resumes at the first
    activation whose cards differ from those it saw when it yielded the
    walk, or at the activation after the last step, with ``walk.steps``
    advanced.  Every other action passes through unchanged, and closing
    the expander closes ``program``.  ``label`` prefixes the errors, as
    the scheduler's own do.
    """
    send = program.send
    try:
        obs = yield next(program)
        while True:
            try:
                action = send(obs)
            except StopIteration:
                return
            if getattr(action, "kind", None) != WALK:
                obs = yield action
                continue
            offsets = action.offsets
            s = action.steps
            if s >= len(offsets):
                raise ProtocolViolation(f"robot {label}: walk already complete")
            cards = obs.cards
            while True:
                e = obs.entry_port if s else 0
                obs = yield Action.move((e + offsets[s]) % obs.degree)
                s += 1
                if s == len(offsets) or obs.cards != cards:
                    break
            action.steps = s
    finally:
        program.close()


# Robot status constants used by the scheduler.
ACTIVE = 0
SLEEPING = 1
FOLLOWING = 2
TERMINATED = 3

STATUS_NAMES = {ACTIVE: "active", SLEEPING: "sleeping", FOLLOWING: "following", TERMINATED: "terminated"}


class RobotState:
    """Scheduler-side mutable state of one robot (not robot-visible).

    In :class:`~repro.sim.scheduler.Scheduler` the hot fields — ``node``,
    ``entry_port``, ``moves``, ``active_rounds`` — live in the scheduler's
    flat arrays, and these attributes are synchronized only at run
    boundaries and on an engine's ``sync_state``.  Mid-run introspection
    goes through ``Scheduler.positions()``; after ``run()`` returns (and
    throughout the seed :class:`~repro.sim.reference.ReferenceScheduler`)
    the attributes are authoritative.  Cold fields (``status``,
    ``wake_round``, ``card``, follow bookkeeping) are authoritative at all
    times.
    """

    __slots__ = (
        "rid",
        "label",
        "ctx",
        "gen",
        "send",
        "node",
        "entry_port",
        "card",
        "status",
        "wake_round",
        "wake_on_meet",
        "woken_early",
        "leader_label",
        "on_leader_terminate",
        "moves",
        "active_rounds",
        "terminated_round",
    )

    def __init__(self, rid: int, spec: RobotSpec, n: int):
        self.rid = rid
        self.label = spec.label
        self.ctx = RobotContext(label=spec.label, n=n, knowledge=dict(spec.knowledge))
        self.gen = spec.factory(self.ctx)
        # bound once: the scheduler activates programs every round, and the
        # pre-bound method skips a per-activation attribute lookup
        self.send = self.gen.send
        self.node = spec.start
        self.entry_port: Optional[int] = None
        self.card: Dict[str, Any] = {"id": spec.label}
        self.status = ACTIVE
        self.wake_round: Optional[int] = None
        self.wake_on_meet = False
        self.woken_early = False
        self.leader_label: Optional[int] = None
        self.on_leader_terminate = "terminate"
        self.moves = 0
        self.active_rounds = 0
        self.terminated_round: Optional[int] = None

    def __repr__(self) -> str:
        return (
            f"RobotState(label={self.label}, node={self.node}, "
            f"status={STATUS_NAMES[self.status]})"
        )

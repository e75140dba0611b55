"""Crash-fault injection (the paper's §1.4 "alternative settings").

:func:`crash_at` wraps a program factory so the robot dies (terminates in
place, permanently inert but physically present) at a chosen round.  This
is the standard crash-fault model for mobile robots: the carcass occupies
its node and remains visible to co-located robots — which is precisely what
poisons detection, since a dead waiter looks identical to a live one whose
schedule says "wait".

Gathering *with detection* is unachievable in general under crash faults
with this algorithm family (the paper cites fault-tolerant gathering as a
separate line of work); the wrapper exists so experiments and tests can
quantify the failure modes:

* a crashed **waiter** is never collected → the survivors still terminate
  on schedule, mis-detecting (the run's ``detected`` is False);
* a crashed **finder** strands its helpers mid-phase;
* crashes *after* gathering are harmless.
"""

from __future__ import annotations

from repro.sim.actions import Action
from repro.sim.robot import ProgramFactory, RobotContext, expand_walks

__all__ = ["crash_at"]


def crash_at(factory: ProgramFactory, round_: int) -> ProgramFactory:
    """Wrap ``factory`` so the robot crashes at round ``round_``.

    The inner program runs normally until the first time the robot is
    active at or after ``round_``; it then terminates in place, regardless
    of what the inner program wanted to do.  (A sleeping robot crashes at
    its next activation — modelling a fail-stop that nobody can observe
    until they would have interacted with it anyway.)  The inner program
    runs through :func:`~repro.sim.robot.expand_walks`, so a crash due
    mid-walk still fires at its round instead of after the walk.
    """
    if round_ < 0:
        raise ValueError("crash round must be >= 0")

    def wrapped(ctx: RobotContext):
        inner = expand_walks(factory(ctx), ctx.label)

        def program():
            obs = yield
            first = next(inner)
            if first is not None:  # pragma: no cover - inner must be a program
                raise RuntimeError("inner program must start with a bare yield")
            while True:
                if obs.round >= round_:
                    ctx.stats["crashed_at"] = obs.round
                    yield Action.terminate()
                    return
                action = inner.send(obs)
                obs = yield action

        return program()

    return wrapped

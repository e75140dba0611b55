"""Gathering with detection via universal exploration sequences (§2.1).

Every robot reads its ID bits LSB→MSB, one bit per *phase* of ``2T`` rounds
(``T`` = the UXS plan length all robots derive from ``n``):

* bit ``1`` — explore with the UXS for ``T`` rounds, then wait ``T``;
* bit ``0`` — wait ``T``, then explore ``T``;
* bits exhausted — wait the full ``2T``; if **nobody shows up** during that
  phase, gathering is complete (Lemmas 1–2) and the robot terminates;
  otherwise the arrival is a still-working group whose leader has a longer
  (hence larger) ID — follow it.

Whenever two *free* robots are co-located, the lower-labeled one starts
following the higher one ("implements choices according to the ID bits of
the higher ID robot") and terminates when it does (Lemma 4; the scheduler's
terminate-cascade implements the "subsequently terminate" step).

The correctness of the silent-wait termination rests on the UXS property
that a ``T``-round exploration from any start visits every node: a robot
still working during another's full-``2T`` wait must run one exploration
half and therefore finds the waiter.  The harness re-verifies this coverage
property on every experiment graph (see :mod:`repro.uxs`).
"""

from __future__ import annotations

from typing import Optional

from repro.core import bounds
from repro.core.proglets import highest_free_label, wait_for_merge
from repro.sim.actions import Action, Observation
from repro.sim.robot import RobotContext
from repro.uxs.generators import practical_plan
from repro.uxs.sequence import UxsPlan

__all__ = ["uxs_phase", "uxs_explore", "uxs_gathering_program"]


def uxs_explore(obs: Observation, offsets, my_label: int):
    """Walk the full exploration sequence (one move per round).

    Yields one declared walk (:meth:`Action.walk`): step ``s`` leaves
    through ``(e + offsets[s]) mod degree``, starting from the virtual
    entry port 0 of the certification walks in :mod:`repro.uxs.verify`.
    The engine hands control back only when the co-located cards change
    or the walk ends, and the merge rule reads nothing but the cards, so
    checking it at each hand-back is checking it after every move: the
    caller has already judged the cards seen at the first declaration.
    Returns ``(obs, leader)`` early when a higher free robot is found,
    ``(obs, None)`` after the last symbol.
    """
    walk = Action.walk(offsets)
    while walk.steps < len(offsets):
        obs = yield walk
        leader = highest_free_label(obs.cards, exclude=my_label)
        if leader is not None and leader > my_label:
            return obs, leader
    return obs, None


def uxs_phase(
    ctx: RobotContext,
    obs: Observation,
    phase_start: int,
    plan: Optional[UxsPlan] = None,
    detect: bool = True,
):
    """The embedded UXS-gathering endgame.  Terminates internally.

    With ``detect=True`` (the paper's algorithm) a free robot terminates at
    the end of its silent post-bits ``2T`` wait.  With ``detect=False`` (the
    Ta-Shma–Zwick-style *gathering only* baseline) free robots run the full
    budgeted schedule and terminate at its end regardless — the harness then
    reads off the first-gathered round.
    """
    n = ctx.n
    label = ctx.label
    if plan is None:
        plan = practical_plan(n)
    t = plan.T
    if t == 0:  # n == 1: everyone is trivially gathered
        yield Action.terminate()
        return
    bits = bounds.id_bits_lsb_first(label)
    budget = bounds.schedule_bits(n)
    if len(bits) > budget:
        raise ValueError(
            f"label {label} has {len(bits)} bits, over the schedule budget "
            f"{budget} for n={n} (labels must lie in [1, n^b], b < a)"
        )
    schedule_end = phase_start + 1 + (budget + 1) * 2 * t

    assert obs.round == phase_start, (obs.round, phase_start)
    card = {"following": None, "alg": "uxs"}
    obs = yield Action.stay(card=card)

    def follow_forever(leader: int):
        return Action.follow(
            leader,
            until_round=None,
            on_leader_terminate="terminate",
            card={"following": leader, "alg": "uxs"},
        )

    # Robots sharing a node from the start form a group behind the largest.
    leader = highest_free_label(obs.cards, exclude=label)
    if leader is not None and leader > label:
        yield follow_forever(leader)
        return

    for p in range(budget + 1):
        p_start = phase_start + 1 + p * 2 * t
        p_mid = p_start + t
        p_end = p_start + 2 * t
        if p < len(bits):
            if bits[p] == 1:
                obs, leader = yield from uxs_explore(obs, plan.offsets, label)
                if leader is None:
                    obs, leader = yield from wait_for_merge(obs, p_end, label)
            else:
                obs, leader = yield from wait_for_merge(obs, p_mid, label)
                if leader is None:
                    obs, leader = yield from uxs_explore(obs, plan.offsets, label)
            if leader is not None:
                yield follow_forever(leader)
                return
        else:
            # Bits exhausted: the decisive 2T wait.
            obs, leader = yield from wait_for_merge(obs, p_end, label)
            if leader is not None:
                yield follow_forever(leader)
                return
            if detect:
                ctx.stats["uxs_phases_used"] = p + 1
                yield Action.terminate()
                return
            # gathering-only baseline: ride out the schedule
            obs, leader = yield from wait_for_merge(obs, schedule_end, label)
            if leader is not None:
                yield follow_forever(leader)
                return
            yield Action.terminate()
            return
    raise AssertionError("unreachable: bits fit in the budget")  # pragma: no cover


def uxs_gathering_program(plan: Optional[UxsPlan] = None, detect: bool = True):
    """Standalone UXS gathering with detection (Theorem 6)."""

    def factory(ctx: RobotContext):
        def program(ctx=ctx):
            obs = yield
            if ctx.n == 1:
                yield Action.terminate()
                return
            yield from uxs_phase(ctx, obs, phase_start=obs.round, plan=plan, detect=detect)

        return program(ctx)

    return factory

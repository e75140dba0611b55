"""``Undispersed-Gathering`` (paper Section 2.2, Theorem 8).

Phase layout (all robots derive it from ``n`` alone; see
:func:`repro.core.bounds.undispersed_rounds`):

* **round 0** (relative): *state assignment* — robots observe co-located
  labels; a robot alone becomes ``waiter``; the minimum label of a
  co-located group becomes ``finder``; the rest become ``helper`` with
  ``groupid`` = their finder's label.
* **rounds 1 .. R1**: *Phase 1 (map finding)* — each finder builds a full
  port-labeled map using its helpers as a movable token
  (:func:`repro.mapping.token_map.build_map_with_token`), then parks
  everyone until Phase 2.  Waiters sleep through the whole phase.
* **rounds R1+1 .. R1+2n**: *Phase 2 (gathering)* — each finder walks a
  closed spanning-tree tour of its map (exactly ``2(n-1)`` moves),
  collecting robots by the paper's groupid-capture rules; every robot ends
  at the minimum-groupid finder's Phase-2 start node.
* the phase ends after ``R = 1 + R1 + 2n`` rounds; the caller (standalone
  program or ``Faster-Gathering``) owns the next observation, with which it
  checks aloneness (Lemma 11) and terminates or proceeds.

Phase-2 capture rules (paper, verbatim in spirit):

* a **finder** keeps touring while no co-located finder/helper has a
  strictly smaller ``groupid``; on meeting a smaller-groupid *finder* it
  becomes a helper and follows it; on meeting only smaller-groupid
  *helpers* it becomes a helper, adopts the smallest groupid, and parks.
* a **helper** stays parked until a finder with a strictly smaller
  ``groupid`` is co-located, then adopts its groupid and follows it; while
  following, it mirrors its leader as long as the leader's card shows it is
  a finder *or is itself following someone* (the chain of Lemma 7); if the
  leader parks, it parks.
* a **waiter** sleeps until a finder arrives, then becomes a helper
  following the minimum-groupid co-located finder.

Cards: ``{"state": finder|helper|waiter, "groupid": int, "tok":
follow|hold|park|tour, "following": label|None}``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.core import bounds
from repro.core.proglets import sleep_until
from repro.mapping.token_map import build_map_with_token
from repro.sim.actions import Action, Observation
from repro.sim.robot import RobotContext

__all__ = ["undispersed_phase", "undispersed_gathering_program"]

FINDER = "finder"
HELPER = "helper"
WAITER = "waiter"


def _min_colocated_finder(
    cards: Sequence[Mapping[str, Any]], below: Optional[int] = None
) -> Optional[Mapping[str, Any]]:
    """The co-located finder card with the smallest groupid (< ``below``)."""
    best = None
    for c in cards:
        if c.get("state") != FINDER:
            continue
        g = c.get("groupid")
        if below is not None and g >= below:
            continue
        if best is None or g < best.get("groupid"):
            best = c
    return best


def _capture_trigger(
    cards: Sequence[Mapping[str, Any]], my_groupid: int
) -> Optional[Tuple[str, Mapping[str, Any]]]:
    """Evaluate the paper's finder capture rule against co-located cards.

    Returns ``("follow", card)`` when a strictly-smaller-groupid finder — or
    a *moving* helper (one that is itself following a chain, Lemma 7) — is
    present: the finder must become a helper and mirror it.  Returns
    ``("park", card)`` when only *stationary* smaller-groupid helpers are
    present (the min-group's home situation): become a helper, adopt the
    smallest groupid, stay.  ``None`` → keep touring.

    Distinguishing moving chains from parked groups is what makes Lemma 7's
    funnel argument airtight: chains are heading to the minimum group's node
    and must be ridden, parked groups are pickup points for the minimum
    finder and must be joined in place.
    """
    best_follow = None
    best_park = None
    for c in cards:
        g = c.get("groupid")
        state = c.get("state")
        if state not in (FINDER, HELPER) or g is None or g >= my_groupid:
            continue
        if state == FINDER or c.get("following") is not None:
            if best_follow is None or g < best_follow.get("groupid"):
                best_follow = c
        else:
            if best_park is None or g < best_park.get("groupid"):
                best_park = c
    if best_follow is not None:
        return ("follow", best_follow)
    if best_park is not None:
        return ("park", best_park)
    return None


# ---------------------------------------------------------------------------
# Role bodies
# ---------------------------------------------------------------------------
def _finder_body(ctx: RobotContext, obs: Observation, phase2_start: int, sync_round: int):
    """Phase 1 + Phase 2 of a finder.  Returns the sync-round observation."""
    gid = ctx.label

    def make_card(tok: str) -> Dict[str, Any]:
        return {"state": FINDER, "groupid": gid, "tok": tok, "following": None}

    # ---- Phase 1: build the map ------------------------------------------
    start_round = obs.round
    obs, rmap, here = yield from build_map_with_token(ctx, obs, gid, make_card)
    ctx.stats["phase1_rounds_used"] = obs.round - start_round
    if obs.round >= phase2_start:
        raise RuntimeError(
            f"finder {ctx.label}: map construction overran the R1 budget "
            f"(finished at {obs.round}, budget end {phase2_start - 1})"
        )
    if rmap.num_nodes != ctx.n:
        raise RuntimeError(
            f"finder {ctx.label}: map has {rmap.num_nodes} nodes, expected {ctx.n}"
        )
    # Park the token and sleep out the rest of the R1 budget.
    obs = yield Action.stay(card=make_card("park"))
    obs = yield from sleep_until(obs, phase2_start)

    # ---- Phase 2: spanning-tree tour with capture checks ------------------
    tour_ports, _tour_nodes = rmap.euler_tour(here)
    card = make_card("tour")
    step = 0
    while step < len(tour_ports):
        # capture checks against the cards visible this round
        trig = _capture_trigger(obs.cards, gid)
        if trig is not None:
            kind, c = trig
            obs = yield from _helper_loop(
                ctx, obs, sync_round,
                groupid=c["groupid"],
                leader=c["id"] if kind == "follow" else None,
                announce=True,
            )
            return obs
        obs = yield Action.move(tour_ports[step], card=card)
        card = None
        step += 1
    # Tour complete: back at the Phase-2 start node.  Only the minimum-
    # groupid finder ever gets here (every other finder parks when its tour
    # passes the minimum group's node), but stay capture-aware for safety.
    while obs.round < sync_round:
        obs = yield Action.sleep(sync_round, wake_on_meet=True, card=card)
        card = None
        trig = _capture_trigger(obs.cards, gid)
        if trig is not None:
            kind, c = trig
            obs = yield from _helper_loop(
                ctx, obs, sync_round,
                groupid=c["groupid"],
                leader=c["id"] if kind == "follow" else None,
                announce=True,
            )
            return obs
    return obs


def _helper_loop(
    ctx: RobotContext,
    obs: Observation,
    sync_round: int,
    groupid: int,
    leader: Optional[int],
    announce: bool,
):
    """Phase-2 helper behaviour (shared by helpers, captured waiters and
    captured finders) until the sync round.

    ``leader=None`` means parked.  ``announce`` publishes the helper card
    immediately (used on state changes).
    """
    card: Optional[Dict[str, Any]] = None
    if announce:
        card = {"state": HELPER, "groupid": groupid, "tok": "-", "following": leader}
    # the card-less follow_once of the current leader, built once per leader
    # (actions are immutable values, so yielding one again is allowed)
    follow: Optional[Action] = None

    while obs.round < sync_round:
        if leader is not None:
            lc = None
            for c in obs.cards:
                if c.get("id") == leader:
                    lc = c
                    break
            if lc is not None and (
                lc.get("state") == FINDER or lc.get("following") is not None
            ):
                # Leader still on the move (or chained): mirror it.  Keep
                # our groupid synchronized with the leader's so downstream
                # capture decisions never act on stale group information.
                lg = lc.get("groupid")
                if lg is not None and lg != groupid:
                    groupid = lg
                    card = {"state": HELPER, "groupid": groupid, "tok": "-", "following": leader}
                if card is None:
                    if follow is None or follow.target != leader:
                        follow = Action.follow_once(leader)
                    obs = yield follow
                else:
                    obs = yield Action.follow_once(leader, card=card)
                    card = None
                continue
            # leader parked (or vanished — impossible for correct chains):
            leader = None
            card = {"state": HELPER, "groupid": groupid, "tok": "-", "following": None}

        # parked: wait for a capturing finder with a smaller groupid
        f = _min_colocated_finder(obs.cards, below=groupid)
        if f is not None:
            groupid = f["groupid"]
            leader = f["id"]
            card = {"state": HELPER, "groupid": groupid, "tok": "-", "following": leader}
            continue
        obs = yield Action.sleep(sync_round, wake_on_meet=True, card=card)
        card = None
    return obs


def _phase1_helper_body(ctx: RobotContext, obs: Observation, phase2_start: int, my_finder: int):
    """Phase-1 helper: act as (part of) the movable token.

    Obeys the finder card *seen* each round: ``follow`` → mirror the
    finder's move; ``hold`` → stay put (and sleep once the finder leaves);
    ``park`` → sleep until Phase 2.  Returns the Phase-2 start observation.
    """
    follow = Action.follow_once(my_finder)  # yielded again every escort round
    while obs.round < phase2_start:
        fc = None
        for c in obs.cards:
            if c.get("id") == my_finder:
                fc = c
                break
        if fc is None:
            # finder away: doze until something arrives (the finder's sweep
            # or return), or Phase 2 begins
            obs = yield Action.sleep(phase2_start, wake_on_meet=True)
            continue
        tok = fc.get("tok")
        if tok == "follow":
            obs = yield follow
        elif tok == "park":
            obs = yield from sleep_until(obs, phase2_start)
        else:  # "hold" (or the finder's tour card, which cannot occur here)
            obs = yield Action.stay()
    return obs


def _waiter_body(ctx: RobotContext, obs: Observation, phase2_start: int, sync_round: int):
    """Waiter: inert in Phase 1; captured by the first visiting finder in
    Phase 2 (minimum-groupid among simultaneous arrivals)."""
    obs = yield from sleep_until(obs, phase2_start)
    while obs.round < sync_round:
        f = _min_colocated_finder(obs.cards)
        if f is not None:
            obs = yield from _helper_loop(
                ctx, obs, sync_round,
                groupid=f["groupid"], leader=f["id"], announce=True,
            )
            return obs
        obs = yield Action.sleep(sync_round, wake_on_meet=True)
    return obs


# ---------------------------------------------------------------------------
# The phase and the standalone program
# ---------------------------------------------------------------------------
def undispersed_phase(ctx: RobotContext, obs: Observation, phase_start: int):
    """One full ``Undispersed-Gathering`` phase.

    Starts at ``obs.round == phase_start`` and returns the observation of
    round ``phase_start + bounds.undispersed_rounds(n)`` — the first round
    of whatever follows, with which the caller performs the Lemma-11
    aloneness check.
    """
    n = ctx.n
    r1 = bounds.phase1_rounds(n)
    phase2_start = phase_start + 1 + r1
    sync_round = phase2_start + 2 * n
    assert obs.round == phase_start, (obs.round, phase_start)

    # ---- state assignment (round phase_start) ----------------------------
    labels_here = sorted(c["id"] for c in obs.cards)
    if len(labels_here) == 1:
        ctx.stats.setdefault("roles", []).append(WAITER)
        obs = yield Action.stay(
            card={"state": WAITER, "groupid": None, "tok": "-", "following": None}
        )
        obs = yield from _waiter_body(ctx, obs, phase2_start, sync_round)
        return obs

    if ctx.label == labels_here[0]:
        ctx.stats.setdefault("roles", []).append(FINDER)
        obs = yield Action.stay(
            card={"state": FINDER, "groupid": ctx.label, "tok": "follow", "following": None}
        )
        obs = yield from _finder_body(ctx, obs, phase2_start, sync_round)
        return obs

    ctx.stats.setdefault("roles", []).append(HELPER)
    my_finder = labels_here[0]
    obs = yield Action.stay(
        card={"state": HELPER, "groupid": my_finder, "tok": "-", "following": None}
    )
    obs = yield from _phase1_helper_body(ctx, obs, phase2_start, my_finder)
    obs = yield from _helper_loop(
        ctx, obs, sync_round, groupid=my_finder, leader=None, announce=False
    )
    return obs


def undispersed_gathering_program(terminate: str = "always"):
    """Standalone ``Undispersed-Gathering`` (Theorem 8).

    ``terminate="always"`` reproduces the paper's counter-based termination
    at round ``R``: correct whenever the *input* is undispersed.
    ``terminate="if_not_alone"`` applies the Lemma-11 check instead (used
    when the input might be dispersed and the caller wants the phase to be
    a no-op detectable from aloneness).
    """
    if terminate not in ("always", "if_not_alone"):
        raise ValueError("terminate must be 'always' or 'if_not_alone'")

    def factory(ctx: RobotContext):
        def program(ctx=ctx):
            obs = yield
            if ctx.n == 1:
                yield Action.terminate()
                return
            obs = yield from undispersed_phase(ctx, obs, phase_start=obs.round)
            if terminate == "always" or not obs.alone(ctx.label):
                yield Action.terminate()
                return
            # alone and asked to only terminate when gathered: by Lemma 11
            # everyone is alone; stop anyway but record the outcome.
            ctx.stats["ended_alone"] = True
            yield Action.terminate()

        return program(ctx)

    return factory

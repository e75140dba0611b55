"""Actions and observations — the robot/scheduler contract.

Each executed round, an active robot receives an :class:`Observation` and
yields an :class:`Action`.  Actions are created through the factory
classmethods (``Action.move(...)``, ``Action.sleep(...)``, ...); the
constructor is considered private.

Timing conventions (these matter; the paper's correctness arguments depend
on them and the tests pin them down):

* The *cards* in an observation at round ``r`` are the public states the
  co-located robots published with their most recent action (round ``r-1``
  or earlier).  This models the simultaneous broadcast of step (i): every
  robot sees every co-located robot's state as of the start of the round.
* A move happens at the end of the round; robots arriving at a node are
  co-located with its occupants from round ``r+1`` onward.
* A follow (one-round or persistent) mirrors the *resolved* move of the
  leader in the same round, so a follower never loses its leader.

Declared walks
--------------

``Action.walk(offsets)`` hands the engine a whole universal-exploration
walk instead of one move per yield.  Step ``s`` leaves through port
``(e + offsets[s]) mod degree``, with ``e = 0`` (the virtual entry port of
:mod:`repro.uxs.verify`) for step 0 and the robot's entry port, the one
the previous step produced, afterwards; the walk makes one move per
activation.  The engine moves the robot until one of two activations and
the program then receives that activation's observation:

* the first activation whose card tuple differs, by value, from the tuple
  the program saw when it yielded the walk;
* the activation after the last step.

A program that decides on the cards alone therefore receives exactly the
observations at which its per-round loop could decide differently; every
skipped observation carried the tuple it had already judged.  Progress
lives on the walk: the engine advances ``walk.steps``, the program yields
the same walk again to continue it, and yielding a finished walk is a
protocol violation.  ``steps`` and ``start``, the node the walk took its
first step from (written by the engine when it takes that step, and kept
when the walk resumes), are the two fields of an action that change after
its factory returns, which is why every walk is a fresh object.  ``start``
is the engine's own record, which lets it read the walk's trajectory from
a table (:func:`repro.graphs.csr.walk_table`); node identities are not
part of what a robot perceives, so programs must not read it.
Engines without native walks run programs through
:func:`repro.sim.robot.expand_walks`, which turns each walk back into
per-round moves under the same rule.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = ["Action", "Observation"]

# Action kinds (ints for cheap dispatch).
STAY = 0
MOVE = 1
SLEEP = 2
FOLLOW = 3
FOLLOW_ONCE = 4
TERMINATE = 5
WALK = 6

_KIND_NAMES = {
    STAY: "stay",
    MOVE: "move",
    SLEEP: "sleep",
    FOLLOW: "follow",
    FOLLOW_ONCE: "follow_once",
    TERMINATE: "terminate",
    WALK: "walk",
}


class Action:
    """One robot decision for one round.  Use the factory classmethods.

    Actions are immutable values: nothing may change an action's fields
    after a factory returns it, with two exceptions on walks -- ``steps``,
    the number of steps taken so far, and ``start``, the node of the first
    step, are the two fields the engine writes (see the module docstring).
    Factories may therefore return shared instances -- a plain
    ``move(p)`` (an exact ``int`` port, 0 <= p < 64, no card, no note) and
    a plain ``stay()`` always return the same object -- so programs must
    not rely on an action's identity.
    A walk is never shared.
    """

    __slots__ = (
        "kind",
        "hot_kind",
        "port",
        "target",
        "wake_round",
        "wake_on_meet",
        "on_leader_terminate",
        "card",
        "note",
        "offsets",
        "steps",
        "start",
    )

    def __init__(
        self,
        kind: int,
        port: Optional[int] = None,
        target: Optional[int] = None,
        wake_round: Optional[int] = None,
        wake_on_meet: bool = False,
        on_leader_terminate: str = "terminate",
        card: Optional[Dict[str, Any]] = None,
        note: Optional[str] = None,
        offsets: Optional[Tuple[int, ...]] = None,
    ):
        self.kind = kind
        # Precomputed dispatch token for the scheduler's hot loop: the kind
        # when the action needs no preparation (the overwhelmingly common
        # case), -1 for a walk or an action carrying a card or a note.  One
        # comparison there replaces a walk, a card and a note check per
        # activation; a prepared action then dispatches on its kind.
        self.hot_kind = kind if card is None and note is None and kind != WALK else -1
        self.port = port
        self.target = target
        self.wake_round = wake_round
        self.wake_on_meet = wake_on_meet
        self.on_leader_terminate = on_leader_terminate
        self.card = card
        self.note = note
        self.offsets = offsets
        self.steps = 0
        self.start: Optional[int] = None

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def stay(cls, card: Optional[Dict[str, Any]] = None, note: Optional[str] = None) -> "Action":
        """Remain on the current node this round."""
        if card is None and note is None:
            return _STAY_ACTION
        return cls(STAY, card=card, note=note)

    @classmethod
    def move(cls, port: int, card: Optional[Dict[str, Any]] = None, note: Optional[str] = None) -> "Action":
        """Move through ``port`` at the end of this round."""
        # only an exact int is shared: True and 1.0 compare equal to 1 but
        # must reach the scheduler (and its invalid-port error) as given
        if card is None and note is None and type(port) is int and 0 <= port < _SHARED_PORTS:
            return _MOVE_ACTIONS[port]
        return cls(MOVE, port=port, card=card, note=note)

    @classmethod
    def sleep(
        cls,
        until_round: Optional[int],
        wake_on_meet: bool = False,
        card: Optional[Dict[str, Any]] = None,
        note: Optional[str] = None,
    ) -> "Action":
        """Do nothing until ``until_round`` (exclusive of action, i.e. the
        robot next acts *at* ``until_round``).

        ``until_round=None`` sleeps forever (requires ``wake_on_meet=True``
        to be wakeable at all).  With ``wake_on_meet=True`` the robot is
        woken early — at the round following another robot's arrival on its
        node — and must inspect ``obs.round`` to see how long it actually
        slept.
        """
        return cls(SLEEP, wake_round=until_round, wake_on_meet=wake_on_meet, card=card, note=note)

    @classmethod
    def follow(
        cls,
        target_label: int,
        until_round: Optional[int] = None,
        on_leader_terminate: str = "terminate",
        card: Optional[Dict[str, Any]] = None,
        note: Optional[str] = None,
    ) -> "Action":
        """Mirror the moves of the co-located robot labeled ``target_label``.

        Persistent: the robot's program is suspended until ``until_round``
        (if given).  ``on_leader_terminate`` selects what happens when the
        (transitive) leader terminates: ``"terminate"`` terminates this
        robot too (the paper's followers terminate with their leader,
        Lemma 4); ``"wake"`` resumes the program the following round.
        """
        if on_leader_terminate not in ("terminate", "wake"):
            raise ValueError("on_leader_terminate must be 'terminate' or 'wake'")
        return cls(
            FOLLOW,
            target=target_label,
            wake_round=until_round,
            on_leader_terminate=on_leader_terminate,
            card=card,
            note=note,
        )

    @classmethod
    def follow_once(
        cls, target_label: int, card: Optional[Dict[str, Any]] = None, note: Optional[str] = None
    ) -> "Action":
        """Mirror the leader's move this round only; program resumes next round."""
        return cls(FOLLOW_ONCE, target=target_label, card=card, note=note)

    @classmethod
    def terminate(cls, card: Optional[Dict[str, Any]] = None, note: Optional[str] = None) -> "Action":
        """Stop forever.  The robot stays on its node as a passive occupant."""
        return cls(TERMINATE, card=card, note=note)

    @classmethod
    def walk(cls, offsets) -> "Action":
        """Walk a universal exploration sequence, one step per activation.

        Step ``s`` leaves through ``(e + offsets[s]) mod degree``, where
        ``e`` is 0 for the first step and the robot's entry port after
        that.  Control returns at the first activation whose cards differ
        from those seen when the walk was yielded, or at the activation
        after the last step; ``steps`` then counts the steps taken.  Yield
        the same walk again to continue it.
        """
        return cls(WALK, offsets=tuple(offsets))

    # ------------------------------------------------------------------
    @property
    def kind_name(self) -> str:
        """The action's kind as its canonical lowercase name."""
        return _KIND_NAMES[self.kind]

    def __repr__(self) -> str:
        parts = [self.kind_name]
        if self.port is not None:
            parts.append(f"port={self.port}")
        if self.target is not None:
            parts.append(f"target={self.target}")
        if self.wake_round is not None:
            parts.append(f"wake={self.wake_round}")
        if self.offsets is not None:
            parts.append(f"steps={self.steps}/{len(self.offsets)}")
        return f"Action({', '.join(parts)})"


#: Plain moves through ports below this bound are pre-built and shared.
_SHARED_PORTS = 64
_STAY_ACTION = Action(STAY)
_MOVE_ACTIONS = tuple(Action(MOVE, port=p) for p in range(_SHARED_PORTS))


class Observation:
    """What a robot perceives at the start of a round.

    **Lifetime contract:** an observation is valid until the receiving
    robot's next ``yield``.  The scheduler's struct-of-arrays fast path
    keeps one observation object per robot and mutates it in place between
    activations, so a program that stores an observation and reads it after
    a later ``yield`` would see the *newer* round's values.  Copy the
    fields you keep (they are plain ints and an immutable cards tuple);
    every algorithm in this repository already follows the
    ``obs = yield ...`` threading convention, which is safe by
    construction.

    Attributes
    ----------
    round:
        Current round number (rounds start at 0).
    degree:
        Degree of the node the robot stands on.
    entry_port:
        Port through which the robot entered this node on its most recent
        move, or ``None`` if it has never moved.
    cards:
        Tuple of the public cards of *all* robots co-located on this node
        (including this robot's own card), sorted by label.  Cards are plain
        dicts; treat them as read-only.  Every card carries at least
        ``"id"`` (the robot's label).
    """

    __slots__ = ("round", "degree", "entry_port", "cards")

    def __init__(
        self,
        round_: int,
        degree: int,
        entry_port: Optional[int],
        cards: Tuple[Mapping[str, Any], ...],
    ):
        self.round = round_
        self.degree = degree
        self.entry_port = entry_port
        self.cards = cards

    def others(self, own_label: int) -> Tuple[Mapping[str, Any], ...]:
        """Co-located cards excluding this robot's own."""
        return tuple(c for c in self.cards if c.get("id") != own_label)

    def alone(self, own_label: int) -> bool:
        """True iff no other robot shares the node."""
        return all(c.get("id") == own_label for c in self.cards)

    def __repr__(self) -> str:
        ids = [c.get("id") for c in self.cards]
        return (
            f"Observation(round={self.round}, degree={self.degree}, "
            f"entry_port={self.entry_port}, ids={ids})"
        )

"""The synchronous round scheduler.

Executes the Face-to-Face model round by round:

1. **Wake-ups** — sleepers whose wake round arrived (or who were woken early
   by an arrival) and persistent followers whose ``until_round`` arrived
   become active.
2. **Fast-forward** — if *no* robot is active, nothing can change until the
   earliest scheduled wake round; simulated time jumps there in one step.
   (Followers of sleeping leaders cannot move either, so the jump is safe.)
3. **Observation & compute** — each active robot receives an
   :class:`~repro.sim.actions.Observation` (cards of co-located robots as of
   the start of the round) and yields an :class:`~repro.sim.actions.Action`.
   Robots are processed in increasing label order; determinism is total.
4. **Move resolution** — explicit moves are taken as-is; follows resolve
   transitively to the leader's move this round (cycles resolve to "stay",
   which cannot happen for the algorithms in this library but keeps the
   scheduler total).
5. **Simultaneous application** — all moves happen at once; entry ports are
   recorded; sleeping robots with ``wake_on_meet`` on nodes that received an
   arrival are flagged to wake next round.
6. **Terminations** — terminate actions are applied, then cascaded to
   persistent followers with ``on_leader_terminate="terminate"``
   (transitively, the paper's Lemma 4).

The scheduler never exposes node identities to programs.

Implementation notes (the *fast path*; semantics are pinned bit-for-bit
against :class:`repro.sim.reference.ReferenceScheduler` by
``tests/test_fastpath_differential.py``, and the invariants are documented
in ``docs/PERF.md``):

The engine is **struct-of-arrays**: per-robot hot state lives in parallel
flat lists indexed by ``rid`` (robots sorted by label, so rid order ==
label order everywhere) — ``_pos``, ``_entry``, ``_moves``, ``_ar`` (active
rounds),
``_own`` (the robot's single-occupant card tuple), ``_sends`` (the
pre-bound generator ``send``, or a walker's cursor while a declared walk
runs), and ``_obs`` (one reusable Observation per robot, mutated in
place — see the reuse contract in :mod:`repro.sim.actions`).
Plain lists are deliberately chosen over ``array``/numpy: indexing an
``array('l')`` boxes a fresh int per read, and numpy cannot help a loop
that must call a Python generator per element (see ``docs/PERF.md``).

The regime is fixed when a scheduler is built, and two regimes share
those arrays:

* the **SoA loop** (:meth:`_step_soa`) runs every run except traced runs,
  activation-model runs and runs of a class that sets ``_uses_soa =
  False`` (the seed scheduler and the ``incremental`` pin).  One call runs
  due wake-ups, fast-forward jumps and rounds in a single frame: ``run``
  makes one call per run, ``_step`` one call per round
  (``_step_soa(self.round + 1)``), and the batch engine one call per
  lockstep turn.  The frame binds the CSR and the
  arrays once, keeps the round counter, the occupancy snapshot and the
  deferred counters in locals, reuses its scratch lists across rounds,
  and caches the all-gathered card tuple until the next cold action.  It
  applies moves *inline* during the observation sweep (legal because an
  observation depends on other robots only through start-of-round
  occupancy, which is read from pre-round state), detects co-location
  with one C-level ``set(pos)`` per round instead of per-move occupancy
  bookkeeping, and resolves the dominant "one shared node" case with a
  closed-form duplicate extraction (``sum(pos) - sum(prev_pos_set)``).
  Rare action kinds (sleep/persistent follow/terminate/cards) drop into
  cold helpers that reconstruct whatever the inline sweep skipped.  The
  sweep dispatches a card-less ``follow_once`` itself; after the sweep
  each such follower takes its leader's port, read off the reverse of the
  leader's entry edge (exact: port graphs have no self-loops), unless the
  round's follows chain or persistent followers exist.  While persistent
  followers or ``wake_on_meet`` sleepers exist, the sweep records its
  movers from round start: persistent followers then *ride* their
  leader's move through a cached, label-sorted list of each leader's
  transitive followers (its **riders**, rebuilt only when the
  leader->followers index changes), and the round's arrivals are tested
  against a cached set of the meet-sleepers' nodes (dropped whenever the
  meet-sleeper count changes); only a hit scans the robots and flags every
  meet-sleeper on a node that received an arrival to wake.  A declared
  walk (:meth:`Action.walk`) takes its first step where it is yielded and
  then swaps the robot's ``_sends`` entry for a cursor (:class:`_Walker`)
  that returns the next move while the cards match and hands back to the
  program otherwise.  When every active robot is a walker, whole stretches
  of rounds run in :meth:`_soa_walk_stretch` without an observation, a
  send or a step: a search over the walks' trajectory rows
  (:func:`~repro.graphs.csr.walk_table`) finds where the stretch ends.
* the **per-round driver** (:meth:`_step_general`) runs every other run,
  one ``_step`` per round, over the same arrays: the activation model (if
  any) picks who acts, every action goes through :meth:`_soa_cold`,
  follows through :meth:`_soa_resolve_follows` and meet-sleeper wakes
  through :meth:`_soa_wake_meet`, so each action rule has one copy.  It
  runs declared walks through the same :class:`_Walker`; only the seed
  scheduler expands them into per-round moves
  (:func:`~repro.sim.robot.expand_walks`).

In both regimes the arrays are authoritative, and ``RobotState``
attributes are synchronized with them only at run boundaries
(``_sync_states``); the seed scheduler keeps its own state on the
attributes.
Wake-ups are driven by a precomputed **wake schedule** — a min-heap of
``(wake_round, rid)`` pushed at sleep/follow time — so rounds where nobody
is due skip the per-robot wake scan entirely, and fast-forward jumps read
the next wake round from the heap top.

Activation models (:mod:`repro.sim.activation`) weaken the synchronous
discipline: when one is installed, the due-robot list is filtered through
``model.select`` before observation.  ``activation=None`` (the default)
skips the policy entirely, preserving the pinned synchronous semantics.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.csr import walk_table
from repro.graphs.port_graph import PortGraph, PortGraphError
from repro.sim import robot as rb
from repro.sim.actions import (
    Action,
    Observation,
    STAY,
    MOVE,
    SLEEP,
    FOLLOW,
    FOLLOW_ONCE,
    TERMINATE,
    WALK,
)
from repro.sim.errors import ProtocolViolation, SimulationDeadlock, SimulationTimeout
from repro.sim.metrics import RunMetrics, card_bits
from repro.sim.robot import (
    ACTIVE,
    FOLLOWING,
    SLEEPING,
    TERMINATED,
    RobotSpec,
    RobotState,
)
from repro.sim.trace import TraceRecorder

__all__ = ["Scheduler"]


class Scheduler:
    """Drives a set of robot programs on a port graph until all terminate."""

    #: Whether runs of this class may take the struct-of-arrays loop.
    #: Subclasses that set it to ``False`` step every round through
    #: ``_step``: the seed :class:`~repro.sim.reference.ReferenceScheduler`,
    #: which overrides ``_step`` with its own state, and the ``incremental``
    #: engine backend (:mod:`repro.sim.engines`), which pins the per-round
    #: driver for differential testing.
    _uses_soa = True

    def __init__(
        self,
        graph: PortGraph,
        specs: List[RobotSpec],
        trace: Optional[TraceRecorder] = None,
        strict: bool = False,
        replay=None,
        activation=None,
    ):
        labels = [s.label for s in specs]
        if len(set(labels)) != len(labels):
            raise ValueError("robot labels must be unique")
        if any(l < 1 for l in labels):
            raise ValueError("robot labels must be >= 1 (the paper's ID range starts at 1)")
        for s in specs:
            if not (0 <= s.start < graph.n):
                raise ValueError(f"start node {s.start} outside graph")

        self.graph = graph
        self.trace = trace
        self.strict = strict
        self.replay = replay
        # Optional ActivationModel (repro.sim.activation). None keeps the
        # native synchronous hot path: no per-round policy call at all.
        self.activation = activation
        # Robots sorted by label: processing order == label order everywhere.
        self.robots: List[RobotState] = [
            RobotState(rid, spec, graph.n)
            for rid, spec in enumerate(sorted(specs, key=lambda s: s.label))
        ]
        self.by_label: Dict[int, RobotState] = {r.label: r for r in self.robots}
        self.round = 0
        self.metrics = RunMetrics()

        self._csr = graph.csr
        # The regime is fixed for the whole run: the SoA loop, unless the
        # class pins the per-round driver or the run is traced or has an
        # activation model.  Both regimes run on the arrays below.
        self._soa = type(self)._uses_soa and trace is None and activation is None
        # set by run(): whether the SoA loop returns at the first gathering
        self._stop_on_gather = False

        # --- follow and wake state (invariants in docs/PERF.md) -------
        # reverse index: leader label -> persistent followers (label-sorted
        # is not required; cascade/propagation order is label-sorted where
        # it matters)
        self._followers_of: Dict[int, List[RobotState]] = {}
        # the rider cache: rid of every leader that is not itself following
        # -> label-sorted rids of its transitive persistent followers; None
        # once _followers_of changes (the next SoA round with followers
        # rebuilds it)
        self._riders: Optional[Dict[int, List[int]]] = None
        # robots currently SLEEPING with wake_on_meet; while zero, the move
        # loop skips arrival tracking entirely
        self._meet_sleepers = 0
        # the nodes those sleepers occupy (sleepers never move); None once
        # _meet_sleepers changes (the next SoA commit with movers rebuilds it)
        self._meet_nodes: Optional[set] = None
        self._alive = len(self.robots)
        # robots not currently ACTIVE (SLEEPING/FOLLOWING/TERMINATED)
        self._dormant = 0

        # --- struct-of-arrays state -----------------------------------
        nrob = len(self.robots)
        self._nrob = nrob
        self._labels = [r.label for r in self.robots]
        self._pos: List[int] = [r.node for r in self.robots]
        self._entry: List[Optional[int]] = [None] * nrob
        self._moves: List[int] = [0] * nrob
        self._ar: List[int] = [0] * nrob
        self._own: List[Tuple[dict, ...]] = [(r.card,) for r in self.robots]
        self._sends = [r.send for r in self.robots]
        self._obs = [Observation(0, 0, None, ()) for _ in self.robots]
        self._posset = set(self._pos)
        self._occupied = len(self._posset)  # nodes holding >= 1 robot
        # label-ordered rids of currently ACTIVE robots (rid order == label
        # order); every status change maintains it
        self._active: List[int] = list(range(nrob))
        # active-round increments owed to every rid in _active (SoA rounds
        # defer the per-robot += 1 until the active set changes)
        self._ar_pending = 0
        # the wake schedule: min-heap of (wake_round, rid), pushed at
        # sleep/follow time; stale entries are skipped lazily on pop
        self._wake_heap: List[Tuple[int, int]] = []
        # rids flagged woken_early (meet arrivals, leader-terminated wakes)
        # since the last wake processing
        self._woken: List[int] = []
        # rid -> cursor of every robot whose declared walk the SoA loop is
        # running; its _sends entry is the cursor's step
        self._walkers: Dict[int, _Walker] = {}

        self._prime()

    # ------------------------------------------------------------------
    def _prime(self) -> None:
        """Advance every program to its bootstrap ``yield``."""
        for r in self.robots:
            first = next(r.gen)
            if first is not None:
                raise ProtocolViolation(
                    f"robot {r.label}: program must start with a bare 'yield' "
                    f"(got {first!r} before any observation)"
                )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def positions(self) -> Dict[int, int]:
        """label -> node, for every robot (terminated included).

        Derived straight from the position array — one C-level ``zip``
        instead of a per-robot attribute walk (replay snapshots call this
        every round).
        """
        return dict(zip(self._labels, self._pos))

    def all_terminated(self) -> bool:
        """O(1) counter check: has every robot terminated?"""
        return self._alive == 0

    def all_gathered(self) -> bool:
        """O(1) counter check: are all robots on one node?"""
        # _occupied is maintained by both regimes; == 1 iff co-located
        return self._occupied == 1

    # ------------------------------------------------------------------
    # Deferred counters and array -> facade synchronization
    # ------------------------------------------------------------------
    def _flush_ar(self) -> None:
        """Apply the deferred active-round increments to the ar array."""
        pending = self._ar_pending
        if pending:
            ar = self._ar
            for i in self._active:
                ar[i] += pending
            self._ar_pending = 0

    def _sync_states(self) -> None:
        """Copy array state onto the RobotState facades (arrays stay valid)."""
        self._flush_ar()
        pos = self._pos
        entry = self._entry
        moves = self._moves
        ar = self._ar
        for i, r in enumerate(self.robots):
            r.node = pos[i]
            r.entry_port = entry[i]
            r.moves = moves[i]
            r.active_rounds = ar[i]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_rounds: int, stop_on_gather: bool = False) -> RunMetrics:
        """Run until every robot terminates (or ``max_rounds`` elapses).

        ``stop_on_gather=True`` additionally stops as soon as all robots are
        co-located — the measurement hook for detection-free baselines, which
        otherwise never halt.

        An SoA-regime run makes one :meth:`_step_soa` call, which returns
        exactly when one of the loop's gates below would fire; every other
        run makes one :meth:`_step` call per round.
        """
        self._stop_on_gather = stop_on_gather
        while not self.all_terminated():
            if stop_on_gather and self.metrics.first_gather_round is not None:
                break
            if self.round > max_rounds:
                raise self._timeout_error()
            if self._soa:
                self._step_soa(max_rounds + 1)
            else:
                self._step()
        return self._finalize()

    def _timeout_error(self) -> SimulationTimeout:
        """The exception ``run`` raises past ``max_rounds``.  Shared with the
        batched replica driver (:mod:`repro.sim.batch`), which enforces the
        same limit per replica and must report the identical error."""
        return SimulationTimeout(
            self.round,
            detail="; ".join(
                f"{r.label}:{rb.STATUS_NAMES[r.status]}" for r in self.robots
            ),
        )

    def _finalize(self) -> RunMetrics:
        """Sync facades and fill the end-of-run metrics.  ``run`` calls this
        once its loop exits; the batched replica driver calls it when it
        retires a replica — one code path, identical metrics either way."""
        self._sync_states()
        self.metrics.rounds = self.round
        self.metrics.gathered_at_end = self.all_gathered()
        self.metrics.moves_by_robot = {r.label: r.moves for r in self.robots}
        self.metrics.active_rounds_by_robot = {
            r.label: r.active_rounds for r in self.robots
        }
        self.metrics.total_moves = sum(r.moves for r in self.robots)
        self.metrics.max_moves = max((r.moves for r in self.robots), default=0)
        terms = [r.terminated_round for r in self.robots if r.terminated_round is not None]
        self.metrics.last_termination_round = max(terms) if terms else None
        return self.metrics

    # ------------------------------------------------------------------
    # Wake machinery (the precomputed wake schedule)
    # ------------------------------------------------------------------
    def _wake_due(self) -> List[int]:
        """Apply due wake-ups; return the label-ordered active rid list.

        Driven by the wake-schedule heap plus the woken-early list instead
        of a per-robot scan: a round with nothing due returns the
        maintained ``_active`` list after two O(1) checks.
        """
        rnd = self.round
        heap = self._wake_heap
        woken = self._woken
        if not woken and (not heap or heap[0][0] > rnd):
            return self._active
        robots = self.robots
        due_from_heap = set()
        while heap and heap[0][0] <= rnd:
            _, rid = heapq.heappop(heap)
            r = robots[rid]
            status = r.status
            if (
                (status == SLEEPING or status == FOLLOWING)
                and r.wake_round is not None
                and r.wake_round <= rnd
            ):
                due_from_heap.add(rid)
        due = due_from_heap
        if woken:
            for rid in woken:
                status = robots[rid].status
                if status == SLEEPING or status == FOLLOWING:
                    due.add(rid)
            woken.clear()  # in place: the SoA loop holds a binding
        if not due:
            return self._active
        self._flush_ar()
        trace = self.trace
        active = self._active
        for rid in sorted(due):
            r = robots[rid]
            if r.status == SLEEPING:
                was_due = r.wake_round is not None and rnd >= r.wake_round
                if r.wake_on_meet:
                    self._meet_sleepers -= 1
                    self._meet_nodes = None
                self._dormant -= 1
                r.status = ACTIVE
                r.woken_early = False
                r.wake_round = None
                r.wake_on_meet = False
                if trace is not None:
                    trace.record(rnd, "wake", r.label, "due" if was_due else "meet")
                insort(active, rid)
            else:  # FOLLOWING: timer or leader-terminated ("wake" mode)
                self._unfollow(r)
                self._dormant -= 1
                r.status = ACTIVE
                r.leader_label = None
                r.woken_early = False
                r.wake_round = None
                insort(active, rid)
        return active

    def _next_wake_round(self) -> Optional[int]:
        """Earliest scheduled wake round, from the wake-schedule heap."""
        heap = self._wake_heap
        robots = self.robots
        while heap:
            wr, rid = heap[0]
            r = robots[rid]
            if (r.status == SLEEPING or r.status == FOLLOWING) and r.wake_round == wr:
                return wr
            heapq.heappop(heap)  # stale entry (woken early / re-slept)
        return None

    def _fast_forward(self) -> None:
        """No robot is active: jump to the earliest scheduled wake round.

        Followers of sleeping leaders cannot move either, so the jump is
        safe; with nothing scheduled, no robot can ever act again.
        """
        nxt = self._next_wake_round()
        if nxt is None:
            statuses = ", ".join(
                f"{r.label}:{rb.STATUS_NAMES[r.status]}" for r in self.robots
            )
            raise SimulationDeadlock(
                f"round {self.round}: no robot can ever act again ({statuses})"
            )
        if self.trace is not None:
            self.trace.record(self.round, "jump", None, nxt)
        self.round = max(self.round + 1, nxt)

    # ------------------------------------------------------------------
    def _step(self) -> None:
        """Execute one round, or one fast-forward jump."""
        if self._soa:
            self._step_soa(self.round + 1)
            return
        active_rids = self._wake_due()
        if active_rids:
            self._step_general(active_rids)
        else:
            self._fast_forward()

    # ------------------------------------------------------------------
    # The SoA loop
    # ------------------------------------------------------------------
    def _step_soa(self, stop_round: int) -> None:
        """Run wake-ups, fast-forward jumps and SoA rounds in one frame.

        Returns once every robot has terminated, ``self.round`` reaches
        ``stop_round``, or -- when ``run`` was asked to stop on gathering
        (``_stop_on_gather``) -- the robots have gathered.  The caller
        applies ``run``'s gates first, and the first round or jump always
        executes, so ``_step_soa(self.round + 1)`` is exactly one ``_step``.
        """
        csr = self._csr
        row = csr.row_offsets
        nbr = csr.neighbor
        ent = csr.entry_port
        deg = csr.degree
        pos = self._pos
        entry = self._entry
        mvs = self._moves
        own = self._own
        sends = self._sends
        obs_l = self._obs
        labels = self._labels
        nrob = self._nrob
        active = self._active
        heap = self._wake_heap
        woken = self._woken
        followers_of = self._followers_of
        walkers = self._walkers
        by_label = self.by_label
        strict = self.strict
        metrics = self.metrics
        replay = self.replay
        stop_on_gather = self._stop_on_gather
        first_gather = metrics.first_gather_round
        # Per-round state lives in locals for the frame.  ``finally`` writes
        # it back, and so does every call into a helper that reads it.
        rnd = self.round
        posset = self._posset
        occupied = self._occupied
        pend = 0  # active-round increments not yet in _ar_pending
        executed = 0
        # scratch shared by every round of the frame
        prev_pos = pos[:]
        movers_i: List[int] = []
        movers_p: List[int] = []
        terminators: List[int] = []
        # this round's one-round follows: follower rids in label order, and
        # their leaders' rids
        followers_once: List[int] = []
        once_leaders: List[int] = []
        # rids leaving the active set this round (sleep/follow); removal is
        # deferred because the sweep iterates the active list itself
        deactivated: List[int] = []
        dup_cards: Optional[Tuple[dict, ...]] = None
        # every card in label order, for all-gathered rounds; a cold action
        # (the only way to publish a card) drops it
        all_cards: Optional[Tuple[dict, ...]] = None
        try:
            while True:
                # --- wake-ups and fast-forward jumps --------------------
                if woken or (heap and heap[0][0] <= rnd):
                    self.round = rnd
                    self._ar_pending += pend
                    pend = 0
                    self._wake_due()
                if not active:
                    self.round = rnd
                    self._fast_forward()
                    rnd = self.round
                    if rnd >= stop_round:
                        return
                    continue

                # --- only walkers act: run the stretch without the sweep
                # (off under replay, which snapshots every round, and
                # while the first gathering is still to be recorded)
                if (
                    walkers
                    and len(walkers) == len(active)
                    and replay is None
                    and (first_gather is not None or occupied != 1)
                ):
                    m = self._soa_walk_stretch(rnd, stop_round, posset)
                    if m:
                        rnd += m
                        pend += m
                        executed += m
                        posset = set(pos)
                        if rnd >= stop_round:
                            return
                        if heap and heap[0][0] <= rnd:
                            continue

                # --- start-of-round co-location snapshot ----------------
                # excess == 0: every node is singly occupied and every
                # observation is the robot's own persistent card tuple.
                # excess == k - 1: every robot shares one node (a gathered
                # group riding its leader), whose cards are every card in
                # label order.  excess == 1: exactly one node holds exactly
                # two robots; extract it in closed form from the previous
                # round's position set (no per-node bookkeeping).
                # Otherwise build the shared-node card map in one sweep.
                excess = nrob - occupied
                shared: Optional[Dict[int, Tuple[dict, ...]]] = None
                if excess == 0:
                    dup = -1
                elif excess == nrob - 1:
                    dup = pos[0]
                    if all_cards is None:
                        all_cards = tuple([o[0] for o in own])
                    dup_cards = all_cards
                elif excess == 1:
                    dup = sum(pos) - sum(posset)
                    i1 = pos.index(dup)
                    i2 = pos.index(dup, i1 + 1)
                    dup_cards = (own[i1][0], own[i2][0])
                else:
                    dup = -1
                    # find the `excess` duplicated slots from a C-sorted
                    # copy, then recover each shared node's label-ordered
                    # rids with C index scans — O(k log k) in C plus
                    # O(shared) in Python, instead of a per-robot dict build
                    sp = sorted(pos)
                    shared = {}
                    remaining = excess
                    t = 0
                    last = nrob - 1
                    while remaining:
                        if sp[t] == sp[t + 1]:
                            node = sp[t]
                            rids = [pos.index(node)]
                            while t < last and sp[t + 1] == node:
                                rids.append(pos.index(node, rids[-1] + 1))
                                t += 1
                                remaining -= 1
                            shared[node] = tuple(own[q][0] for q in rids)
                        t += 1

                # Riders and meet-sleeper wakes need this round's movers.
                # The sweep records them from round start while followers
                # or meet-sleepers exist; otherwise a persistent follow or
                # meet-sleep appearing mid-sweep reconstructs them from the
                # pre-round positions (port graphs have no self-loops, so
                # "position changed" <=> "moved", and the reverse of the
                # entry edge gives the departure port).  One-round follows
                # need no movers: each follower reads its leader's port the
                # same way.
                prev_pos[:] = pos
                pend += 1
                track = True if followers_of else self._meet_sleepers > 0
                cold = False
                try:
                    for i in active:
                        node = pos[i]
                        ob = obs_l[i]
                        ob.round = rnd
                        ob.degree = dg = deg[node]
                        ob.entry_port = entry[i]
                        if shared is None:
                            ob.cards = own[i] if node != dup else dup_cards
                        else:
                            cards = shared.get(node)
                            ob.cards = own[i] if cards is None else cards
                        try:
                            a = sends[i](ob)
                        except StopIteration:
                            raise ProtocolViolation(
                                f"robot {labels[i]}: program returned without terminating"
                            ) from None
                        try:
                            kind = a.hot_kind
                        except AttributeError:
                            if a is None:
                                raise ProtocolViolation(
                                    f"robot {labels[i]}: yielded None instead of an Action"
                                ) from None
                            raise
                        if kind == MOVE:
                            p = a.port
                            try:
                                ok = 0 <= p < dg
                            except TypeError:  # port is None
                                ok = False
                            if not ok:
                                raise ProtocolViolation(
                                    f"robot {labels[i]}: invalid port {p} on a degree-"
                                    f"{dg} node"
                                )
                            j = row[node] + p
                            pos[i] = nbr[j]
                            entry[i] = ent[j]
                            mvs[i] += 1
                            if track:
                                movers_i.append(i)
                                movers_p.append(p)
                        elif kind != STAY:
                            if kind == FOLLOW_ONCE:
                                # the target is judged on pre-round positions,
                                # as _soa_check_follow_target does (which
                                # raises the seed's error for a bad one)
                                t = a.target
                                leader = by_label.get(t)
                                if (
                                    leader is None
                                    or leader.rid == i
                                    or (strict and prev_pos[leader.rid] != node)
                                ):
                                    self._soa_check_follow_target(i, t, prev_pos)
                                followers_once.append(i)
                                once_leaders.append(leader.rid)
                                continue
                            # _soa_cold may flush the active-round counter
                            self._ar_pending += pend
                            pend = 0
                            cold = True
                            track = self._soa_cold(
                                i, a, rnd, track,
                                movers_i, movers_p, terminators,
                                followers_once, once_leaders,
                                deactivated, prev_pos,
                            )
                except BaseException:
                    # as if the round's moves had not applied yet, as in
                    # the seed, which applies them once every robot acted
                    self._undo_sweep_moves(prev_pos)
                    raise

                if cold:
                    all_cards = None
                    if deactivated:
                        for rid in deactivated:
                            active.remove(rid)
                        deactivated.clear()

                # --- followers take their leaders' moves ----------------
                # One-round followers of leaders that are not following
                # take the leader's port, read off the reverse of its entry
                # edge; a single mover carrying riders (the paper's Lemma-4
                # groups) hands its port to its cached rider list.  Both
                # apply in label order (the seed's order) and check
                # each inherited port against the follower's own node (a
                # non-co-located follower can inherit a port its node
                # lacks).  Chained one-round follows, one-round follows next
                # to persistent followers, and several rider carriers take
                # the full propagation.
                if followers_once:
                    if followers_of or not set(followers_once).isdisjoint(once_leaders):
                        if not track:
                            self._soa_reconstruct_movers(prev_pos, movers_i, movers_p)
                        self._soa_resolve_follows(
                            movers_i, movers_p, followers_once, once_leaders
                        )
                    else:
                        meet = self._meet_sleepers
                        for f, l in zip(followers_once, once_leaders):
                            node = pos[l]
                            if node == prev_pos[l]:
                                continue  # the leader did not move
                            p = ent[row[node] + entry[l]]
                            node = pos[f]
                            if not 0 <= p < deg[node]:
                                raise PortGraphError(
                                    f"node {node} has degree {deg[node]}; port {p} is invalid"
                                )
                            j = row[node] + p
                            pos[f] = nbr[j]
                            entry[f] = ent[j]
                            mvs[f] += 1
                            if meet:
                                movers_i.append(f)
                                movers_p.append(p)
                    followers_once.clear()
                    once_leaders.clear()
                elif followers_of and movers_i:
                    riders = self._riders
                    if riders is None:
                        riders = self._build_riders()
                    group = None
                    if len(movers_i) == 1:  # a lone leader: no scan
                        group = riders.get(movers_i[0])
                        p = movers_p[0]
                    else:
                        carriers = [k for k, i in enumerate(movers_i) if i in riders]
                        if len(carriers) == 1:
                            k = carriers[0]
                            group = riders[movers_i[k]]
                            p = movers_p[k]
                        elif carriers:
                            self._soa_resolve_follows(movers_i, movers_p, (), ())
                    if group is not None:
                        # rider arrivals matter only to meet-sleepers
                        meet = self._meet_sleepers
                        for f in group:
                            node = pos[f]
                            if not 0 <= p < deg[node]:
                                raise PortGraphError(
                                    f"node {node} has degree {deg[node]}; port {p} is invalid"
                                )
                            j = row[node] + p
                            pos[f] = nbr[j]
                            entry[f] = ent[j]
                            mvs[f] += 1
                            if meet:
                                movers_i.append(f)
                                movers_p.append(p)

                # --- commit occupancy, wake meet-sleepers ---------------
                # Arrivals are tested against the meet-sleepers' nodes;
                # only a hit pays the scan over every robot.
                posset = set(pos)
                occupied = len(posset)
                if movers_i:
                    if self._meet_sleepers:
                        meet_nodes = self._meet_nodes
                        if meet_nodes is None:
                            meet_nodes = self._build_meet_nodes()
                        for m in movers_i:
                            if pos[m] in meet_nodes:
                                self._soa_wake_meet(movers_i)
                                break
                    movers_i.clear()
                    movers_p.clear()

                # --- terminations + cascade -----------------------------
                if terminators:
                    self.round = rnd
                    self._posset = posset
                    self._occupied = occupied
                    self._ar_pending += pend
                    pend = 0
                    self._flush_ar()
                    robots = self.robots
                    for rid in terminators:
                        self._terminate(robots[rid])
                    terminators.clear()
                    self._cascade_terminations()
                    if not self._alive:
                        stop_round = rnd + 1

                # --- bookkeeping ----------------------------------------
                if first_gather is None and occupied == 1:
                    first_gather = metrics.first_gather_round = rnd
                    if stop_on_gather:
                        stop_round = rnd + 1
                if replay is not None:
                    replay.snapshot(rnd, self.positions())
                executed += 1
                rnd += 1
                if rnd >= stop_round:
                    return
        finally:
            self.round = rnd
            self._posset = posset
            self._occupied = occupied
            self._ar_pending += pend
            metrics.rounds_executed += executed

    # -- cold paths: the SoA loop's rare actions, every per-round action --
    def _soa_publish(self, i: int, action: Action) -> None:
        """Card publication, in both regimes: facade + own-tuple update.

        Updating ``own`` mid-sweep is safe: the publisher's own
        observation already happened, any co-located robot's card tuple
        was snapshotted at round start, and next round rebuilds from the
        new ``own`` tuple.
        """
        card = dict(action.card)
        card["id"] = self._labels[i]  # the label is not forgeable
        self.robots[i].card = card
        self._own[i] = (card,)
        bits = card_bits(card)
        if bits > self.metrics.max_card_bits:
            self.metrics.max_card_bits = bits

    def _undo_sweep_moves(self, prev_pos: List[int]) -> None:
        """Put back every robot the raising sweep of this round moved.

        Each robot moves at most once in a sweep, and port graphs have no
        self-loops, so ``pos != prev_pos`` is exactly "moved": its node
        and move count go back, and its entry port is the one its
        observation was given this round.  Runs only on the path that
        raises; errors raised later, while follows resolve, keep the moves
        already applied, as the seed does.
        """
        pos = self._pos
        entry = self._entry
        mvs = self._moves
        obs_l = self._obs
        for j, old in enumerate(prev_pos):
            if pos[j] != old:
                pos[j] = old
                entry[j] = obs_l[j].entry_port
                mvs[j] -= 1

    def _soa_reconstruct_movers(
        self, prev_pos: List[int], movers_i: List[int], movers_p: List[int]
    ) -> None:
        """Append (rid, port) for every robot that has moved this round.

        Called while the sweep is not tracking movers (so both lists are
        empty), when a follow/meet-sleep appears mid-sweep or a round's
        one-round follows need the full propagation.  With no self-loops
        (port graphs reject them), ``pos != prev_pos`` is exactly "moved",
        and the reverse of the entry edge -- the slot of the entry port at
        the new node -- leads back through the departure port.
        """
        pos = self._pos
        entry = self._entry
        row = self._csr.row_offsets
        ent = self._csr.entry_port
        for j, old in enumerate(prev_pos):
            new = pos[j]
            if new != old:
                movers_i.append(j)
                movers_p.append(ent[row[new] + entry[j]])

    def _soa_cold(
        self,
        i: int,
        action: Action,
        rnd: int,
        track: bool,
        movers_i: List[int],
        movers_p: List[int],
        terminators: List[int],
        followers_once: List[int],
        once_leaders: List[int],
        deactivated: List[int],
        prev_pos: List[int],
    ) -> bool:
        """Everything the hot loop's dispatch does not cover: card/note-
        carrying actions, sleeps, persistent follows, terminates, the first
        step of a walk -- and every action of the per-round driver.

        Returns the (possibly enabled) mover-tracking flag: persistent
        follows and meet-sleeps need this round's movers, so if tracking is off
        when one appears, the movers applied so far are reconstructed and
        tracking stays on for the rest of the sweep.  A traced run (always
        the per-round driver) records ``note``, ``sleep`` and ``follow``
        events here; its ``move`` events are recorded after the round's
        follows resolve.
        """
        r = self.robots[i]
        if action.card is not None:
            self._soa_publish(i, action)
        trace = self.trace
        if action.note and trace is not None:
            trace.record(rnd, "note", r.label, action.note)
        kind = action.kind
        if kind == MOVE:
            p = action.port
            pos = self._pos
            node = pos[i]
            deg = self._csr.degree
            try:
                ok = 0 <= p < deg[node]
            except TypeError:  # port is None
                ok = False
            if not ok:
                raise ProtocolViolation(
                    f"robot {r.label}: invalid port {p} on a degree-"
                    f"{deg[node]} node"
                )
            row = self._csr.row_offsets
            j = row[node] + p
            pos[i] = self._csr.neighbor[j]
            self._entry[i] = self._csr.entry_port[j]
            self._moves[i] += 1
            if track:
                movers_i.append(i)
                movers_p.append(p)
        elif kind == STAY:
            pass
        elif kind == SLEEP:
            if action.wake_round is not None and action.wake_round <= rnd:
                raise ProtocolViolation(
                    f"robot {r.label}: sleep until round {action.wake_round} "
                    f"is not in the future (now {rnd})"
                )
            if action.wake_round is None and not action.wake_on_meet:
                raise ProtocolViolation(f"robot {r.label}: unwakeable forever-sleep")
            self._flush_ar()
            r.status = SLEEPING
            r.wake_round = action.wake_round
            r.wake_on_meet = action.wake_on_meet
            self._dormant += 1
            deactivated.append(i)
            if action.wake_round is not None:
                heapq.heappush(self._wake_heap, (action.wake_round, i))
            if action.wake_on_meet:
                self._meet_sleepers += 1
                self._meet_nodes = None
                if not track:
                    self._soa_reconstruct_movers(prev_pos, movers_i, movers_p)
                    track = True
            if trace is not None:
                trace.record(rnd, "sleep", r.label, action.wake_round)
        elif kind == FOLLOW:
            self._soa_check_follow_target(i, action.target, prev_pos)
            self._flush_ar()
            r.status = FOLLOWING
            r.leader_label = action.target
            r.wake_round = action.wake_round
            r.on_leader_terminate = action.on_leader_terminate
            self._dormant += 1
            deactivated.append(i)
            if action.wake_round is not None:
                heapq.heappush(self._wake_heap, (action.wake_round, i))
            self._add_follower(r, action.target)
            if not track:
                self._soa_reconstruct_movers(prev_pos, movers_i, movers_p)
                track = True
            if trace is not None:
                trace.record(rnd, "follow", r.label, action.target)
        elif kind == FOLLOW_ONCE:
            self._soa_check_follow_target(i, action.target, prev_pos)
            followers_once.append(i)
            once_leaders.append(self.by_label[action.target].rid)
        elif kind == TERMINATE:
            terminators.append(i)
        elif kind == WALK:
            # take the first step now and hand the robot's send slot to a
            # cursor that takes the rest (see _Walker)
            offsets = action.offsets
            s = action.steps
            if s >= len(offsets):
                raise ProtocolViolation(f"robot {r.label}: walk already complete")
            csr = self._csr
            pos = self._pos
            node = pos[i]
            if not s:
                action.start = node
            p = ((self._entry[i] if s else 0) + offsets[s]) % csr.degree[node]
            j = csr.row_offsets[node] + p
            pos[i] = csr.neighbor[j]
            self._entry[i] = csr.entry_port[j]
            self._moves[i] += 1
            if track:
                movers_i.append(i)
                movers_p.append(p)
            walker = _Walker(self, i, action, s + 1, self._obs[i].cards)
            self._walkers[i] = walker
            self._sends[i] = walker.step
        else:  # pragma: no cover - factory methods make this unreachable
            raise ProtocolViolation(f"robot {r.label}: unknown action kind {kind}")
        return track

    def _soa_walk_stretch(self, rnd: int, end: int, posset: set) -> int:
        """Run rounds from ``rnd`` in which every active robot is a walker.

        Steps nothing: each walk's trajectory, the node and the entry port
        after every step, is a row of :func:`~repro.graphs.csr.walk_table`
        (built on the first stretch that needs it), and one search over
        the rows finds the stretch's length.  Positions, entry ports and
        moves of the walkers and their riders are committed once; the
        caller advances the round and the deferred counters by the
        returned count.  Stops before ``end``, before the next wake round,
        when a walk runs out (its next activation hands back), and before
        a step that would put a walker group on a node holding any other
        robot or on another group's node: that round goes through the
        sweep, which wakes meet-sleepers and hands back on the changed
        cards.  Returns 0, leaving the round to the sweep, unless every
        walker group (a walker and its riders) stands alone on its node
        and sees the cards its walk was yielded with -- the cards every
        round of the stretch would show it -- and stands where its row
        says (a program that moved between a hand-back and the resume has
        left the row).
        """
        heap = self._wake_heap
        if heap and heap[0][0] < end:
            end = heap[0][0]
        pos = self._pos
        own = self._own
        riders = self._riders
        if riders is None:
            riders = self._build_riders()
        others = set(posset)
        groups = []
        for i, walker in self._walkers.items():
            node = pos[i]
            group = riders.get(i, ())
            if pos.count(node) != len(group) + 1:
                return 0
            if group:
                for f in group:
                    if pos[f] != node:
                        return 0
                cards = tuple([own[q][0] for q in sorted((i, *group))])
            else:
                cards = own[i]
            if cards != walker.cards:
                return 0
            others.discard(node)
            groups.append((i, walker, group))

        entry = self._entry
        stop = end - rnd
        for i, walker, _ in groups:
            if walker.nodes is None:
                walker.nodes, walker.ports = walk_table(self._csr, walker.offsets, walker.walk.start)
            nodes = walker.nodes
            s = walker.steps  # >= 1: the cold path took the first step
            if nodes[s - 1] != pos[i] or walker.ports[s - 1] != entry[i]:
                return 0
            if len(nodes) - s < stop:
                stop = len(nodes) - s
        if stop <= 0:
            return 0

        # the nodes each group reaches in the next `stop` rounds; the
        # stretch ends before the first round that puts a group on an
        # occupied node or two groups on one node
        wins = []
        hit = np.zeros(stop, dtype=bool)
        for _, walker, _ in groups:
            s = walker.steps
            win = np.frombuffer(walker.nodes, walker.nodes.typecode)[s : s + stop]
            for o in others:
                hit |= win == o
            for prev in wins:
                hit |= win == prev
            wins.append(win)
        m = int(hit.argmax())
        if not hit[m]:
            m = stop
        if m:
            mvs = self._moves
            for i, walker, group in groups:
                s = walker.steps = walker.steps + m
                node = walker.nodes[s - 1]
                e = walker.ports[s - 1]
                for q in (i, *group):
                    pos[q] = node
                    entry[q] = e
                    mvs[q] += m
        return m

    def _soa_check_follow_target(
        self, rid: int, target: Optional[int], prev_pos: List[int]
    ) -> None:
        # strict co-location is judged on start-of-round positions (moves
        # apply "at the end of the round"); inline application means the
        # leader may already sit on its new node, so compare pre-round state
        label = self._labels[rid]
        if target is None or target not in self.by_label:
            raise ProtocolViolation(f"robot {label}: follow target {target} unknown")
        if target == label:
            raise ProtocolViolation(f"robot {label}: cannot follow itself")
        if self.strict and prev_pos[self.by_label[target].rid] != prev_pos[rid]:
            raise ProtocolViolation(
                f"robot {label}: follow target {target} is not co-located"
            )

    def _build_riders(self) -> Dict[int, List[int]]:
        """Rebuild the rider cache from the leader->followers index.

        Keys are the rids of leaders that are not themselves following
        (only those can move on their own); values are the label-sorted
        rids of all their transitive persistent followers.  Each follower
        has one leader, so below such a root the followers form a tree
        and the walk visits each of them once.
        """
        followers_of = self._followers_of
        by_label = self.by_label
        riders: Dict[int, List[int]] = {}
        for label in followers_of:
            leader = by_label[label]
            if leader.status == FOLLOWING:
                continue  # a chain link: rides with its own root
            acc: List[int] = []
            stack = [label]
            while stack:
                for f in followers_of.get(stack.pop(), ()):
                    acc.append(f.rid)
                    stack.append(f.label)
            acc.sort()  # rid order == label order
            riders[leader.rid] = acc
        self._riders = riders
        return riders

    def _soa_resolve_follows(
        self,
        movers_i: List[int],
        movers_p: List[int],
        followers_once: Sequence[int],
        once_leaders: Sequence[int],
    ) -> None:
        """Follow resolution + application, in both regimes.

        Iterative forward propagation from this round's movers over the
        leader->followers index: chains ending in a mover inherit its port;
        chains ending anywhere else (stay, sleep, terminate, cycle) stay
        put.  Follower moves apply after the (already-applied) movers, in
        label order, and are appended to the mover lists as they apply; an
        inherited port the follower's own node lacks raises the seed's
        ``PortGraphError`` there, leaving the earlier followers applied.
        """
        labels = self._labels
        followers_of = self._followers_of
        once_by_leader: Dict[int, List[int]] = {}
        for fid, lid in zip(followers_once, once_leaders):
            once_by_leader.setdefault(lid, []).append(fid)
        assigned: List[Tuple[int, int]] = []
        stack = list(zip(movers_i, movers_p))
        while stack:
            i, port = stack.pop()
            fs = followers_of.get(labels[i])
            if fs:
                for f in fs:
                    assigned.append((f.rid, port))
                    stack.append((f.rid, port))
            fids = once_by_leader.get(i)
            if fids:
                for fid in fids:
                    assigned.append((fid, port))
                    stack.append((fid, port))
        if not assigned:
            return
        assigned.sort()  # rid order == label order
        pos = self._pos
        entry = self._entry
        mvs = self._moves
        row = self._csr.row_offsets
        nbr = self._csr.neighbor
        ent = self._csr.entry_port
        deg = self._csr.degree
        for fid, port in assigned:
            node = pos[fid]
            if not 0 <= port < deg[node]:
                raise PortGraphError(
                    f"node {node} has degree {deg[node]}; port {port} is invalid"
                )
            slot = row[node] + port
            pos[fid] = nbr[slot]
            entry[fid] = ent[slot]
            mvs[fid] += 1
            movers_i.append(fid)
            movers_p.append(port)

    def _build_meet_nodes(self) -> set:
        """Rebuild the set of nodes holding a ``wake_on_meet`` sleeper."""
        pos = self._pos
        nodes = {
            pos[r.rid]
            for r in self.robots
            if r.status == SLEEPING and r.wake_on_meet
        }
        self._meet_nodes = nodes
        return nodes

    def _soa_wake_meet(self, movers_i: List[int]) -> None:
        """Flag every ``wake_on_meet`` sleeper on a node that received an
        arrival this round (follower arrivals included) to wake next round
        — the seed's rule, over the position array."""
        pos = self._pos
        arrivals = {pos[j] for j in movers_i}
        woken = self._woken
        for r in self.robots:
            if r.status == SLEEPING and r.wake_on_meet and pos[r.rid] in arrivals:
                r.woken_early = True
                woken.append(r.rid)

    # ------------------------------------------------------------------
    # The per-round driver
    # ------------------------------------------------------------------
    def _step_general(self, active_rids: List[int]) -> None:
        """Execute one round on the arrays, every action through the cold
        helpers.

        Runs traced runs, activation-model runs and the ``incremental``
        pin.  The sweep applies each move where it is yielded, as the SoA
        loop does; observations read the start-of-round card snapshot, and
        sleeps and follows leave ``_active`` after the sweep, which
        iterates it.  A traced round records its ``move`` events once its
        follows resolve, in the seed's order: this round's movers in label
        order, then the followers in label order, including those applied
        before an invalid inherited port raises.  The name is older than
        this driver and stays because perfbench's tracer wraps
        ``Scheduler._step_general`` to count the rounds run here.
        """
        rnd = self.round
        robots = self.robots
        activation = self.activation
        if activation is None:
            acting = active_rids
        else:
            # robots not selected stay awake and unobserved until a later
            # round; a model that selects nobody while robots are due would
            # stall the run forever, so that contract violation is rejected
            selected = activation.select([robots[i] for i in active_rids], rnd)
            if not selected:
                raise ProtocolViolation(
                    f"activation model {activation.describe()!r} selected "
                    f"no robot at round {rnd} with {len(active_rids)} due"
                )
            acting = [r.rid for r in selected]
        pos = self._pos
        own = self._own
        # start-of-round cards: the label-ordered tuple of every shared
        # node; a robot alone on its node reads its own 1-tuple, which only
        # it replaces, after its observation
        cards_at: Optional[Dict[int, Tuple[dict, ...]]] = None
        if self._occupied != self._nrob:
            cards_at = {}
            for i, node in enumerate(pos):
                cards = cards_at.get(node)
                cards_at[node] = own[i] if cards is None else cards + own[i]
        entry = self._entry
        ar = self._ar
        sends = self._sends
        obs_l = self._obs
        labels = self._labels
        deg = self._csr.degree
        prev_pos = pos[:]
        movers_i: List[int] = []
        movers_p: List[int] = []
        terminators: List[int] = []
        followers_once: List[int] = []
        once_leaders: List[int] = []
        deactivated: List[int] = []
        try:
            for i in acting:  # label order
                node = pos[i]
                ob = obs_l[i]
                ob.round = rnd
                ob.degree = deg[node]
                ob.entry_port = entry[i]
                ob.cards = own[i] if cards_at is None else cards_at[node]
                ar[i] += 1
                try:
                    action = sends[i](ob)
                except StopIteration:
                    raise ProtocolViolation(
                        f"robot {labels[i]}: program returned without terminating"
                    ) from None
                if action is None:
                    raise ProtocolViolation(
                        f"robot {labels[i]}: yielded None instead of an Action"
                    )
                self._soa_cold(
                    i, action, rnd, True,
                    movers_i, movers_p, terminators,
                    followers_once, once_leaders,
                    deactivated, prev_pos,
                )
        except BaseException:
            self._undo_sweep_moves(prev_pos)
            raise
        for i in deactivated:
            self._active.remove(i)

        trace = self.trace
        try:
            if followers_once or self._followers_of:
                self._soa_resolve_follows(
                    movers_i, movers_p, followers_once, once_leaders
                )
        finally:
            if trace is not None:
                for i, p in zip(movers_i, movers_p):
                    trace.record(rnd, "move", labels[i], (p, entry[i]))

        self._occupied = len(set(pos))
        if movers_i and self._meet_sleepers:
            self._soa_wake_meet(movers_i)
        if terminators:
            for i in terminators:
                self._terminate(robots[i])
            self._cascade_terminations()

        metrics = self.metrics
        if metrics.first_gather_round is None and self._occupied == 1:
            metrics.first_gather_round = rnd
        if self.replay is not None:
            self.replay.snapshot(rnd, self.positions())
        metrics.rounds_executed += 1
        self.round = rnd + 1

    def _add_follower(self, r: RobotState, target: int) -> None:
        """Enter ``r`` into the reverse leader->followers index."""
        self._followers_of.setdefault(target, []).append(r)
        self._riders = None

    def _unfollow(self, r: RobotState) -> None:
        """Drop ``r`` from the reverse leader->followers index."""
        lst = self._followers_of.get(r.leader_label)
        if lst is not None:
            try:
                lst.remove(r)
            except ValueError:  # pragma: no cover - defensive
                pass
            if not lst:
                del self._followers_of[r.leader_label]
        self._riders = None

    def _terminate(self, r: RobotState) -> None:
        if r.status == TERMINATED:
            return
        if r.status == FOLLOWING:
            self._unfollow(r)  # already counted dormant
        elif r.status == ACTIVE:
            self._dormant += 1
            self._active.remove(r.rid)
        r.status = TERMINATED
        r.terminated_round = self.round
        self._alive -= 1
        # terminations run after the round commits _occupied, so the O(1)
        # counter answers "all gathered" without scanning robots
        if self._occupied != 1:
            self.metrics.terminations_all_gathered = False
        if self.trace is not None:
            self.trace.record(self.round, "terminate", r.label, None)
        try:
            r.gen.close()
        except RuntimeError:  # pragma: no cover - generator refusing to close
            pass

    def _cascade_terminations(self) -> None:
        """Followers whose (transitive) leader terminated react per their mode.

        Single pass over the reverse leader->followers index: every affected
        follower is visited exactly once.  Processing order replicates the
        reference scheduler's iterated label-order fixpoint — conceptually,
        "pass ``p``" contains followers whose enabling termination happened
        in pass ``p-1`` at a *larger* label (they would have been reached
        later in the same scan) join pass ``p-1`` instead — by ordering the
        queue on ``(pass, label)``.
        """
        followers_of = self._followers_of
        if not followers_of:
            return
        by_label = self.by_label
        heap: List[Tuple[int, int, RobotState]] = []
        # Seed with followers of every already-terminated leader (pass 1).
        for llabel, flist in list(followers_of.items()):
            if by_label[llabel].status == TERMINATED:
                for f in flist:
                    heap.append((1, f.label, f))
        heapq.heapify(heap)
        while heap:
            pss, flabel, f = heapq.heappop(heap)
            if f.status != FOLLOWING:  # pragma: no cover - defensive
                continue
            if f.on_leader_terminate == "terminate":
                self._terminate(f)
                flist = followers_of.get(flabel)
                if flist:
                    for g in flist:
                        gpass = pss if g.label > flabel else pss + 1
                        heapq.heappush(heap, (gpass, g.label, g))
            else:  # "wake"
                f.woken_early = True
                self._woken.append(f.rid)


class _Walker:
    """The SoA loop's cursor over one declared walk.

    Its bound :meth:`step` stands in the robot's ``_sends`` slot from the
    walk's first step until the hand-back, so the sweep activates a walker
    exactly as it activates any robot and no other action pays for walks.
    ``nodes`` and ``ports`` are the walk's rows, fetched by the first
    stretch the walker takes part in.
    """

    __slots__ = (
        "walk", "offsets", "steps", "cards", "nodes", "ports", "rid", "send", "sends", "walkers",
    )

    def __init__(self, sched: Scheduler, rid: int, walk: Action, steps: int, cards):
        self.walk = walk
        self.offsets = walk.offsets
        self.steps = steps  # steps taken; walk.steps is written at hand-back
        self.cards = cards  # the card tuple the program saw when it yielded
        self.nodes = self.ports = None
        self.rid = rid
        self.send = sched.robots[rid].send  # the program's own
        self.sends = sched._sends
        self.walkers = sched._walkers

    def step(self, ob: Observation) -> Action:
        """The next step's move while the cards match and steps remain;
        otherwise hand back: record the steps, restore the program's send
        and forward the observation to it."""
        s = self.steps
        offsets = self.offsets
        if s < len(offsets) and ob.cards == self.cards:
            self.steps = s + 1
            return Action.move((ob.entry_port + offsets[s]) % ob.degree)
        self.walk.steps = s
        rid = self.rid
        send = self.send
        self.sends[rid] = send
        del self.walkers[rid]
        return send(ob)


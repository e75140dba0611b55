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

Every round of every run is one round of the **SoA loop**
(:meth:`_step_soa`).  One call runs due wake-ups, fast-forward jumps and
rounds in a single frame: ``run`` makes one call per run, ``_step`` one
call per round (``_step_soa(self.round + 1)``; a class that sets
``_uses_soa = False`` makes it through :meth:`_step_general`), and a
replica batch runs each replica through ``run``.  The frame binds the CSR and
the arrays once, keeps the round counter, the occupancy snapshot and the
deferred counters in locals, and reuses its scratch lists across rounds.
It applies moves *inline* during the observation sweep (legal because an
observation depends on other robots only through start-of-round
occupancy, which is read from pre-round state), detects co-location
with one C-level ``set(pos)`` per round instead of per-move occupancy
bookkeeping, and resolves the dominant "one shared node" case with a
closed-form duplicate extraction (``sum(pos) - sum(prev_pos_set)``).

The sweep has one copy of each rule:

* **One dispatch.**  An action's precomputed ``hot_kind`` is its kind,
  or -1 for a walk or an action carrying a card or a note.  Those are
  prepared first -- a walk installs its cursor and yields its next step
  as a plain move (:meth:`_soa_start_walk`), a card is published and a
  note recorded (:meth:`_soa_publish`) -- and then take the same move,
  stay and ``follow_once`` branches as every other action.  Only sleeps,
  persistent follows and terminates leave the sweep (:meth:`_soa_cold`).
* **One mover record.**  Every move the sweep applies, and every
  follower move, is recorded in label order; an error in the sweep
  undoes exactly those moves, and the round's arrivals are tested
  against a cached set of the meet-sleepers' nodes (dropped whenever the
  meet-sleeper count changes); only a hit scans the robots and flags
  every meet-sleeper on a node that received an arrival to wake.
* **One follower loop.**  This round's moving followers come in label
  order, each with the mover at the root of its chain: one-round
  followers of leaders that are not following, as the sweep listed
  them, or else the full propagation (:meth:`_soa_follow_roots`).  Each
  takes its root's port, read off the reverse of the root's entry edge
  (exact: port graphs have no self-loops, and no follower move changes a
  root).

A declared walk (:meth:`Action.walk`) swaps the robot's ``_sends`` entry
for a cursor (:class:`_Walker`) that returns the next move while the
cards match and hands back to the program otherwise; only the seed
scheduler expands walks into per-round moves
(:func:`~repro.sim.robot.expand_walks`).  When every active robot is a
walker, whole stretches of rounds run in :meth:`_soa_walk_stretch`
without an observation, a send or a step: a search over the walks'
trajectory rows (:func:`~repro.graphs.csr.walk_table`) finds where the
stretch ends.

Three hooks run once per round, never once per robot:

* **Activation models** (:mod:`repro.sim.activation`) weaken the
  synchronous discipline: one ``model.select`` call per round
  (:meth:`_select`) picks the robots the sweep activates, and only those
  gain an active round.  ``activation=None`` (the default) skips the
  policy entirely and defers the active-round increments.
* **Tracing**: a traced run records the round's ``move`` events from the
  mover record once its followers have moved (each robot's port read off
  the reverse of its entry edge), in the seed's order
  (movers, then followers, each in label order), from a ``finally``, so
  the followers applied before an invalid inherited port raises stay in
  the trace.  The helpers record every other event, a ``note`` before
  any event of its action.
* **The walk stretch** is off under tracing, replay and an activation
  model, which observe every round.

The arrays are authoritative, and ``RobotState`` attributes are
synchronized with them only at run boundaries (``_sync_states``); the
seed scheduler keeps its own state on the attributes.
Wake-ups are driven by a precomputed **wake schedule** — a min-heap of
``(wake_round, rid)`` pushed at sleep/follow time — so rounds where nobody
is due skip the per-robot wake scan entirely, and fast-forward jumps read
the next wake round from the heap top.
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

    #: Whether ``run`` runs a whole run in one SoA frame.  Subclasses that
    #: set it to ``False`` step every round through ``_step``: the seed
    #: :class:`~repro.sim.reference.ReferenceScheduler`, which overrides
    #: ``_step`` with its own state, and the ``incremental`` engine backend
    #: (:mod:`repro.sim.engines`), which runs one frame per round.
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
        # set by run(): whether the SoA loop returns at the first gathering
        self._stop_on_gather = False

        # --- follow and wake state (invariants in docs/PERF.md) -------
        # reverse index: leader label -> persistent followers (label-sorted
        # is not required; cascade/propagation order is label-sorted where
        # it matters)
        self._followers_of: Dict[int, List[RobotState]] = {}
        # the rider cache: rid of every leader that is not itself following
        # -> label-sorted rids of its transitive persistent followers; None
        # once _followers_of changes (the next walk stretch rebuilds it)
        self._riders: Optional[Dict[int, List[int]]] = None
        # robots currently SLEEPING with wake_on_meet; while zero, the round
        # commit skips the arrival test entirely
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
        # _occupied is maintained by the SoA loop; == 1 iff co-located
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

        A run makes one :meth:`_step_soa` call, which returns exactly when
        one of the loop's gates below would fire; a class that sets
        ``_uses_soa = False`` makes one :meth:`_step` call per round.
        """
        self._stop_on_gather = stop_on_gather
        while not self.all_terminated():
            if stop_on_gather and self.metrics.first_gather_round is not None:
                break
            if self.round > max_rounds:
                raise SimulationTimeout(
                    self.round,
                    detail="; ".join(
                        f"{r.label}:{rb.STATUS_NAMES[r.status]}" for r in self.robots
                    ),
                )
            if self._uses_soa:
                self._step_soa(max_rounds + 1)
            else:
                self._step()
        return self._finalize()

    def _finalize(self) -> RunMetrics:
        """Sync facades and fill the end-of-run metrics.  ``run`` calls this
        once its loop exits; the stepwise engine protocol's ``finalize``
        calls it after the last step — one code path, identical metrics
        either way."""
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
    def _wake_due(self) -> None:
        """Apply due wake-ups, inserting each woken rid into ``_active``.

        Driven by the wake-schedule heap plus the woken-early list instead
        of a per-robot scan; the SoA loop calls it only when either has
        something due.
        """
        rnd = self.round
        heap = self._wake_heap
        woken = self._woken
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
            return
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
        if self._uses_soa:
            self._step_soa(self.round + 1)
        else:
            self._step_general(self.round + 1)

    def _step_general(self, stop_round: int) -> None:
        """One ``_step`` of a class pinned to per-round stepping: an SoA
        frame that stops at ``stop_round``, after one round or jump.

        Kept apart from :meth:`_step` because perfbench's tracer wraps
        ``Scheduler._step_general`` by name to count these steps.
        """
        self._step_soa(stop_round)

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
        trace = self.trace
        activation = self.activation
        # the walk stretch skips rounds that these observe one by one
        stretch = replay is None and trace is None and activation is None
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
        terminators: List[int] = []
        # this round's one-round follows: follower rids in label order, and
        # their leaders' rids
        followers_once: List[int] = []
        once_leaders: List[int] = []
        # rids leaving the active set this round (sleep/follow); removal is
        # deferred because the sweep iterates the active list itself
        deactivated: List[int] = []
        dup_cards: Optional[Tuple[dict, ...]] = None
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
                # (not while the first gathering is still to be recorded)
                if (
                    walkers
                    and len(walkers) == len(active)
                    and stretch
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
                # excess == 1: exactly one node holds exactly two robots;
                # extract it in closed form from the previous round's
                # position set (no per-node bookkeeping).  Otherwise build
                # the shared-node card map in one sweep.
                excess = nrob - occupied
                shared: Optional[Dict[int, Tuple[dict, ...]]] = None
                if excess == 0:
                    dup = -1
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

                # The sweep records every robot it moves in movers_i, in
                # label order: the followers' chains start from them,
                # meet-sleepers wake on their arrivals and a traced run
                # records them.
                prev_pos[:] = pos
                if activation is None:
                    acting = active
                    pend += 1
                else:
                    acting = self._select(active, rnd)
                try:
                    for i in acting:
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
                        if kind < 0:
                            # a walk, or an action carrying a card or a
                            # note: prepare it, then dispatch it below
                            if a.kind == WALK:
                                a = self._soa_start_walk(i, a)
                            else:
                                self._soa_publish(i, a, rnd)
                            kind = a.kind
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
                            movers_i.append(i)
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
                            self._soa_cold(i, a, rnd, terminators, deactivated, prev_pos)
                except BaseException:
                    # as if the round's moves had not applied yet, as in
                    # the seed, which applies them once every robot acted
                    self._undo_sweep_moves(movers_i, prev_pos)
                    raise

                if deactivated:
                    for rid in deactivated:
                        active.remove(rid)
                    deactivated.clear()

                # --- followers take their leaders' moves ----------------
                # This round's moving followers, in label order (the
                # seed's order), each with the mover at the root of its
                # chain: one-round followers of leaders that are not
                # following, as the sweep listed them; otherwise the full
                # propagation.  One loop applies them: each follower takes
                # its root's port, read off the reverse of the root's entry
                # edge (no follower move changes a root), and each
                # inherited port is checked against the follower's own
                # node (a non-co-located follower can inherit a port its
                # node lacks).
                try:
                    if followers_once or (followers_of and movers_i):
                        if not followers_of and set(followers_once).isdisjoint(once_leaders):
                            fl, roots = followers_once, once_leaders
                        else:
                            fl, roots = self._soa_follow_roots(
                                movers_i, followers_once, once_leaders
                            )
                        for f, l in zip(fl, roots):
                            node = pos[l]
                            if node == prev_pos[l]:
                                continue  # a one-round leader that stayed
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
                            movers_i.append(f)
                        followers_once.clear()
                        once_leaders.clear()
                finally:
                    # the seed records each move as it applies it, so the
                    # followers applied before an invalid port raises stay;
                    # the port a robot left by is the reverse of its entry
                    if trace is not None:
                        for i in movers_i:
                            e = entry[i]
                            trace.record(rnd, "move", labels[i], (ent[row[pos[i]] + e], e))

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

    # -- the sweep's rarer actions -----------------------------------------
    def _soa_publish(self, i: int, action: Action, rnd: int) -> None:
        """Publish the card of an action carrying a card or a note, and
        record its note on a traced run (before any event of the action
        itself, as the seed does).

        Updating ``own`` mid-sweep is safe: the publisher's own
        observation already happened, any co-located robot's card tuple
        was snapshotted at round start, and next round rebuilds from the
        new ``own`` tuple.
        """
        if action.card is not None:
            card = dict(action.card)
            card["id"] = self._labels[i]  # the label is not forgeable
            self.robots[i].card = card
            self._own[i] = (card,)
            bits = card_bits(card)
            if bits > self.metrics.max_card_bits:
                self.metrics.max_card_bits = bits
        if action.note and self.trace is not None:
            self.trace.record(rnd, "note", self._labels[i], action.note)

    def _soa_start_walk(self, i: int, walk: Action) -> Action:
        """Hand robot ``i``'s send slot to a cursor that runs ``walk`` (see
        :class:`_Walker`) and return the walk's next step as a plain move,
        which the sweep applies like any move."""
        offsets = walk.offsets
        s = walk.steps
        if s >= len(offsets):
            raise ProtocolViolation(f"robot {self._labels[i]}: walk already complete")
        node = self._pos[i]
        p = ((self._entry[i] if s else 0) + offsets[s]) % self._csr.degree[node]
        if not s:
            walk.start = node
        walker = _Walker(self, i, walk, s + 1, self._obs[i].cards)
        self._walkers[i] = walker
        self._sends[i] = walker.step
        return Action.move(p)

    def _undo_sweep_moves(self, movers_i: List[int], prev_pos: List[int]) -> None:
        """Put back every robot the raising sweep of this round moved.

        The sweep records each move it applies, and each robot moves at
        most once in a sweep: its node and move count go back, and its
        entry port is the one its observation was given this round.  Runs
        only on the path that raises; errors raised later, while follower
        moves apply, keep the moves already applied, as the seed does.
        """
        pos = self._pos
        entry = self._entry
        mvs = self._moves
        obs_l = self._obs
        for j in movers_i:
            pos[j] = prev_pos[j]
            entry[j] = obs_l[j].entry_port
            mvs[j] -= 1

    def _soa_cold(
        self,
        i: int,
        action: Action,
        rnd: int,
        terminators: List[int],
        deactivated: List[int],
        prev_pos: List[int],
    ) -> None:
        """The sweep's actions that end a robot's activity: sleeps,
        persistent follows and terminates.  A traced run records ``sleep``
        and ``follow`` events here."""
        r = self.robots[i]
        trace = self.trace
        kind = action.kind
        if kind == SLEEP:
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
            if trace is not None:
                trace.record(rnd, "follow", r.label, action.target)
        elif kind == TERMINATE:
            terminators.append(i)
        else:  # pragma: no cover - factory methods make this unreachable
            raise ProtocolViolation(f"robot {r.label}: unknown action kind {kind}")

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
            s = walker.steps  # >= 1: _soa_start_walk took the first step
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

    def _soa_follow_roots(
        self,
        movers_i: List[int],
        followers_once: Sequence[int],
        once_leaders: Sequence[int],
    ) -> Tuple[List[int], List[int]]:
        """The followers that move this round, in label order, and the
        mover at the root of each one's chain; the sweep applies them.

        Iterative forward propagation from this round's movers over the
        leader->followers index and this round's one-round follows: a
        chain that ends in a mover inherits its move; a chain that ends
        anywhere else (stay, sleep, terminate, cycle) is never reached and
        stays put.  Each robot follows at most one leader, so each
        follower is reached at most once.
        """
        labels = self._labels
        followers_of = self._followers_of
        once_by_leader: Dict[int, List[int]] = {}
        for fid, lid in zip(followers_once, once_leaders):
            once_by_leader.setdefault(lid, []).append(fid)
        found: List[Tuple[int, int]] = []
        for root in movers_i:
            stack = [root]
            while stack:
                i = stack.pop()
                for f in followers_of.get(labels[i], ()):
                    found.append((f.rid, root))
                    stack.append(f.rid)
                for fid in once_by_leader.get(i, ()):
                    found.append((fid, root))
                    stack.append(fid)
        found.sort()  # rid order == label order
        return [f for f, _ in found], [root for _, root in found]

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

    def _select(self, active: List[int], rnd: int) -> List[int]:
        """The rids the activation model picks to act this round, in label
        order; each gains its active round here.

        Robots not selected stay awake and unobserved until a later round.
        A model that selects nobody while robots are due would stall the
        run forever, so that contract violation is rejected.
        """
        activation = self.activation
        robots = self.robots
        selected = activation.select([robots[i] for i in active], rnd)
        if not selected:
            raise ProtocolViolation(
                f"activation model {activation.describe()!r} selected "
                f"no robot at round {rnd} with {len(active)} due"
            )
        acting = [r.rid for r in selected]
        ar = self._ar
        for i in acting:
            ar[i] += 1
        return acting

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


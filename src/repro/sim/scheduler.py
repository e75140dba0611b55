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
``_own`` (the robot's single-occupant card tuple), ``_sends`` (pre-bound
generator ``send``), and ``_obs`` (one reusable Observation per robot,
mutated in place — see the reuse contract in :mod:`repro.sim.actions`).
Plain lists are deliberately chosen over ``array``/numpy: indexing an
``array('l')`` boxes a fresh int per read, and numpy cannot help a loop
that must call a Python generator per element (see ``docs/PERF.md``).

Two regimes share those arrays:

* the **SoA hot loop** (:meth:`_step_soa`) runs every round except traced
  rounds, activation-model rounds, rounds on a graph with a self-loop, and
  every round of the ``incremental`` pin (``_soa_enabled = False``).  It
  applies moves *inline* during the observation sweep (legal because an
  observation depends on other robots only through start-of-round
  occupancy, which is read from pre-round state), detects co-location with
  one C-level ``set(pos)`` per round instead of per-move occupancy
  bookkeeping, and resolves the dominant "one shared node" case with a
  closed-form duplicate extraction (``sum(pos) - sum(prev_pos_set)``).
  Rare action kinds (sleep/follow/terminate/cards) drop into cold helpers
  that reconstruct whatever the inline sweep skipped.  While persistent
  followers or ``wake_on_meet`` sleepers exist, the sweep records its
  movers from round start: persistent followers then *ride* their
  leader's move through a cached, label-sorted list of each leader's
  transitive followers (its **riders**, rebuilt only when the
  leader->followers index changes), and every meet-sleeper on a node that
  received an arrival is flagged to wake.
* the **general path** (the pre-SoA incremental engine, preserved in
  :meth:`_step_general`) handles traced runs, activation models, and
  self-loop graphs with per-node occupant lists and card-tuple caches.

``RobotState`` attribute state is synchronized with the arrays only at run
boundaries and, in a run whose rounds take the general path, once at its
first general round (``_soa_to_states``, O(k)) -- the "facade at the trace
boundary".  The regime gate reads only per-run settings, so a run never
moves from the general path back to the SoA loop.
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
from typing import Dict, List, Optional, Tuple

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
)
from repro.sim.errors import ProtocolViolation, SimulationDeadlock, SimulationTimeout
from repro.sim.metrics import RunMetrics, card_bits
from repro.sim.robot import ACTIVE, FOLLOWING, SLEEPING, TERMINATED, RobotSpec, RobotState
from repro.sim.trace import TraceRecorder

__all__ = ["Scheduler"]


class Scheduler:
    """Drives a set of robot programs on a port graph until all terminate."""

    #: Subclasses that keep :class:`RobotState` attributes authoritative for
    #: the whole run (the seed :class:`~repro.sim.reference.ReferenceScheduler`)
    #: set this to ``False``; the arrays then exist but are never trusted.
    _uses_soa = True

    #: Whether ``_step`` may enter the struct-of-arrays hot loop at all.
    #: The ``incremental`` engine backend (:mod:`repro.sim.engines`) sets
    #: this to ``False`` to pin the general path for every round — the
    #: PR-2 execution regime, kept addressable for differential testing.
    _soa_enabled = True

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

        # --- general-path state (invariants in docs/PERF.md) ----------
        self._csr = graph.csr
        if type(self)._uses_soa:
            # SoA schedulers never read the initial occupancy structures:
            # every general-path entry rebuilds them via _soa_to_states.
            # Deferring the build skips O(n) list allocations per
            # construction — replica campaigns construct many schedulers.
            self._occ: List[List[RobotState]] = []
            self._cards: List[Optional[Tuple[dict, ...]]] = []
        else:
            # occupants per node, kept sorted by label (self.robots is
            # label-sorted, so the initial append order is already sorted)
            occ: List[List[RobotState]] = [[] for _ in range(graph.n)]
            for r in self.robots:
                occ[r.node].append(r)
            self._occ = occ
            # cached card tuple per node; None = dirty (rebuilt on demand)
            self._cards = [None] * graph.n
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
        # whether the arrays (True) or RobotState attributes (False) are
        # authoritative right now; flipped at regime transitions
        self._soa_auth = type(self)._uses_soa
        self._has_selfloop = self._csr.has_self_loop

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

        Derived straight from the position array while the SoA engine is
        authoritative — one C-level ``zip`` instead of a per-robot
        attribute walk (replay snapshots call this every round).
        """
        if self._soa_auth:
            return dict(zip(self._labels, self._pos))
        return {r.label: r.node for r in self.robots}

    def all_terminated(self) -> bool:
        """O(1) counter check: has every robot terminated?"""
        return self._alive == 0

    def all_gathered(self) -> bool:
        """O(1) counter check: are all robots on one node?"""
        # _occupied is maintained by both regimes; == 1 iff co-located
        return self._occupied == 1

    # ------------------------------------------------------------------
    # Array <-> facade synchronization (regime transitions only)
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

    def _soa_to_states(self) -> None:
        """SoA -> general transition: facades + occupancy become current."""
        self._sync_states()
        occ: List[List[RobotState]] = [[] for _ in range(self.graph.n)]
        for r in self.robots:  # label order => occupant lists stay sorted
            occ[r.node].append(r)
        self._occ = occ
        self._cards = [None] * self.graph.n
        self._soa_auth = False

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_rounds: int, stop_on_gather: bool = False) -> RunMetrics:
        """Run until every robot terminates (or ``max_rounds`` elapses).

        ``stop_on_gather=True`` additionally stops as soon as all robots are
        co-located — the measurement hook for detection-free baselines, which
        otherwise never halt.
        """
        while not self.all_terminated():
            if stop_on_gather and self.metrics.first_gather_round is not None:
                break
            if self.round > max_rounds:
                raise self._timeout_error()
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
        if self._soa_auth:
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
            self._woken = []
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

    # ------------------------------------------------------------------
    def _step(self) -> None:
        active_rids = self._wake_due()

        if not active_rids:
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
            return

        if (
            self._soa_enabled
            and self.activation is None
            and self.trace is None
            and not self._has_selfloop
        ):
            self._step_soa(active_rids)
            return
        self._step_general(active_rids)

    # ------------------------------------------------------------------
    # The SoA hot loop
    # ------------------------------------------------------------------
    def _step_soa(self, active: List[int]) -> None:
        rnd = self.round
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
        nrob = self._nrob

        # --- start-of-round co-location snapshot ----------------------
        # excess == 0: every node is singly occupied and every observation
        # is the robot's own persistent card tuple.  excess == 1: exactly
        # one node holds exactly two robots; extract it in closed form from
        # the previous round's position set (no per-node bookkeeping).
        # excess == k - 1: every robot shares one node (a gathered group
        # riding its leader), whose cards are every card in label order.
        # Otherwise build the shared-node card map with one O(k) sweep.
        excess = nrob - self._occupied
        shared_cards: Optional[Dict[int, Tuple[dict, ...]]] = None
        if excess == 0:
            dup = -1
            dup_cards: Optional[Tuple[dict, ...]] = None
        elif excess == 1:
            dup = sum(pos) - sum(self._posset)
            i1 = pos.index(dup)
            i2 = pos.index(dup, i1 + 1)
            dup_cards = (own[i1][0], own[i2][0])
        elif excess == nrob - 1:
            dup = pos[0]
            dup_cards = tuple([o[0] for o in own])
        else:
            dup = -1
            dup_cards = None
            # find the `excess` duplicated slots from a C-sorted copy, then
            # recover each shared node's label-ordered rids with C index
            # scans — O(k log k) in C plus O(shared) in Python, instead of
            # a per-robot Python dict build
            sp = sorted(pos)
            shared_cards = {}
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
                    shared_cards[node] = tuple(own[j][0] for j in rids)
                t += 1

        # Riders and meet-sleeper wakes need this round's movers.  The sweep
        # records them from round start while followers or meet-sleepers
        # exist; otherwise a follow/meet-sleep appearing mid-sweep
        # reconstructs them from the pre-round state (no self-loops in SoA
        # mode, so "position changed" <=> "moved", and the entry port pins
        # the unique edge taken).
        prev_pos = pos[:]
        self._ar_pending += 1

        track = self._meet_sleepers > 0 or bool(self._followers_of)
        movers_i: List[int] = []
        movers_p: List[int] = []
        terminators: List[int] = []
        followers_once: List[int] = []
        # rids leaving the active set this round (sleep/follow); removal is
        # deferred because the loop iterates self._active itself
        deactivated: List[int] = []

        if shared_cards is None:
            for i in active:
                node = pos[i]
                ob = obs_l[i]
                ob.round = rnd
                ob.degree = dg = deg[node]
                ob.entry_port = entry[i]
                ob.cards = own[i] if node != dup else dup_cards
                try:
                    a = sends[i](ob)
                except StopIteration:
                    raise ProtocolViolation(
                        f"robot {self._labels[i]}: program returned without terminating"
                    ) from None
                try:
                    kind = a.hot_kind
                except AttributeError:
                    if a is None:
                        raise ProtocolViolation(
                            f"robot {self._labels[i]}: yielded None instead of an Action"
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
                            f"robot {self._labels[i]}: invalid port {p} on a degree-"
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
                    track = self._soa_cold(
                        i, a, rnd, track,
                        movers_i, movers_p, terminators, followers_once,
                        deactivated, prev_pos,
                    )
        else:
            for i in active:
                node = pos[i]
                ob = obs_l[i]
                ob.round = rnd
                ob.degree = dg = deg[node]
                ob.entry_port = entry[i]
                cards = shared_cards.get(node)
                ob.cards = own[i] if cards is None else cards
                try:
                    a = sends[i](ob)
                except StopIteration:
                    raise ProtocolViolation(
                        f"robot {self._labels[i]}: program returned without terminating"
                    ) from None
                try:
                    kind = a.hot_kind
                except AttributeError:
                    if a is None:
                        raise ProtocolViolation(
                            f"robot {self._labels[i]}: yielded None instead of an Action"
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
                            f"robot {self._labels[i]}: invalid port {p} on a degree-"
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
                    track = self._soa_cold(
                        i, a, rnd, track,
                        movers_i, movers_p, terminators, followers_once,
                        deactivated, prev_pos,
                    )

        if deactivated:
            for rid in deactivated:
                self._active.remove(rid)

        # --- followers ride their leaders -------------------------------
        # A single mover carrying riders (the paper's Lemma-4 groups)
        # applies its cached rider list inline: label-sorted, it already is
        # the general path's application order, and each inherited port is
        # checked against the rider's own node (a non-co-located follower
        # can inherit a port its node lacks).  follow_once rounds and rounds
        # where several movers carry riders interleave chains, so they take
        # the full propagation.
        if followers_once:
            self._soa_resolve_follows(movers_i, movers_p, followers_once)
        elif self._followers_of:
            riders = self._riders
            if riders is None:
                riders = self._build_riders()
            carriers = [k for k, i in enumerate(movers_i) if i in riders]
            if len(carriers) == 1:
                k = carriers[0]
                p = movers_p[k]
                for f in riders[movers_i[k]]:
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
                    movers_p.append(p)
            elif carriers:
                self._soa_resolve_follows(movers_i, movers_p, followers_once)

        # --- commit occupancy ------------------------------------------
        ps = set(pos)
        self._posset = ps
        self._occupied = len(ps)

        # --- wake meet-sleepers on arrivals ----------------------------
        if self._meet_sleepers and movers_i:
            self._soa_wake_meet(movers_i)

        # --- terminations + cascade ------------------------------------
        if terminators:
            self._flush_ar()
            for rid in terminators:
                self._terminate(self.robots[rid])
            self._cascade_terminations()

        # --- bookkeeping ------------------------------------------------
        metrics = self.metrics
        if metrics.first_gather_round is None and self._occupied == 1:
            metrics.first_gather_round = rnd
        if self.replay is not None:
            self.replay.snapshot(rnd, self.positions())
        metrics.rounds_executed += 1
        self.round = rnd + 1

    # -- SoA cold paths -------------------------------------------------
    def _soa_publish(self, i: int, action: Action) -> None:
        """Card publication from the hot loop: facade + own-tuple update.

        Deferred-invalidation reasoning from the general path still holds:
        the publisher's own observation already happened, any co-located
        robot's card tuple was snapshotted at round start, and next round
        rebuilds from the new ``own`` tuple.
        """
        r = self.robots[i]
        self._apply_card(r, action)
        self._own[i] = (r.card,)

    def _soa_reconstruct_movers(
        self, prev_pos: List[int]
    ) -> Tuple[List[int], List[int]]:
        """Recover (rid, port) for every robot that has moved this round.

        Only called when a follow/meet-sleep action appears mid-sweep.  With
        no self-loops (a SoA-mode precondition), ``pos != prev_pos`` is
        exactly "moved", and (destination, entry port) identifies the edge
        uniquely, hence the departure port.
        """
        movers_i: List[int] = []
        movers_p: List[int] = []
        pos = self._pos
        entry = self._entry
        row = self._csr.row_offsets
        nbr = self._csr.neighbor
        ent = self._csr.entry_port
        for j in range(self._nrob):
            old = prev_pos[j]
            new = pos[j]
            if new != old:
                e = entry[j]
                base = row[old]
                for slot in range(base, row[old + 1]):
                    if nbr[slot] == new and ent[slot] == e:
                        movers_i.append(j)
                        movers_p.append(slot - base)
                        break
        return movers_i, movers_p

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
        deactivated: List[int],
        prev_pos: List[int],
    ) -> bool:
        """Everything the hot loop's one-comparison dispatch does not cover:
        card/note-carrying moves and stays, sleeps, follows, terminates.

        Returns the (possibly enabled) mover-tracking flag: follow and
        meet-sleep actions need this round's movers, so if tracking is off
        when one appears, the movers applied so far are reconstructed and
        tracking stays on for the rest of the sweep.  (Notes are trace-only
        and the SoA regime never runs traced, so they are ignored here.)
        """
        r = self.robots[i]
        if action.card is not None:
            self._soa_publish(i, action)
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
                if not track:
                    mi, mp = self._soa_reconstruct_movers(prev_pos)
                    movers_i[:] = mi
                    movers_p[:] = mp
                    track = True
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
                mi, mp = self._soa_reconstruct_movers(prev_pos)
                movers_i[:] = mi
                movers_p[:] = mp
                track = True
        elif kind == FOLLOW_ONCE:
            self._soa_check_follow_target(i, action.target, prev_pos)
            r.leader_label = action.target
            followers_once.append(i)
            if not track:
                mi, mp = self._soa_reconstruct_movers(prev_pos)
                movers_i[:] = mi
                movers_p[:] = mp
                track = True
        elif kind == TERMINATE:
            terminators.append(i)
        else:  # pragma: no cover - factory methods make this unreachable
            raise ProtocolViolation(f"robot {r.label}: unknown action kind {kind}")
        return track

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
        followers_once: List[int],
    ) -> None:
        """Follow resolution + application for SoA rounds.

        Same iterative propagation as the general path: chains ending in
        this round's movers inherit the port; everything else stays.
        Follower moves apply after the (already-applied) movers, in label
        order, with the same validation and partial-application semantics
        on invalid inherited ports.
        """
        robots = self.robots
        followers_of = self._followers_of
        once_by_leader: Dict[int, List[int]] = {}
        for fid in followers_once:
            once_by_leader.setdefault(robots[fid].leader_label, []).append(fid)
        assigned: List[Tuple[int, int]] = []
        stack = [(robots[i].label, p) for i, p in zip(movers_i, movers_p)]
        while stack:
            label, port = stack.pop()
            fs = followers_of.get(label)
            if fs:
                for f in fs:
                    assigned.append((f.rid, port))
                    stack.append((f.label, port))
            fids = once_by_leader.get(label)
            if fids:
                for fid in fids:
                    assigned.append((fid, port))
                    stack.append((robots[fid].label, port))
        for fid in followers_once:
            robots[fid].leader_label = None
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

    def _soa_wake_meet(self, movers_i: List[int]) -> None:
        """Flag every ``wake_on_meet`` sleeper on a node that received an
        arrival this round (follower arrivals included) to wake next round
        — the general path's rule, over the position array."""
        pos = self._pos
        arrivals = {pos[j] for j in movers_i}
        woken = self._woken
        for r in self.robots:
            if r.status == SLEEPING and r.wake_on_meet and pos[r.rid] in arrivals:
                r.woken_early = True
                woken.append(r.rid)

    # ------------------------------------------------------------------
    # The general path (the pre-SoA incremental engine)
    # ------------------------------------------------------------------
    def _step_general(self, active_rids: List[int]) -> None:
        if self._soa_auth:
            self._soa_to_states()
        robots = self.robots
        active = [robots[i] for i in active_rids]

        if self.activation is not None:
            # Weaker-than-synchronous models act here; robots not selected
            # stay awake and unobserved until a later round.  A model that
            # selects nobody while robots are due would stall the run
            # forever, so that contract violation is rejected loudly.
            selected = self.activation.select(active, self.round)
            if not selected:
                raise ProtocolViolation(
                    f"activation model {self.activation.describe()!r} selected "
                    f"no robot at round {self.round} with {len(active)} due"
                )
            active = selected

        trace = self.trace
        rnd = self.round
        csr = self._csr
        row = csr.row_offsets
        nbr_arr = csr.neighbor
        ent_arr = csr.entry_port
        deg_arr = csr.degree
        occ_lists = self._occ
        cards_cache = self._cards

        # --- observation & compute -----------------------------------
        # Cards are "as of the start of the round".  A node's card tuple is
        # built lazily at its *first* active occupant's observation — which
        # runs before any program on that node has acted, and only
        # co-located programs can publish to a node, so the lazy build
        # always sees pre-round cards.  Card publications therefore defer
        # their cache invalidation to after the compute loop.
        # movers as two parallel lists: iterating them with zip() reuses
        # the yielded pair tuple, where a list of (robot, port) tuples
        # would allocate one per mover per round
        movers_r: List[RobotState] = []
        movers_p: List[int] = []
        followers_once: List[RobotState] = []
        terminators: List[RobotState] = []
        published: List[int] = []  # nodes with a card published this round

        for r in active:  # already in label order
            node = r.node
            cards = cards_cache[node]
            if cards is None:
                occ = occ_lists[node]
                # occupant lists are label-sorted; no re-sort needed
                cards = (occ[0].card,) if len(occ) == 1 else tuple(x.card for x in occ)
                cards_cache[node] = cards
            r.active_rounds += 1
            try:
                action = r.send(Observation(rnd, deg_arr[node], r.entry_port, cards))
            except StopIteration:
                raise ProtocolViolation(
                    f"robot {r.label}: program returned without terminating"
                ) from None
            if action is None:
                raise ProtocolViolation(f"robot {r.label}: yielded None instead of an Action")
            if action.card is not None:
                self._apply_card(r, action)
                published.append(r.node)
            if action.note and trace is not None:
                trace.record(rnd, "note", r.label, action.note)

            kind = action.kind
            if kind == MOVE:  # tested first: the hot kind by far
                port = action.port
                # reject None before the range check; `port or 0` would
                # treat port 0 and None alike
                if port is None or not 0 <= port < deg_arr[r.node]:
                    raise ProtocolViolation(
                        f"robot {r.label}: invalid port {port} on a degree-"
                        f"{deg_arr[r.node]} node"
                    )
                movers_r.append(r)
                movers_p.append(port)
            elif kind == STAY:
                pass
            elif kind == SLEEP:
                if action.wake_round is not None and action.wake_round <= rnd:
                    raise ProtocolViolation(
                        f"robot {r.label}: sleep until round {action.wake_round} "
                        f"is not in the future (now {rnd})"
                    )
                if action.wake_round is None and not action.wake_on_meet:
                    raise ProtocolViolation(
                        f"robot {r.label}: unwakeable forever-sleep"
                    )
                r.status = SLEEPING
                r.wake_round = action.wake_round
                r.wake_on_meet = action.wake_on_meet
                self._dormant += 1
                self._active.remove(r.rid)
                if action.wake_round is not None:
                    heapq.heappush(self._wake_heap, (action.wake_round, r.rid))
                if action.wake_on_meet:
                    self._meet_sleepers += 1
                if trace is not None:
                    trace.record(rnd, "sleep", r.label, action.wake_round)
            elif kind == FOLLOW:
                self._check_follow_target(r, action.target)
                r.status = FOLLOWING
                r.leader_label = action.target
                r.wake_round = action.wake_round
                r.on_leader_terminate = action.on_leader_terminate
                self._dormant += 1
                self._active.remove(r.rid)
                if action.wake_round is not None:
                    heapq.heappush(self._wake_heap, (action.wake_round, r.rid))
                self._add_follower(r, action.target)
                if trace is not None:
                    trace.record(rnd, "follow", r.label, action.target)
            elif kind == FOLLOW_ONCE:
                self._check_follow_target(r, action.target)
                r.leader_label = action.target
                followers_once.append(r)
            elif kind == TERMINATE:
                terminators.append(r)
            else:  # pragma: no cover - factory methods make this unreachable
                raise ProtocolViolation(f"robot {r.label}: unknown action kind {kind}")

        # deferred card-publication invalidation (see loop comment above)
        for node in published:
            cards_cache[node] = None

        # --- resolve follows ------------------------------------------
        # Iterative forward propagation from this round's movers over the
        # reverse leader->followers index: a follower chain ending in a
        # mover inherits its port; chains ending anywhere else (stay,
        # sleep, terminate, cycle) stay put, so they never need visiting.
        followers_of = self._followers_of
        assigned: Optional[List[Tuple[RobotState, int]]] = None
        if followers_of or followers_once:
            once_by_leader: Dict[int, List[RobotState]] = {}
            for f in followers_once:
                once_by_leader.setdefault(f.leader_label, []).append(f)
            assigned = []
            stack = list(zip(movers_r, movers_p))
            while stack:
                r, port = stack.pop()
                label = r.label
                fs = followers_of.get(label)
                if fs:
                    for f in fs:
                        assigned.append((f, port))
                        stack.append((f, port))
                fs = once_by_leader.get(label)
                if fs:
                    for f in fs:
                        assigned.append((f, port))
                        stack.append((f, port))
            # one-round follows release leadership after resolution
            for f in followers_once:
                f.leader_label = None
            # movers apply first (label order), then followers in label
            # order — the application order of the reference scheduler
            assigned.sort(key=_moving_label)

        # --- apply moves simultaneously --------------------------------
        # Arrival tracking only matters while a wake_on_meet sleeper
        # exists; tracing is hoisted out of the loop entirely.
        meet_watch = self._meet_sleepers > 0
        arrivals = set()
        occupied = self._occupied
        if trace is None:
            for r, port in zip(movers_r, movers_p):
                old = r.node
                i = row[old] + port
                new = nbr_arr[i]
                ol = occ_lists[old]
                ol.remove(r)
                cards_cache[old] = None
                if not ol:
                    occupied -= 1
                nl = occ_lists[new]
                if nl:
                    lab = r.label
                    j = len(nl)
                    while j and nl[j - 1].label > lab:
                        j -= 1
                    nl.insert(j, r)
                else:
                    nl.append(r)
                    occupied += 1
                cards_cache[new] = None
                r.node = new
                r.entry_port = ent_arr[i]
                r.moves += 1
                if meet_watch:
                    arrivals.add(new)
            self._occupied = occupied
        else:
            # traced path: _apply_move maintains self._occupied directly
            for r, port in zip(movers_r, movers_p):
                entry = self._apply_move(r, port, arrivals, meet_watch)
                trace.record(rnd, "move", r.label, (port, entry))
        # follower moves (rare path, so per-event trace checks are fine):
        # validated here, in application order, because a non-co-located
        # follower (possible in non-strict mode) can inherit a port its own
        # node lacks and the raw CSR indexing must never see it.  Raising
        # mid-application leaves the same partially-applied state and error
        # as the seed scheduler's graph.traverse.
        if assigned:
            for f, port in assigned:
                if not 0 <= port < deg_arr[f.node]:
                    raise PortGraphError(
                        f"node {f.node} has degree {deg_arr[f.node]}; port {port} is invalid"
                    )
                entry = self._apply_move(f, port, arrivals, meet_watch)
                if trace is not None:
                    trace.record(rnd, "move", f.label, (port, entry))

        # --- wake sleepers on arrivals ---------------------------------
        if arrivals:
            woken = self._woken
            for r in self.robots:
                if (
                    r.status == SLEEPING
                    and r.wake_on_meet
                    and r.node in arrivals
                ):
                    r.woken_early = True
                    woken.append(r.rid)

        # --- terminations + cascade ------------------------------------
        if terminators:
            for r in terminators:
                self._terminate(r)
            self._cascade_terminations()

        # --- bookkeeping ------------------------------------------------
        metrics = self.metrics
        if metrics.first_gather_round is None and self._occupied == 1:
            metrics.first_gather_round = rnd
        if self.replay is not None:
            self.replay.snapshot(rnd, self.positions())
        metrics.rounds_executed += 1
        self.round = rnd + 1

    # ------------------------------------------------------------------
    def _apply_card(self, r: RobotState, action: Action) -> None:
        # NB: does *not* invalidate the node's card cache — the hot loop
        # defers that until every active robot has observed (cards are
        # "as of the start of the round")
        if action.card is not None:
            card = dict(action.card)
            card["id"] = r.label  # the label is not forgeable
            r.card = card
            bits = card_bits(card)
            if bits > self.metrics.max_card_bits:
                self.metrics.max_card_bits = bits

    def _check_follow_target(self, r: RobotState, target: Optional[int]) -> None:
        if target is None or target not in self.by_label:
            raise ProtocolViolation(f"robot {r.label}: follow target {target} unknown")
        if target == r.label:
            raise ProtocolViolation(f"robot {r.label}: cannot follow itself")
        if self.strict and self.by_label[target].node != r.node:
            raise ProtocolViolation(
                f"robot {r.label}: follow target {target} is not co-located"
            )

    def _apply_move(self, r: RobotState, port: int, arrivals: set, meet_watch: bool) -> int:
        """Apply one resolved move with full occupancy/cache bookkeeping.

        Cold-path helper (traced movers and follower moves); the untraced
        mover loop in ``_step_general`` inlines the same logic over local
        bindings.  Returns the entry port for trace recording.
        """
        csr = self._csr
        old = r.node
        i = csr.row_offsets[old] + port
        new = csr.neighbor[i]
        entry = csr.entry_port[i]
        occ_lists = self._occ
        cards_cache = self._cards
        ol = occ_lists[old]
        ol.remove(r)
        cards_cache[old] = None
        if not ol:
            self._occupied -= 1
        nl = occ_lists[new]
        if nl:
            lab = r.label
            j = len(nl)
            while j and nl[j - 1].label > lab:
                j -= 1
            nl.insert(j, r)
        else:
            nl.append(r)
            self._occupied += 1
        cards_cache[new] = None
        r.node = new
        r.entry_port = entry
        r.moves += 1
        if meet_watch:
            arrivals.add(new)
        return entry

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


def _moving_label(entry: Tuple[RobotState, int]) -> int:
    return entry[0].label

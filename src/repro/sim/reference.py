"""The seed (pre-fast-path) scheduler, kept verbatim as a reference.

:class:`ReferenceScheduler` preserves the original straightforward
``_step``: it rebuilds the full node-occupancy dict every round, re-sorts
co-located robots, resolves follows with a recursive memoized closure, and
cascades terminations with an iterated fixpoint over all robots.  It is the
*executable specification* of the round semantics.

Two consumers:

* ``tests/test_fastpath_differential.py`` runs it side-by-side with the
  optimized :class:`~repro.sim.scheduler.Scheduler` and asserts bit-identical
  traces, positions and metrics;
* ``benchmarks/bench_simcore.py`` measures the fast path's speedup against
  it, so the optimization claim in ``BENCH_simcore.json`` is a number, not
  an assertion.

It must not be "improved": its value is being the unoptimized original.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
from repro.sim.errors import ProtocolViolation, SimulationDeadlock
from repro.sim.metrics import card_bits
from repro.sim.robot import RobotState, expand_walks
from repro.sim.scheduler import Scheduler

__all__ = ["ReferenceScheduler"]


class ReferenceScheduler(Scheduler):
    """Seed scheduler: the original ``_step`` and cascade, unoptimized.

    Shares construction and ``run`` with :class:`Scheduler`, but brings
    the whole per-round machinery — ``_step``, ``_wake_due``,
    ``_apply_card``, ``_check_follow_target``, ``_terminate``, the cascade
    and the ``all_*`` queries — in the seed versions, so benchmark
    comparisons measure the true pre-fast-path cost (the arrays and caches
    ``__init__`` builds simply go unused here).  Its state lives on the
    :class:`RobotState` attributes, so it also reads ``positions`` from
    them, has nothing to synchronize, and runs every program through
    :func:`~repro.sim.robot.expand_walks`, as the seed predates declared
    walks.
    """

    #: Every round goes through the seed ``_step`` below, never into the
    #: SoA loop, whose arrays stay unwritten here.
    _uses_soa = False

    def _prime(self) -> None:
        """Wrap each program in the walk expander, then prime it."""
        for r in self.robots:
            r.gen = expand_walks(r.gen, r.label)
            r.send = r.gen.send
        super()._prime()

    def positions(self) -> Dict[int, int]:
        """label -> node, read off the authoritative attributes."""
        return {r.label: r.node for r in self.robots}

    def _sync_states(self) -> None:
        """Nothing to copy: the attributes are the seed's only state."""

    # -- seed queries (linear scans; the fast path keeps counters) ------
    def all_terminated(self) -> bool:
        """Linear scan: has every robot terminated?"""
        return all(r.status == rb.TERMINATED for r in self.robots)

    def all_gathered(self) -> bool:
        """Linear scan: are all robots on one node?"""
        nodes = {r.node for r in self.robots}
        return len(nodes) == 1

    def _next_wake_round(self) -> Optional[int]:
        """Seed scan over all robots (the fast path reads its wake-schedule
        heap instead, which seed sleep/follow branches never feed)."""
        best: Optional[int] = None
        for r in self.robots:
            if r.status in (rb.SLEEPING, rb.FOLLOWING) and r.wake_round is not None:
                if best is None or r.wake_round < best:
                    best = r.wake_round
        return best

    def _wake_due(self) -> List[RobotState]:
        """Apply due wake-ups; return the robots active this round."""
        active = []
        for r in self.robots:
            if r.status == rb.SLEEPING:
                due = r.wake_round is not None and self.round >= r.wake_round
                if due or r.woken_early:
                    r.status = rb.ACTIVE
                    r.woken_early = False
                    r.wake_round = None
                    r.wake_on_meet = False
                    if self.trace is not None:
                        self.trace.record(self.round, "wake", r.label, "due" if due else "meet")
            elif r.status == rb.FOLLOWING:
                if r.wake_round is not None and self.round >= r.wake_round:
                    r.status = rb.ACTIVE
                    r.leader_label = None
                    r.wake_round = None
                if r.woken_early:
                    # set when the leader terminated with on_leader_terminate="wake"
                    r.status = rb.ACTIVE
                    r.leader_label = None
                    r.woken_early = False
                    r.wake_round = None
            if r.status == rb.ACTIVE:
                active.append(r)
        return active

    def _apply_card(self, r: RobotState, action: Action) -> None:
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

    def _terminate(self, r: RobotState) -> None:
        if r.status == rb.TERMINATED:
            return
        r.status = rb.TERMINATED
        r.terminated_round = self.round
        if not self.all_gathered():
            self.metrics.terminations_all_gathered = False
        if self.trace is not None:
            self.trace.record(self.round, "terminate", r.label, None)
        try:
            r.gen.close()
        except RuntimeError:  # pragma: no cover - generator refusing to close
            pass

    def _step(self) -> None:
        active = self._wake_due()

        if not active:
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

        # --- observation & compute -----------------------------------
        occupants: Dict[int, List[RobotState]] = {}
        for r in self.robots:
            occupants.setdefault(r.node, []).append(r)
        cards_at: Dict[int, Tuple[dict, ...]] = {
            node: tuple(x.card for x in sorted(occ, key=lambda s: s.label))
            for node, occ in occupants.items()
        }

        movers: List[Tuple[RobotState, int]] = []  # (robot, port)
        followers_once: List[RobotState] = []
        terminators: List[RobotState] = []

        for r in active:  # already in label order
            obs = Observation(
                self.round,
                self.graph.degree(r.node),
                r.entry_port,
                cards_at[r.node],
            )
            r.active_rounds += 1
            try:
                action = r.gen.send(obs)
            except StopIteration:
                raise ProtocolViolation(
                    f"robot {r.label}: program returned without terminating"
                ) from None
            if action is None:
                raise ProtocolViolation(f"robot {r.label}: yielded None instead of an Action")
            self._apply_card(r, action)
            if action.note and self.trace is not None:
                self.trace.record(self.round, "note", r.label, action.note)

            kind = action.kind
            if kind == STAY:
                pass
            elif kind == MOVE:
                # (the seed's original expression, kept verbatim; the fast
                # path reorders it so None is rejected before range-checking)
                if not (0 <= (action.port or 0) < self.graph.degree(r.node)) or action.port is None:
                    raise ProtocolViolation(
                        f"robot {r.label}: invalid port {action.port} on a degree-"
                        f"{self.graph.degree(r.node)} node"
                    )
                movers.append((r, action.port))
            elif kind == SLEEP:
                if action.wake_round is not None and action.wake_round <= self.round:
                    raise ProtocolViolation(
                        f"robot {r.label}: sleep until round {action.wake_round} "
                        f"is not in the future (now {self.round})"
                    )
                if action.wake_round is None and not action.wake_on_meet:
                    raise ProtocolViolation(
                        f"robot {r.label}: unwakeable forever-sleep"
                    )
                r.status = rb.SLEEPING
                r.wake_round = action.wake_round
                r.wake_on_meet = action.wake_on_meet
                if self.trace is not None:
                    self.trace.record(self.round, "sleep", r.label, action.wake_round)
            elif kind == FOLLOW:
                self._check_follow_target(r, action.target)
                r.status = rb.FOLLOWING
                r.leader_label = action.target
                r.wake_round = action.wake_round
                r.on_leader_terminate = action.on_leader_terminate
                if self.trace is not None:
                    self.trace.record(self.round, "follow", r.label, action.target)
            elif kind == FOLLOW_ONCE:
                self._check_follow_target(r, action.target)
                r.leader_label = action.target
                followers_once.append(r)
            elif kind == TERMINATE:
                terminators.append(r)
            else:  # pragma: no cover - factory methods make this unreachable
                raise ProtocolViolation(f"robot {r.label}: unknown action kind {kind}")

        # --- resolve follows ------------------------------------------
        # resolved move per label: port or None (stay), computed lazily with
        # memoization over the follow chains.
        resolved: Dict[int, Optional[int]] = {}
        once_labels = {r.label for r in followers_once}
        for r, port in movers:
            resolved[r.label] = port
        for r in self.robots:
            if r.status == rb.TERMINATED:
                resolved.setdefault(r.label, None)

        def resolve(label: int, chain: set) -> Optional[int]:
            if label in resolved:
                return resolved[label]
            st = self.by_label[label]
            if st.status == rb.FOLLOWING or label in once_labels:
                if label in chain:  # follow cycle: nobody moves
                    resolved[label] = None
                    return None
                chain.add(label)
                leader = st.leader_label
                if leader is None or leader not in self.by_label:
                    resolved[label] = None
                    return None
                resolved[label] = resolve(leader, chain)
                return resolved[label]
            resolved[label] = None
            return None

        moving: List[Tuple[RobotState, int]] = list(movers)
        for r in self.robots:
            if r.status == rb.FOLLOWING or r.label in once_labels:
                port = resolve(r.label, set())
                if port is not None:
                    # follower must share the leader's node to take the same port
                    moving.append((r, port))

        # one-round follows release leadership after resolution
        for r in followers_once:
            r.leader_label = None

        # --- apply moves simultaneously --------------------------------
        arrivals: Dict[int, int] = {}
        for r, port in moving:
            new_node, entry = self.graph.traverse(r.node, port)
            r.node = new_node
            r.entry_port = entry
            r.moves += 1
            arrivals[new_node] = arrivals.get(new_node, 0) + 1
            if self.trace is not None:
                self.trace.record(self.round, "move", r.label, (port, entry))

        # --- wake sleepers on arrivals ---------------------------------
        if arrivals:
            for r in self.robots:
                if (
                    r.status == rb.SLEEPING
                    and r.wake_on_meet
                    and r.node in arrivals
                ):
                    r.woken_early = True

        # --- terminations + cascade ------------------------------------
        if terminators:
            for r in terminators:
                self._terminate(r)
            self._cascade_terminations()

        # --- bookkeeping ------------------------------------------------
        if self.metrics.first_gather_round is None and self.all_gathered():
            self.metrics.first_gather_round = self.round
        if self.replay is not None:
            self.replay.snapshot(self.round, self.positions())
        self.metrics.rounds_executed += 1
        self.round += 1

    def _cascade_terminations(self) -> None:
        """Followers whose (transitive) leader terminated react per their mode."""
        changed = True
        while changed:
            changed = False
            for r in self.robots:
                if r.status != rb.FOLLOWING or r.leader_label is None:
                    continue
                leader = self.by_label.get(r.leader_label)
                if leader is None or leader.status != rb.TERMINATED:
                    continue
                if r.on_leader_terminate == "terminate":
                    self._terminate(r)
                    changed = True
                else:  # "wake"
                    r.woken_early = True

"""Batched replica engine: lockstep multi-seed simulation.

The probabilistic experiments in this repository are *replica campaigns*:
the same graph and program run under dozens of seeds (different placements,
labels, and program randomness).  Running each replica through its own
:class:`~repro.sim.world.World` pays the full scheduler overhead R times;
this module runs R replicas **in lockstep** over shared immutable data —
one graph, one compiled CSR kernel, one set of hoisted adjacency bindings —
and retires replicas individually as they terminate.

Architecture
------------

Each replica is backed by a real :class:`~repro.sim.scheduler.Scheduler`
(sharing the one graph), so every replica owns exactly the state a scalar
run would own.  The batch layer adds two things on top:

* **R-wide parallel hot-state views** — ``_views[j]`` caches replica
  ``j``'s struct-of-arrays hot state (``_pos``/``_entry``/``_moves``/
  ``_own``/``_sends``/``_obs``/``_labels``) as one tuple, so the lockstep
  loop reaches each replica's arrays without per-round attribute walks —
  plus backend-managed R-wide bookkeeping arrays (per-replica rounds,
  moves, executed-round and error counters).  The bookkeeping backend is
  NumPy when importable and a pure-list implementation otherwise; both are
  integer-exact, so results are bit-identical either way (the differential
  suite runs both).
* **A fused round loop** — the common regime of
  :meth:`Scheduler._step_soa` (every due robot active, at most one shared
  node, no pending wakes/followers/meet-sleepers, no self-loop) is inlined
  here with the CSR bindings hoisted *once for all replicas* and the
  per-round scratch lists shared across replicas, eliminating the per-round
  call/allocation overhead a scalar loop pays R times.  Any round outside
  that regime falls back to the replica's own ``Scheduler._step()`` — the
  full engine, every semantic: untraced, that is ``_step_soa`` with its
  riders and meet-sleeper wakes, or ``_step_general`` on a self-loop graph
  — so correctness never depends on the fused loop covering a case.  The
  fused body mirrors ``_step_soa`` statement for statement, except that
  ``_step_soa``'s all-gathered closed form is left to the slices' generic
  shared-node sweep, which builds the same card tuple
  (``tests/test_batch_differential.py`` pins traces, positions, statuses,
  and every metric bit-for-bit against scalar runs).

Failure isolation matches the runtime layer's: an exception inside one
replica (protocol violation, deadlock, timeout) retires that replica with
an error outcome — message-identical to what the scalar path raises — and
the rest of the batch keeps running.

The engine is deliberately *clean-model only*: no tracing, no replay, no
activation models, no fault plans.  Those regimes are per-replica
divergent by nature; the runtime layer (:mod:`repro.runtime`) only groups
specs into batches when they qualify (see ``RunSpec.is_clean``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.graphs.port_graph import PortGraph
from repro.sim.actions import MOVE, STAY
from repro.sim.errors import ProtocolViolation
from repro.sim.robot import RobotSpec
from repro.sim.scheduler import Scheduler
from repro.sim.world import DEFAULT_MAX_ROUNDS, RunResult, package_result

try:  # NumPy is a declared dependency, but the engine must not require it:
    import numpy as _np  # the pure-list backend keeps results bit-identical
except ImportError:  # pragma: no cover - exercised via backend="list"
    _np = None

__all__ = [
    "ReplicaBatch",
    "ReplicaOutcome",
    "BatchSummary",
    "HAVE_NUMPY",
    "resolve_backend",
    "make_replica_batch",
    "BACKENDS",
]

HAVE_NUMPY = _np is not None


# ---------------------------------------------------------------------------
# Bookkeeping backends
# ---------------------------------------------------------------------------


class _ListBackend:
    """Pure-Python R-wide integer arrays (always available)."""

    name = "list"

    @staticmethod
    def zeros(n: int):
        return [0] * n

    @staticmethod
    def total(arr) -> int:
        return sum(arr)

    @staticmethod
    def maximum(arr) -> int:
        return max(arr) if arr else 0

    @staticmethod
    def count_nonzero(arr) -> int:
        return sum(1 for v in arr if v)

    @staticmethod
    def tolist(arr) -> List[int]:
        return list(arr)


class _NumpyBackend:
    """R-wide int64 NumPy arrays; aggregation runs vectorized.

    Every operation is integer-exact, so summaries are bit-identical to the
    list backend's — NumPy buys aggregation speed at large R, nothing else.
    """

    name = "numpy"

    @staticmethod
    def zeros(n: int):
        return _np.zeros(n, dtype=_np.int64)

    @staticmethod
    def total(arr) -> int:
        return int(arr.sum())

    @staticmethod
    def maximum(arr) -> int:
        return int(arr.max()) if arr.size else 0

    @staticmethod
    def count_nonzero(arr) -> int:
        return int(_np.count_nonzero(arr))

    @staticmethod
    def tolist(arr) -> List[int]:
        return [int(v) for v in arr]


if HAVE_NUMPY:

    class _Numpy2DBackend(_NumpyBackend):
        """Bookkeeping for the replica-major 2D engine.

        The R-wide bookkeeping ops are exactly :class:`_NumpyBackend`'s —
        what changes under ``backend="numpy2d"`` is the *driver*:
        :func:`make_replica_batch` returns a
        :class:`~repro.sim.batch2d.Replica2DBatch`, which front-runs the
        lockstep loop with whole-replica array kernels (see that module).
        """

        name = "numpy2d"


#: Selectable backends by name; ``"auto"`` prefers NumPy when importable.
BACKENDS = {"list": _ListBackend}
if HAVE_NUMPY:
    BACKENDS["numpy"] = _NumpyBackend
    BACKENDS["numpy2d"] = _Numpy2DBackend


def resolve_backend(name: str):
    """The backend class for ``name`` (``"auto"``/``"numpy2d"``/``"numpy"``/``"list"``).

    ``"auto"`` prefers the plain NumPy bookkeeping backend: the 2D
    replica-major driver only pays off for fleets that declare a
    :class:`~repro.sim.vector.VectorProgram`, so it stays opt-in.
    """
    if name == "auto":
        return BACKENDS["numpy"] if HAVE_NUMPY else BACKENDS["list"]
    try:
        return BACKENDS[name]
    except KeyError:
        known = sorted(BACKENDS) + ["auto"]
        raise ValueError(f"unknown batch backend {name!r}; known: {known}") from None


def make_replica_batch(
    graph: PortGraph,
    fleets: Sequence[Sequence[RobotSpec]],
    strict: bool = False,
    backend: str = "auto",
) -> "ReplicaBatch":
    """Construct the right batch engine for ``backend``.

    ``"numpy2d"`` selects the replica-major
    :class:`~repro.sim.batch2d.Replica2DBatch` (imported lazily — the
    module needs NumPy); every other name builds a plain
    :class:`ReplicaBatch`.  All engines are bit-identical on results; the
    name only picks the execution strategy.
    """
    ops = resolve_backend(backend)  # raises on unknown names, resolves auto
    if ops.name == "numpy2d":
        from repro.sim.batch2d import Replica2DBatch

        return Replica2DBatch(graph, fleets, strict=strict)
    return ReplicaBatch(graph, fleets, strict=strict, backend=ops.name)


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


@dataclass
class ReplicaOutcome:
    """What one replica produced: a result, or an isolated failure.

    ``error``/``error_type`` carry the stringified exception exactly as the
    scalar path (``repro.runtime.spec.execute_spec``) would report it, so a
    batched campaign and a scalar campaign fail identically.
    """

    result: Optional[RunResult] = None
    error: Optional[str] = None
    error_type: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True iff this replica produced a result and no error."""
        return self.result is not None and self.error is None


@dataclass
class BatchSummary:
    """Aggregate accounting for one :meth:`ReplicaBatch.run` call."""

    replicas: int = 0
    completed: int = 0
    failed: int = 0
    rounds_executed_total: int = 0
    total_moves: int = 0
    max_rounds: int = 0
    backend: str = "list"


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ReplicaBatch:
    """R seed-replicas of one configuration, run in lockstep.

    Parameters
    ----------
    graph:
        The shared (immutable) port graph every replica runs on.
    fleets:
        One list of :class:`RobotSpec` per replica.  Replicas are
        independent — different starts, labels, and program instances —
        but share the graph and its compiled CSR kernel.
    strict:
        Passed through to each replica's scheduler.
    backend:
        ``"auto"`` (NumPy when importable), ``"numpy"``, or ``"list"`` —
        selects the R-wide bookkeeping backend.  Results are bit-identical
        across backends.
    """

    def __init__(
        self,
        graph: PortGraph,
        fleets: Sequence[Sequence[RobotSpec]],
        strict: bool = False,
        backend: str = "auto",
    ):
        self.graph = graph
        self.ops = resolve_backend(backend)
        # CSR bindings shared by every replica's slice (one graph, one
        # compiled kernel) and the five per-round scratch lists of
        # Scheduler._step_soa, allocated once for the whole batch.
        csr = graph.csr
        self._row = csr.row_offsets
        self._nbr = csr.neighbor
        self._ent = csr.entry_port
        self._deg = csr.degree
        self._scratch: tuple = ([], [], [], [], [])
        self.scheds: List[Optional[Scheduler]] = []
        self.outcomes: List[Optional[ReplicaOutcome]] = []
        # R-wide parallel views of each replica's SoA hot state; one tuple
        # per replica so the fused loop unpacks 7 arrays in one indexed load
        self._views: List[Optional[tuple]] = []
        for specs in fleets:
            # Construction (label validation, program priming) can raise per
            # replica; isolate it exactly like the scalar path would.
            try:
                sched = Scheduler(graph, list(specs), strict=strict)
            except Exception as exc:
                self.scheds.append(None)
                self._views.append(None)
                self.outcomes.append(
                    ReplicaOutcome(error=str(exc), error_type=type(exc).__name__)
                )
                continue
            self.scheds.append(sched)
            self._views.append(
                (
                    sched._pos,
                    sched._entry,
                    sched._moves,
                    sched._own,
                    sched._sends,
                    sched._obs,
                    sched._labels,
                    [0] * len(sched._pos),  # reusable prev-position buffer
                )
            )
            self.outcomes.append(None)
        self.summary = BatchSummary(replicas=len(self.scheds), backend=self.ops.name)

    #: Rounds one replica may advance per lockstep turn.  Purely a
    #: scheduling knob — replicas are independent, so the slice size cannot
    #: affect any result; it only amortizes the per-turn gate checks and
    #: view unpacking over many pure-hot rounds.
    SLICE = 64

    # ------------------------------------------------------------------
    def run(
        self, max_rounds: int = DEFAULT_MAX_ROUNDS, stop_on_gather: bool = False
    ) -> List[ReplicaOutcome]:
        """Run every replica to completion; outcomes in replica order.

        Per-replica semantics are those of ``Scheduler.run`` +
        ``package_result``: the same ``stop_on_gather`` early exit, the same
        ``max_rounds`` timeout (reported as an error outcome instead of a
        raised exception), the same finalized metrics.

        The driver is a two-level loop.  The outer *turn* applies the full
        gate stack — ``Scheduler.run``'s checks, then the regime checks of
        ``_step`` — exactly as scalar execution would.  Once a replica is
        known to be in the pure-hot regime, an inner *slice*
        (:meth:`_slice_pair` for two-robot rendezvous fleets,
        :meth:`_slice_general` otherwise) advances it up to :data:`SLICE`
        rounds with everything hoisted: the CSR arrays, the replica's view
        tuple, and a precomputed ``stop_round`` that folds the timeout
        bound, the next scheduled wake, and the slice budget into one
        comparison.  Pure-hot rounds (moves/stays only) cannot change any
        gated state, so the hoisting is sound; the moment a *cold* action
        appears (sleep/follow/terminate/card — handled through the
        scheduler's own ``_soa_cold``) the slice ends after committing that
        round, and the next turn re-evaluates every gate.
        """
        ops = self.ops
        R = len(self.scheds)
        # R-wide bookkeeping (backend-managed): filled at retirement,
        # aggregated once at the end.
        rounds_arr = ops.zeros(R)
        executed_arr = ops.zeros(R)
        moves_arr = ops.zeros(R)
        error_arr = ops.zeros(R)

        scheds = self.scheds
        views = self._views
        outcomes = self.outcomes
        fused_ok = not self.graph.csr.has_self_loop
        slice_budget = self.SLICE
        scratch = self._scratch

        live = [j for j in range(R) if outcomes[j] is None]
        # Replica-major front-run: subclasses (Replica2DBatch) may retire
        # whole replicas through array kernels before the lockstep loop ever
        # steps a generator.  The base engine keeps every replica.
        live = self._vector_phase(
            live, rounds_arr, executed_arr, moves_arr, error_arr,
            max_rounds, stop_on_gather,
        )
        while live:
            nxt: List[int] = []
            for j in live:
                sched = scheds[j]
                try:
                    # --- Scheduler.run loop gates, in its exact order ----
                    if sched._alive == 0:
                        self._retire(j, rounds_arr, executed_arr, moves_arr)
                        continue
                    if stop_on_gather and sched.metrics.first_gather_round is not None:
                        self._retire(j, rounds_arr, executed_arr, moves_arr)
                        continue
                    rnd = sched.round
                    if rnd > max_rounds:
                        raise sched._timeout_error()

                    # --- regime gate (mirrors _step + _step_soa entry) ---
                    # Wakes due or pending early-woken robots, followers,
                    # meet-sleepers, or a self-loop graph: the replica's own
                    # engine handles the round with full semantics.
                    heap = sched._wake_heap
                    if (
                        not fused_ok
                        or sched._woken
                        or (heap and heap[0][0] <= rnd)
                        or sched._followers_of
                        or sched._meet_sleepers
                    ):
                        sched._step()
                        nxt.append(j)
                        continue
                    if not sched._active:
                        sched._step()  # fast-forward jump (or deadlock)
                        nxt.append(j)
                        continue

                    # --- the hot slice -----------------------------------
                    # Everything that could end the fused regime at a known
                    # round folds into one bound: the timeout check fires at
                    # max_rounds + 1, the earliest scheduled wake needs
                    # _wake_due, and the slice budget caps the turn.  Cold
                    # actions and gathering are detected inside the slice.
                    stop_round = rnd + slice_budget
                    if stop_round > max_rounds:
                        stop_round = max_rounds + 1
                    if heap and heap[0][0] < stop_round:
                        stop_round = heap[0][0]
                    view = views[j]
                    if len(view[0]) == 2:
                        self._slice_pair(sched, view, rnd, stop_round, stop_on_gather)
                    else:
                        self._slice_general(sched, view, rnd, stop_round, stop_on_gather)
                    nxt.append(j)
                except Exception as exc:
                    # Isolated failure: the same exception the scalar path
                    # would surface, stringified identically; siblings
                    # keep running.  Scratch may be mid-round dirty.
                    for lst in scratch:
                        lst.clear()
                    error_arr[j] = 1
                    outcomes[j] = ReplicaOutcome(
                        error=str(exc), error_type=type(exc).__name__
                    )
            live = nxt

        failed_init = sum(
            1 for s, o in zip(scheds, outcomes) if s is None and o is not None
        )
        self.summary = BatchSummary(
            replicas=R,
            completed=sum(1 for o in outcomes if o is not None and o.ok),
            failed=ops.count_nonzero(error_arr) + failed_init,
            rounds_executed_total=ops.total(executed_arr),
            total_moves=ops.total(moves_arr),
            max_rounds=ops.maximum(rounds_arr),
            backend=ops.name,
        )
        return list(outcomes)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def _vector_phase(
        self, live, rounds_arr, executed_arr, moves_arr, error_arr,
        max_rounds: int, stop_on_gather: bool,
    ) -> List[int]:
        """Hook for replica-major execution; returns the replicas still live.

        The base engine vectorizes nothing — every replica proceeds to the
        lockstep generator loop.  :class:`~repro.sim.batch2d.Replica2DBatch`
        overrides this to retire hot replicas through array kernels.
        """
        return live

    # ------------------------------------------------------------------
    # Slices: the fused _step_soa body, amortized over many rounds
    # ------------------------------------------------------------------
    def _slice_general(
        self, sched: Scheduler, view: tuple, rnd: int, stop_round: int,
        stop_on_gather: bool,
    ) -> None:
        """Advance one replica through pure-hot rounds until ``stop_round``,
        a cold action, gathering (under ``stop_on_gather``), or an error.

        The body mirrors ``Scheduler._step_soa`` statement for statement —
        including the closed-form single-duplicate extraction and the
        O(k log k) shared-node sweep — with the occupancy snapshot and the
        deferred counters kept in locals and flushed once per slice (the
        ``finally``), and the five per-round scratch lists shared across all
        replicas of the batch.  Cold actions delegate to the scheduler's
        own ``_soa_cold`` after syncing the deferred state it reads.
        ``_step_soa``'s all-gathered closed form is left to the sweep, which
        builds the same tuple: it pays off for follower groups riding their
        leader, and slices never run while followers exist.
        """
        pos, entry, mvs, own, sends, obs_l, labels, prev_pos = view
        row = self._row
        nbr = self._nbr
        ent = self._ent
        degA = self._deg
        (movers_i, movers_p, terminators, followers_once,
         deactivated) = self._scratch
        scratch = self._scratch
        active = sched._active
        metrics = sched.metrics
        first_gather = metrics.first_gather_round
        nrob = len(pos)
        occupied = sched._occupied
        posset = sched._posset
        ar_pending = sched._ar_pending
        executed = 0
        try:
            while rnd < stop_round:
                # start-of-round co-location snapshot (the excess-regime
                # split of Scheduler._step_soa)
                excess = nrob - occupied
                if excess == 0:
                    dup = -1
                    dup_cards = None
                    shared = None
                elif excess == 1:
                    dup = sum(pos) - sum(posset)
                    i1 = pos.index(dup)
                    i2 = pos.index(dup, i1 + 1)
                    dup_cards = (own[i1][0], own[i2][0])
                    shared = None
                else:
                    dup = -1
                    dup_cards = None
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
                prev_pos[:] = pos
                ar_pending += 1
                track = False
                cold = False
                for i in active:
                    node = pos[i]
                    ob = obs_l[i]
                    ob.round = rnd
                    ob.degree = dg = degA[node]
                    ob.entry_port = entry[i]
                    if shared is None:
                        ob.cards = own[i] if node != dup else dup_cards
                    else:
                        cds = shared.get(node)
                        ob.cards = own[i] if cds is None else cds
                    try:
                        a = sends[i](ob)
                    except StopIteration:
                        raise ProtocolViolation(
                            f"robot {labels[i]}: program returned "
                            f"without terminating"
                        ) from None
                    try:
                        kind = a.hot_kind
                    except AttributeError:
                        if a is None:
                            raise ProtocolViolation(
                                f"robot {labels[i]}: yielded None "
                                f"instead of an Action"
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
                                f"robot {labels[i]}: invalid port {p} "
                                f"on a degree-{dg} node"
                            )
                        slot = row[node] + p
                        pos[i] = nbr[slot]
                        entry[i] = ent[slot]
                        mvs[i] += 1
                        if track:
                            movers_i.append(i)
                            movers_p.append(p)
                    elif kind != STAY:
                        # _soa_cold reads/flushes the deferred active-round
                        # counter and (for terminations later this round)
                        # the scheduler's round; sync both ways.
                        cold = True
                        sched._ar_pending = ar_pending
                        sched.round = rnd
                        track = sched._soa_cold(
                            i, a, rnd, track,
                            movers_i, movers_p, terminators,
                            followers_once, deactivated, prev_pos,
                        )
                        ar_pending = sched._ar_pending

                # --- commit (mirrors _step_soa's tail) -------------------
                # Deactivations, follows, meet wake-ups, and terminations
                # can only exist after a cold action (the outer gate
                # excludes persistent followers and meet-sleepers), so the
                # pure-hot commit is just the occupancy snapshot and the
                # counters.
                if cold:
                    if deactivated:
                        for rid in deactivated:
                            active.remove(rid)
                    if followers_once or sched._followers_of:
                        sched._soa_resolve_follows(
                            movers_i, movers_p, followers_once
                        )
                ps = set(pos)
                posset = ps
                occupied = len(ps)
                if cold:
                    if sched._meet_sleepers and movers_i:
                        sched._soa_wake_meet(movers_i)
                    if terminators:
                        # _terminate reads the committed round and
                        # occupancy; sync them first.
                        sched.round = rnd
                        sched._posset = ps
                        sched._occupied = occupied
                        sched._ar_pending = ar_pending
                        sched._flush_ar()
                        ar_pending = 0
                        robots = sched.robots
                        for rid in terminators:
                            sched._terminate(robots[rid])
                        sched._cascade_terminations()
                executed += 1
                rnd += 1
                if first_gather is None and occupied == 1:
                    first_gather = rnd - 1
                    metrics.first_gather_round = first_gather
                    if stop_on_gather:
                        # the shared scratch must never leak into the next
                        # replica's slice, whatever the exit path
                        if cold:
                            for lst in scratch:
                                lst.clear()
                        break
                if cold:
                    # Cold actions may invalidate every hoisted gate (new
                    # wakes, followers, terminations); end the slice and
                    # re-gate next turn.
                    for lst in scratch:
                        lst.clear()
                    break
        finally:
            # One flush per slice: local state becomes the scheduler's
            # truth again (also on the error path, so isolated failures
            # report a consistent round).
            sched.round = rnd
            sched._posset = posset
            sched._occupied = occupied
            sched._ar_pending = ar_pending
            metrics.rounds_executed += executed

    def _slice_pair(
        self, sched: Scheduler, view: tuple, rnd: int, stop_round: int,
        stop_on_gather: bool,
    ) -> None:
        """:meth:`_slice_general` specialized for two-robot fleets.

        ``k = 2`` is the paper's rendezvous configuration and the regime
        where per-round scheduler overhead dominates the two program
        activations, so it gets the leanest loop: co-location is one
        position comparison (no ``set`` build, no index scans — the
        duplicate node and both card tuples are immediate), and the
        occupancy set is materialized only at slice exit and around
        terminations.  Semantics are pinned by the same differential suite
        as the general slice.
        """
        pos, entry, mvs, own, sends, obs_l, labels, prev_pos = view
        row = self._row
        nbr = self._nbr
        ent = self._ent
        degA = self._deg
        (movers_i, movers_p, terminators, followers_once,
         deactivated) = self._scratch
        scratch = self._scratch
        active = sched._active
        metrics = sched.metrics
        first_gather = metrics.first_gather_round
        occupied = sched._occupied
        ar_pending = sched._ar_pending
        executed = 0
        try:
            while rnd < stop_round:
                if occupied == 2:
                    dup = -1
                    dup_cards = None
                else:  # both robots share the one occupied node
                    dup = pos[0]
                    dup_cards = (own[0][0], own[1][0])
                prev_pos[:] = pos
                ar_pending += 1
                track = False
                cold = False
                for i in active:
                    node = pos[i]
                    ob = obs_l[i]
                    ob.round = rnd
                    ob.degree = dg = degA[node]
                    ob.entry_port = entry[i]
                    ob.cards = own[i] if node != dup else dup_cards
                    try:
                        a = sends[i](ob)
                    except StopIteration:
                        raise ProtocolViolation(
                            f"robot {labels[i]}: program returned "
                            f"without terminating"
                        ) from None
                    try:
                        kind = a.hot_kind
                    except AttributeError:
                        if a is None:
                            raise ProtocolViolation(
                                f"robot {labels[i]}: yielded None "
                                f"instead of an Action"
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
                                f"robot {labels[i]}: invalid port {p} "
                                f"on a degree-{dg} node"
                            )
                        slot = row[node] + p
                        pos[i] = nbr[slot]
                        entry[i] = ent[slot]
                        mvs[i] += 1
                        if track:
                            movers_i.append(i)
                            movers_p.append(p)
                    elif kind != STAY:
                        cold = True
                        sched._ar_pending = ar_pending
                        sched.round = rnd
                        track = sched._soa_cold(
                            i, a, rnd, track,
                            movers_i, movers_p, terminators,
                            followers_once, deactivated, prev_pos,
                        )
                        ar_pending = sched._ar_pending

                if cold:
                    if deactivated:
                        for rid in deactivated:
                            active.remove(rid)
                    if followers_once or sched._followers_of:
                        sched._soa_resolve_follows(
                            movers_i, movers_p, followers_once
                        )
                occupied = 1 if pos[0] == pos[1] else 2
                if cold:
                    if sched._meet_sleepers and movers_i:
                        sched._soa_wake_meet(movers_i)
                    if terminators:
                        sched.round = rnd
                        sched._posset = set(pos)
                        sched._occupied = occupied
                        sched._ar_pending = ar_pending
                        sched._flush_ar()
                        ar_pending = 0
                        robots = sched.robots
                        for rid in terminators:
                            sched._terminate(robots[rid])
                        sched._cascade_terminations()
                executed += 1
                rnd += 1
                if first_gather is None and occupied == 1:
                    first_gather = rnd - 1
                    metrics.first_gather_round = first_gather
                    if stop_on_gather:
                        if cold:
                            for lst in scratch:
                                lst.clear()
                        break
                if cold:
                    for lst in scratch:
                        lst.clear()
                    break
        finally:
            sched.round = rnd
            sched._posset = set(pos)
            sched._occupied = occupied
            sched._ar_pending = ar_pending
            metrics.rounds_executed += executed

    # ------------------------------------------------------------------
    def _retire(self, j: int, rounds_arr, executed_arr, moves_arr) -> None:
        """Finalize replica ``j`` through the scalar code path and record
        its bookkeeping row."""
        sched = self.scheds[j]
        metrics = sched._finalize()
        self.outcomes[j] = ReplicaOutcome(result=package_result(sched))
        rounds_arr[j] = metrics.rounds
        executed_arr[j] = metrics.rounds_executed
        moves_arr[j] = metrics.total_moves

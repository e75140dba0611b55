"""Replica-major batch engine: whole replicas retired by array kernels.

:class:`~repro.sim.batch.ReplicaBatch` (PR 5) runs R replicas in lockstep
but still activates every robot by stepping its Python generator — the
per-robot interpreter round-trip is the floor it cannot break.  This
module inverts the layout: for fleets that declare a
:class:`~repro.sim.vector.VectorProgram`, the whole R×k hot state
(positions, CSR slots, wake offsets) lives in 2D NumPy arrays and entire
*runs* execute as array kernels over the single shared CSR — one
``np.take`` advances every robot of every hot replica one round.

Hot/cold split
--------------

:class:`Replica2DBatch` subclasses :class:`ReplicaBatch` and overrides the
``_vector_phase`` hook, which runs once before the lockstep loop:

1. **Hot candidates.**  A replica qualifies only if every robot in its
   fleet shares one :class:`VectorProgram`, its scheduler is pristine
   (round 0, every robot active, no wakes pending), and the run is a plain
   run-to-completion (``stop_on_gather`` falls back wholesale — the early
   exit is round-accurate only in the scalar drive).
2. **Kernel vetting.**  Candidates group by ``(kernel, shared, k)``; the
   kernel compiles one plan per graph (memoized process-wide) and then
   vets each replica's scalar params against ``max_rounds``.  *Any* doubt
   — irregular graph, timeout-bound overrun, non-integer param — declines
   the replica.
3. **Array execution.**  Each surviving group executes as one batch of 2D
   kernels; the kernel returns per-replica
   :class:`~repro.sim.vector.ReplicaFinal` end states.
4. **Write-back + scalar retirement.**  The final state is written onto
   the replica's pristine scheduler (arrays, counters, statuses) and the
   replica retires through the ordinary ``_finalize`` →
   ``package_result`` path — the packaged result is produced by the exact
   code a scalar run uses, from the exact state a scalar run would hold.
   The robots' generators are never sent an observation; they are simply
   closed, still suspended at their priming yield.

Everything that does not qualify — cold regimes (mid-round follows,
meet-sleeps, traced or activation-model rounds never reach this engine;
the runtime only batches clean specs, but scripted sleeps, card publishes,
and irregular graphs do), construction failures, kernel declines — stays
in ``live`` untouched and runs the inherited lockstep scalar drive from
round 0.  Bit-identity with ``batch-list``/``batch-numpy`` (and the error
parity of timeouts, bad ports, and deadlocks) is therefore structural:
the scalar path is not an approximation of the hot path, it *is* the
semantics, and the hot path must prove it can reproduce it before it is
allowed to run (``tests/test_batch2d.py`` pins both sides).

Instrumentation: :attr:`Replica2DBatch.vector_stats` counts replicas
retired by kernels vs. fallen back, for benchmarks and tests;
:class:`~repro.sim.batch.BatchSummary` stays backend-agnostic.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.graphs.port_graph import PortGraph
from repro.sim.batch import ReplicaBatch
from repro.sim.robot import TERMINATED, RobotSpec
from repro.sim.vector import ReplicaFinal, VectorProgram, plan_for

__all__ = ["Replica2DBatch"]


class Replica2DBatch(ReplicaBatch):
    """R replicas with a replica-major NumPy front-run (see module docs).

    Construction is exactly :class:`ReplicaBatch`'s (same per-replica
    scheduler isolation) plus one pass over the fleets to
    detect shared :class:`VectorProgram` factories.  ``backend`` is pinned
    to ``"numpy2d"`` — use :func:`repro.sim.batch.make_replica_batch` to
    select engines by name.
    """

    def __init__(
        self,
        graph: PortGraph,
        fleets: Sequence[Sequence[RobotSpec]],
        strict: bool = False,
    ):
        fleets = [list(specs) for specs in fleets]
        super().__init__(graph, fleets, strict=strict, backend="numpy2d")
        self._programs: List[VectorProgram | None] = []
        for specs in fleets:
            prog = specs[0].factory if specs else None
            if isinstance(prog, VectorProgram) and all(
                s.factory is prog for s in specs
            ):
                self._programs.append(prog)
            else:
                self._programs.append(None)
        #: Hot/cold accounting for the last ``run``: replicas retired by a
        #: kernel vs. replicas that declared a VectorProgram but ran scalar.
        self.vector_stats: Dict[str, int] = {"vectorized": 0, "fallbacks": 0}

    # ------------------------------------------------------------------
    def _vector_phase(
        self, live, rounds_arr, executed_arr, moves_arr, error_arr,
        max_rounds: int, stop_on_gather: bool,
    ) -> List[int]:
        """Retire hot replicas through array kernels; return the rest.

        Falls back — per replica, silently, and before any state is
        touched — whenever exactness cannot be proven; see the module
        docstring for the full contract.
        """
        stats = {"vectorized": 0, "fallbacks": 0}
        self.vector_stats = stats
        programs = self._programs
        scheds = self.scheds
        if stop_on_gather:
            # The early-exit run stops mid-schedule; only the scalar drive
            # tracks the exact gather round interleaved with cold actions.
            stats["fallbacks"] = sum(1 for j in live if programs[j] is not None)
            return live

        remaining: List[int] = []
        groups: Dict[Tuple[object, Tuple[object, ...], int], List[int]] = {}
        for j in live:
            prog = programs[j]
            sched = scheds[j]
            if (
                prog is None
                or sched is None
                or sched.round != 0
                or sched._alive != sched._nrob
                or len(sched._active) != sched._nrob
                or sched._wake_heap
                or sched._woken
            ):
                if prog is not None:
                    stats["fallbacks"] += 1
                remaining.append(j)
                continue
            groups.setdefault((prog.kernel, prog.shared, sched._nrob), []).append(j)

        for (kernel, shared, _k), members in groups.items():
            hot: List[int] = []
            try:
                plan = plan_for(self.graph, kernel, shared)
            except Exception:
                plan = None
            if plan is None:
                stats["fallbacks"] += len(members)
                remaining.extend(members)
                continue
            for j in members:
                if plan.accepts(programs[j].params, max_rounds):
                    hot.append(j)
                else:
                    stats["fallbacks"] += 1
                    remaining.append(j)
            if not hot:
                continue
            try:
                finals: List[ReplicaFinal] = plan.execute(
                    [scheds[j]._pos for j in hot],
                    [scheds[j]._labels for j in hot],
                    [programs[j].params for j in hot],
                )
            except Exception:
                # execute() is pure (no scheduler was touched), so the whole
                # group can still run scalar, bit-identically.
                stats["fallbacks"] += len(hot)
                remaining.extend(hot)
                continue
            for j, final in zip(hot, finals):
                self._write_back(j, final)
                self._retire(j, rounds_arr, executed_arr, moves_arr)
                stats["vectorized"] += 1

        remaining.sort()
        return remaining

    # ------------------------------------------------------------------
    def _write_back(self, j: int, final: ReplicaFinal) -> None:
        """Install a kernel's end state onto replica ``j``'s scheduler.

        The scheduler is pristine (round 0, post-priming); after this call
        it is indistinguishable from one that ran the replica to
        completion through ``Scheduler.run``, so the inherited ``_retire``
        (``_finalize`` + ``package_result``) packages the result through
        the unmodified scalar path.
        """
        sched = self.scheds[j]
        k = sched._nrob
        sched._pos[:] = final.pos
        sched._entry[:] = final.entry
        sched._moves[:] = final.moves
        sched._ar[:] = final.active_rounds
        sched._ar_pending = 0
        ps = set(final.pos)
        sched._posset = ps
        sched._occupied = len(ps)
        sched.round = final.final_round
        m = sched.metrics
        m.rounds_executed += final.rounds_executed
        if final.first_gather_round is not None:
            m.first_gather_round = final.first_gather_round
        if not final.terminations_all_gathered:
            m.terminations_all_gathered = False
        for r, term_round in zip(sched.robots, final.terminated_rounds):
            r.status = TERMINATED
            r.terminated_round = term_round
            try:
                r.gen.close()
            except RuntimeError:  # pragma: no cover - generator refusing
                pass
        sched._active.clear()
        sched._dormant = k
        sched._alive = 0

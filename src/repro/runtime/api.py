"""High-level entry points tying specs, executors, and the cache together.

:func:`execute` is the one call sites use::

    from repro.runtime import RunSpec, ParallelExecutor, ResultCache, execute

    specs = [RunSpec("faster", "ring", {"n": n}, placement="scatter", k=4)
             for n in (8, 12, 16)]
    result = execute(specs, executor=ParallelExecutor(workers=4),
                     cache=ResultCache(".repro-cache"), root_seed=0)
    for rec in result.records():
        print(rec.n, rec.rounds)

Cache hits short-circuit before dispatch, so a fully cached batch executes
zero simulations; the returned :class:`ExecutionStats` says exactly how
many ran, hit, and failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.analysis.experiments import GatheringRun
from repro.runtime.cache import ResultCache
from repro.runtime.executor import (
    Executor,
    ProgressCallback,
    SerialExecutor,
    assign_seeds,
)
from repro.runtime.spec import RunOutcome, RunSpec
from repro.sim.engines import get_engine

__all__ = ["ExecutionStats", "ExecutionResult", "execute", "run_specs"]


@dataclass
class ExecutionStats:
    """Accounting for one :func:`execute` call."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    failures: int = 0
    #: Runs that executed through the replica engine (a subset of
    #: ``executed``; results are bit-identical to scalar execution).
    batched: int = 0
    elapsed: float = 0.0
    # -- robustness counters (campaign / chaos observability; all zero on
    #    clean single-process runs, so historical summaries are unchanged)
    #: Lease claims lost to another worker (the cell was taken first).
    contended: int = 0
    #: Stale leases taken over from dead or wedged workers.
    reclaimed: int = 0
    #: Corrupt cache entries detected (torn/garbled files) — each one
    #: reads as a miss and re-executes.
    corrupt: int = 0
    #: Idle backoff passes spent waiting on cells leased to other workers.
    retries: int = 0
    #: Stale ``*.tmp.*`` droppings unlinked by crash-hygiene sweeps.
    tmp_swept: int = 0

    def summary(self) -> str:
        """One stable line for CLI output (deliberately no timing, so runs
        with different worker counts print byte-identical summaries).  The
        batched count appears only when replica batching actually ran, and
        the robustness segment only when something contended, reclaimed,
        healed, or retried — so historical output stays byte-stable."""
        line = (
            f"runtime: {self.total} runs — {self.executed} executed, "
            f"{self.cache_hits} cached, {self.failures} failed"
        )
        if self.batched:
            line += f" ({self.batched} batched)"
        robust = [
            f"{value} {label}"
            for label, value in (
                ("contended", self.contended),
                ("reclaimed", self.reclaimed),
                ("corrupt", self.corrupt),
                ("retries", self.retries),
                ("tmp swept", self.tmp_swept),
            )
            if value
        ]
        if robust:
            line += f" [robustness: {', '.join(robust)}]"
        return line

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate another batch's accounting into this one (used by
        multi-sweep call sites like the report to print one total line)."""
        self.total += other.total
        self.executed += other.executed
        self.cache_hits += other.cache_hits
        self.failures += other.failures
        self.batched += other.batched
        self.elapsed += other.elapsed
        self.contended += other.contended
        self.reclaimed += other.reclaimed
        self.corrupt += other.corrupt
        self.retries += other.retries
        self.tmp_swept += other.tmp_swept


@dataclass
class ExecutionResult:
    """Outcomes in submission order, plus the batch accounting."""

    outcomes: List[RunOutcome] = field(default_factory=list)
    stats: ExecutionStats = field(default_factory=ExecutionStats)

    def records(self) -> List[GatheringRun]:
        """All runs, raising :class:`repro.runtime.RunFailure` on the first
        errored outcome (the historical behavior of serial call sites)."""
        return [o.run_or_raise() for o in self.outcomes]


def execute(
    specs: Iterable[RunSpec],
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    root_seed: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    stats: Optional[ExecutionStats] = None,
    cache_chunk: Optional[int] = None,
    engine: Optional[str] = None,
) -> ExecutionResult:
    """Run a batch of specs through an executor, consulting the cache.

    ``root_seed`` fills unset spec seeds deterministically *before* cache
    lookup and dispatch, so seed assignment is independent of executor
    choice and cache state.  ``progress`` fires only for runs that actually
    execute (cache hits are instantaneous).  ``stats``, when given, has this
    batch's accounting merged into it — the hook multi-sweep call sites use
    to report one grand total.

    ``cache_chunk=N`` switches cache persistence from one-file-per-run
    write-through to chunked write-behind: successful runs are buffered and
    flushed as a single multi-record chunk file every N landings (and at
    batch end), cutting cache-file I/O by ~N×.  The trade-off is the
    interruption guarantee — a killed batch loses at most the last
    unflushed N-1 records instead of none.  ``None`` keeps the historical
    per-run write-through.

    ``engine`` selects the simulation backend by name — the single
    dispatch knob (see :func:`repro.sim.engines.list_engines` and
    ``docs/ENGINES.md``).  It is an execution parameter like ``executor``:
    it never enters a spec or its cache key, and conforming backends
    produce bit-identical records, failures, and cache entries.  Every
    engine takes the same path: one ``executor.run`` call over the
    pending specs.  Under a replica backend (``"batch-list"``,
    ``"batch-numpy"``, ``"batch-numpy2d"``) the executor's runner groups
    specs that differ only by seed into replica batches
    (:func:`repro.runtime.spec.execute_batch_spec`) — the multi-seed
    campaign fast path — and runs the rest (non-clean specs, groups of
    one) on the default engine.  Cache hits short-circuit before
    dispatch, so a partially cached campaign batches only what actually
    runs.
    """
    t0 = time.perf_counter()
    if cache_chunk is not None and cache_chunk < 1:
        raise ValueError("cache_chunk must be >= 1")
    if engine is not None:
        get_engine(engine)  # raises ValueError listing names
    specs = list(specs)
    if root_seed is not None:
        specs = assign_seeds(specs, root_seed)
    executor = executor if executor is not None else SerialExecutor()

    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    pending: List[RunSpec] = []
    pending_idx: List[int] = []
    hits = 0
    corrupt_before = cache.corrupt if cache is not None else 0
    if cache is not None:
        for i, spec in enumerate(specs):
            run = cache.get(spec)
            if run is not None:
                outcomes[i] = RunOutcome(spec=spec, run=run, cached=True)
                hits += 1
            else:
                pending.append(spec)
                pending_idx.append(i)
    else:
        pending = specs
        pending_idx = list(range(len(specs)))

    # Write-through: persist each successful run the moment it lands, so an
    # interrupted batch (Ctrl-C, CI timeout) keeps everything it completed.
    # With cache_chunk, landings buffer instead and flush as chunk files.
    chunk_buffer: List = []

    def land(outcome: RunOutcome, done: int, total: int) -> None:
        if cache is not None and outcome.ok:
            if cache_chunk is None:
                cache.put(outcome.spec, outcome.run)
            else:
                chunk_buffer.append((outcome.spec, outcome.run))
                if len(chunk_buffer) >= cache_chunk:
                    cache.put_batch(chunk_buffer)
                    chunk_buffer.clear()
        if progress is not None:
            progress(outcome, done, total)

    executed = executor.run(pending, progress=land, engine=engine)
    if chunk_buffer:
        cache.put_batch(chunk_buffer)
        chunk_buffer.clear()
    for i, outcome in zip(pending_idx, executed):
        outcomes[i] = outcome

    final = [o for o in outcomes if o is not None]
    batch_stats = ExecutionStats(
        total=len(specs),
        executed=len(executed),
        cache_hits=hits,
        failures=sum(1 for o in final if not o.ok),
        batched=sum(1 for o in executed if o.batched),
        elapsed=time.perf_counter() - t0,
        corrupt=(cache.corrupt - corrupt_before) if cache is not None else 0,
    )
    if stats is not None:
        stats.merge(batch_stats)
    return ExecutionResult(outcomes=final, stats=batch_stats)


def run_specs(
    specs: Iterable[RunSpec],
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    root_seed: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    stats: Optional[ExecutionStats] = None,
) -> List[GatheringRun]:
    """:func:`execute`, unwrapped to records (raises on any failure)."""
    return execute(
        specs,
        executor=executor,
        cache=cache,
        root_seed=root_seed,
        progress=progress,
        stats=stats,
    ).records()

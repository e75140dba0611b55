"""Executors: how a batch of :class:`RunSpec` turns into outcomes.

Two interchangeable strategies behind one tiny interface:

* :class:`SerialExecutor` — in-process, in-order.  The default everywhere,
  so results stay bit-identical to historical single-process runs.
* :class:`ParallelExecutor` — fans chunks of specs out over a
  ``concurrent.futures.ProcessPoolExecutor``.  Chunked dispatch amortizes
  pickling/IPC for the many-small-runs workloads sweeps produce; failures
  are isolated per run (see :func:`repro.runtime.spec.execute_spec`), and
  when a worker process dies outright (OOM-kill, segfault) the affected
  chunks are retried spec-by-spec in fresh pools, so only the spec that
  actually kills its worker is reported as failed.

Both turn specs into outcomes through one runner, :func:`_outcomes`, the
only place that groups replicas into batches under a replica engine; a
parallel executor groups within each chunk, with the same records.

Determinism: a simulation's result is a pure function of its spec, so the
two executors return *identical* outcome lists in submission order, for any
worker count.  Per-run seed streams are derived from a root seed with
:func:`derive_seed` (SHA-256 counter mode) — stable across platforms,
Python versions, and executor choice.
"""

from __future__ import annotations

import hashlib
import math
import os
from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.runtime.spec import (
    RunOutcome,
    RunSpec,
    execute_batch_spec,
    execute_spec,
    group_into_batches,
)
from repro.sim.engines import resolve_engine

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ProgressCallback",
    "derive_seed",
    "assign_seeds",
    "replicate_spec",
]

#: ``progress(outcome, done_so_far, total)`` — called as outcomes land (in
#: completion order for parallel executors; in the order the runner yields
#: them for serial ones).
ProgressCallback = Callable[[RunOutcome, int, int], None]


def derive_seed(root_seed: int, index: int, salt: str = "") -> int:
    """Deterministic per-run seed ``index`` of the stream rooted at
    ``root_seed`` — a SHA-256 counter, so streams with different roots (or
    salts) are statistically independent and platform-stable."""
    digest = hashlib.sha256(f"{root_seed}:{index}:{salt}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def assign_seeds(specs: Sequence[RunSpec], root_seed: int) -> List[RunSpec]:
    """Fill every unset ``spec.seed`` from the root seed's stream.

    Specs that pin their own seed are left untouched; assignment is by
    position, so the same batch + root always yields the same seeds no
    matter which executor later runs it.
    """
    return [
        replace(s, seed=derive_seed(root_seed, i)) if s.seed is None else s
        for i, s in enumerate(specs)
    ]


def replicate_spec(
    spec: RunSpec, replicas: int, root_seed: int = 0, salt: str = "replica"
) -> List[RunSpec]:
    """``spec`` plus ``replicas - 1`` seed-varied siblings.

    Replica 0 is the spec itself, untouched — its cache key, pinned
    per-scheme seeds, everything.  Replicas 1.. carry a derived spec-level
    seed and drop any pinned ``"seed"`` in ``placement_args`` /
    ``labels_args`` / ``algorithm_args`` so the spec-level seed governs all
    randomness — making the siblings genuine re-rolls of the same
    experiment *and* a batchable differ-only-by-seed group (see
    :func:`repro.runtime.spec.group_into_batches`).
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    out = [spec]
    for r in range(1, replicas):
        out.append(
            replace(
                spec,
                seed=derive_seed(root_seed, r, salt=salt),
                placement_args={k: v for k, v in spec.placement_args.items() if k != "seed"},
                labels_args={k: v for k, v in spec.labels_args.items() if k != "seed"},
                algorithm_args={k: v for k, v in spec.algorithm_args.items() if k != "seed"},
            )
        )
    return out


def _outcomes(specs: Sequence[RunSpec], engine: Optional[str]) -> Iterator[Tuple[int, RunOutcome]]:
    """Yield ``(index, outcome)`` for every spec as it lands: the runner of
    every executor.  Under a replica engine (``supports_batch``) each group
    of specs that differ only by seed runs as one replica batch and the
    rest run on the default engine; otherwise every spec runs through this
    module's ``execute_spec`` attribute (tracers patch it)."""
    engine_cls = resolve_engine(engine)
    if not engine_cls.capabilities.supports_batch:
        for i, spec in enumerate(specs):
            yield i, execute_spec(spec, engine=engine)
        return
    groups, singles = group_into_batches(specs, backend=engine_cls.batch_backend)
    for indices, batch in groups:
        yield from zip(indices, execute_batch_spec(batch))
    for i, spec in singles:
        yield i, execute_spec(spec)


class Executor(ABC):
    """Strategy interface: run specs, return outcomes in submission order.

    ``engine`` names a simulation backend (see
    :func:`repro.sim.engines.list_engines`); executors hand it to the one
    runner, :func:`_outcomes` — backend choice is orthogonal to execution
    strategy, and ``None`` keeps the default.
    """

    @abstractmethod
    def run(
        self,
        specs: Iterable[RunSpec],
        progress: Optional[ProgressCallback] = None,
        engine: Optional[str] = None,
    ) -> List[RunOutcome]:
        raise NotImplementedError

    def iter_run(
        self,
        specs: Iterable[RunSpec],
        engine: Optional[str] = None,
    ) -> Iterator[RunOutcome]:
        """Pull-based execution: consume specs lazily, yield outcomes.

        The executor pulls the next spec only after the previous outcome is
        yielded, so a generator feeding this loop can defer side effects —
        the campaign worker claims a cell's lease *inside* its generator,
        which means leases are acquired just-in-time, one at a time, and a
        killed worker holds at most one (see :mod:`repro.campaigns.worker`).
        Each spec runs alone, as :func:`repro.runtime.execute` runs a lone
        spec.  Default implementation executes in-process; subclasses may
        overlap execution but must preserve yield order.
        """
        for spec in specs:
            for _, outcome in _outcomes([spec], engine):
                yield outcome


class SerialExecutor(Executor):
    """In-process execution, one spec (or replica batch) at a time.

    ``run`` materializes the spec list (so ``total`` is known for progress
    callbacks) and drains the runner into submission order.
    """

    def run(
        self,
        specs: Iterable[RunSpec],
        progress: Optional[ProgressCallback] = None,
        engine: Optional[str] = None,
    ) -> List[RunOutcome]:
        specs = list(specs)
        outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
        for done, (i, outcome) in enumerate(_outcomes(specs, engine), 1):
            outcomes[i] = outcome
            if progress is not None:
                progress(outcome, done, len(specs))
        return outcomes


def _execute_chunk(specs: List[RunSpec], engine: Optional[str] = None) -> List[RunOutcome]:
    """Worker-side entry point: run one chunk, never raise."""
    return SerialExecutor().run(specs, engine=engine)


def _pool_kit(mp_context: Optional[str]):
    """``ProcessPoolExecutor``, ``as_completed`` and the start-method
    context, imported on first use so that a serial run never loads the
    multiprocessing machinery."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    ctx = multiprocessing.get_context(mp_context) if mp_context else None
    return ProcessPoolExecutor, as_completed, ctx


class ParallelExecutor(Executor):
    """Process-pool execution with chunked dispatch; each worker runs its
    chunk through the runner, so replicas batch within a chunk.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()``.
    chunksize:
        Specs per task.  Defaults to ``ceil(len(specs) / (4 * workers))``
        — about four waves per worker, balancing IPC overhead against
        load-balancing for uneven run times.
    mp_context:
        Optional multiprocessing start method (``"fork"``, ``"spawn"``, …);
        ``None`` uses the platform default.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        mp_context: Optional[str] = None,
    ):
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.chunksize = chunksize
        self.mp_context = mp_context

    def run(
        self,
        specs: Iterable[RunSpec],
        progress: Optional[ProgressCallback] = None,
        engine: Optional[str] = None,
    ) -> List[RunOutcome]:
        specs = list(specs)
        if not specs:
            return []
        if self.workers == 1 or len(specs) == 1:
            return SerialExecutor().run(specs, progress=progress, engine=engine)

        ProcessPoolExecutor, as_completed, ctx = _pool_kit(self.mp_context)
        chunksize = self.chunksize or max(1, math.ceil(len(specs) / (4 * self.workers)))
        starts = range(0, len(specs), chunksize)

        results: List[Optional[RunOutcome]] = [None] * len(specs)
        done = 0

        def land(start: int, outcomes: List[RunOutcome]) -> None:
            nonlocal done
            for offset, outcome in enumerate(outcomes):
                results[start + offset] = outcome
                done += 1
                if progress is not None:
                    progress(outcome, done, len(specs))

        # A worker that dies mid-chunk (OOM-kill, segfault, os._exit) breaks
        # the whole ProcessPoolExecutor: every unfinished future raises
        # BrokenProcessPool, including chunks that never ran.  Those chunks
        # are collected here and re-run one spec at a time in fresh
        # single-use pools, so only the spec that actually kills its worker
        # is reported as failed.
        retry: List[int] = []
        with ProcessPoolExecutor(max_workers=min(self.workers, len(starts)), mp_context=ctx) as pool:
            futures = {pool.submit(_execute_chunk, specs[s : s + chunksize], engine): s for s in starts}
            for future in as_completed(futures):
                start = futures[future]
                try:
                    outcomes = future.result()
                except Exception:
                    retry.append(start)
                    continue
                # outside the try: a raising progress/cache callback must
                # propagate, not masquerade as a dead worker
                land(start, outcomes)

        for start in sorted(retry):
            for i, spec in enumerate(specs[start : start + chunksize]):
                land(start + i, [self._run_isolated(spec, ctx, engine)])

        if any(r is None for r in results):  # lost future / short chunk: a bug
            raise RuntimeError(
                "ParallelExecutor dropped outcomes for "
                f"{sum(r is None for r in results)} of {len(specs)} specs"
            )
        return [r for r in results if r is not None]

    @staticmethod
    def _run_isolated(spec: RunSpec, ctx, engine: Optional[str] = None) -> RunOutcome:
        """Run one spec in a throwaway single-worker pool, so a spec that
        crashes its worker yields an errored outcome for itself only."""
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            try:
                return pool.submit(_execute_chunk, [spec], engine).result()[0]
            except Exception as exc:
                return RunOutcome(
                    spec=spec, error=str(exc) or repr(exc), error_type=type(exc).__name__
                )

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
    BatchRunSpec,
    RunOutcome,
    RunSpec,
    execute_batch_spec,
    execute_spec,
)

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
#: completion order for parallel executors, submission order for serial).
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


class Executor(ABC):
    """Strategy interface: run specs, return outcomes in submission order.

    ``engine`` names a scalar simulation backend (see
    :func:`repro.sim.engines.list_engines`); executors pass it through to
    :func:`repro.runtime.spec.execute_spec` unchanged — backend choice is
    orthogonal to execution strategy, and ``None`` keeps the default.
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
        Default implementation executes in-process; subclasses may overlap
        execution but must preserve yield order.
        """
        for spec in specs:
            yield execute_spec(spec, engine=engine)

    def run_batches(
        self,
        batches: Sequence[BatchRunSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> List[List[RunOutcome]]:
        """Run replica batches; one outcome list per batch, in order.

        Default implementation is serial and in-process; parallel executors
        override it to dispatch whole batches to workers (a batch is one
        unit of work: its replicas share one graph, one set of graph
        checks and one pair-distance memo).  ``progress`` fires per replica
        outcome with ``total`` = all replicas across ``batches``.
        """
        total = sum(len(b.seeds) for b in batches)
        done = 0
        results: List[List[RunOutcome]] = []
        for batch in batches:
            results.append(execute_batch_spec(batch))
            for outcome in results[-1]:
                done += 1
                if progress is not None:
                    progress(outcome, done, total)
        return results


class SerialExecutor(Executor):
    """In-process execution, one spec at a time, in order.

    ``run`` is a thin eager shell over the base pull loop
    (:meth:`Executor.iter_run`): it materializes the spec list (so
    ``total`` is known for progress callbacks) and drains the iterator.
    """

    def run(
        self,
        specs: Iterable[RunSpec],
        progress: Optional[ProgressCallback] = None,
        engine: Optional[str] = None,
    ) -> List[RunOutcome]:
        specs = list(specs)
        outcomes: List[RunOutcome] = []
        for outcome in self.iter_run(specs, engine=engine):
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome, len(outcomes), len(specs))
        return outcomes


def _execute_chunk(specs: List[RunSpec], engine: Optional[str] = None) -> List[RunOutcome]:
    """Worker-side entry point: run one chunk, never raise."""
    return [execute_spec(s, engine=engine) for s in specs]


def _pool_kit(mp_context: Optional[str]):
    """``ProcessPoolExecutor``, ``as_completed`` and the start-method
    context, imported on first use so that a serial run never loads the
    multiprocessing machinery."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    ctx = multiprocessing.get_context(mp_context) if mp_context else None
    return ProcessPoolExecutor, as_completed, ctx


class ParallelExecutor(Executor):
    """Process-pool execution with chunked dispatch.

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

        chunksize = self.chunksize or max(1, math.ceil(len(specs) / (4 * self.workers)))
        chunks = [specs[i : i + chunksize] for i in range(0, len(specs), chunksize)]
        results: List[Optional[RunOutcome]] = [None] * len(specs)
        done = 0
        for c, outcomes in self._pooled(
            _execute_chunk, [(chunk, engine) for chunk in chunks], chunks.__getitem__, engine
        ):
            start = c * chunksize
            results[start : start + len(outcomes)] = outcomes
            for outcome in outcomes:
                done += 1
                if progress is not None:
                    progress(outcome, done, len(specs))

        if any(r is None for r in results):  # lost future / short chunk: a bug
            raise RuntimeError(
                "ParallelExecutor dropped outcomes for "
                f"{sum(r is None for r in results)} of {len(specs)} specs"
            )
        return [r for r in results if r is not None]

    def run_batches(
        self,
        batches: Sequence[BatchRunSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> List[List[RunOutcome]]:
        """Fan whole batches out over worker processes, one per task.

        No chunking: a batch is already a coarse unit of R replicas.  A
        worker that dies mid-batch poisons only its own batch, which is
        retried replica-by-replica through the scalar isolation path —
        records are identical either way, just slower.
        """
        batches = list(batches)
        if not batches:
            return []
        if self.workers == 1 or len(batches) == 1:
            return super().run_batches(batches, progress=progress)
        total = sum(len(b.seeds) for b in batches)
        done = 0
        results: List[List[RunOutcome]] = [[] for _ in batches]
        for i, outcomes in self._pooled(
            execute_batch_spec, [(b,) for b in batches], lambda i: batches[i].specs()
        ):
            results[i] = outcomes
            for outcome in outcomes:
                done += 1
                if progress is not None:
                    progress(outcome, done, total)
        return results

    def _pooled(
        self,
        work: Callable[..., List[RunOutcome]],
        tasks: Sequence[tuple],
        specs_of: Callable[[int], List[RunSpec]],
        engine: Optional[str] = None,
    ) -> Iterator[Tuple[int, List[RunOutcome]]]:
        """Yield ``(task index, outcomes)`` as each ``work(*task)`` lands.

        A worker that dies mid-task (OOM-kill, segfault, ``os._exit``)
        breaks the whole pool: every unfinished future raises
        ``BrokenProcessPool``, including tasks that never ran.  Those tasks
        are collected here and their specs (``specs_of(index)``) re-run one
        per fresh single-use pool, so only the spec that actually kills its
        worker is reported as failed.
        """
        ProcessPoolExecutor, as_completed, ctx = _pool_kit(self.mp_context)
        retry: List[int] = []
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(tasks)), mp_context=ctx
        ) as pool:
            futures = {pool.submit(work, *task): i for i, task in enumerate(tasks)}
            for future in as_completed(futures):
                try:
                    outcomes = future.result()
                except Exception:
                    retry.append(futures[future])
                    continue
                yield futures[future], outcomes
        for i in sorted(retry):
            yield i, [self._run_isolated(spec, ctx, engine) for spec in specs_of(i)]

    @staticmethod
    def _run_isolated(spec: RunSpec, ctx, engine: Optional[str] = None) -> RunOutcome:
        """Run one spec in a throwaway single-worker pool, so a spec that
        crashes its worker yields an errored outcome for itself only."""
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            try:
                return pool.submit(execute_spec, spec, engine).result()
            except Exception as exc:
                return RunOutcome(
                    spec=spec, error=str(exc) or repr(exc), error_type=type(exc).__name__
                )

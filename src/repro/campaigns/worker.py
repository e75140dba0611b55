"""The campaign worker: a pull-based, crash-safe work-stealing loop.

One worker process runs :func:`run_worker` against a manifest and a shared
cache directory.  N workers — any mix of processes and hosts pointed at
the same directory — consume one grid cooperatively with **no coordinator
process**: each worker scans the cell list in its own (owner-seeded)
order, skips cells whose keys already resolve in the cache, claims a
pending cell's lease, checks the cache once more (another worker may have
written the cell and released its lease in between), executes it, writes
the result through, and releases.  The cache write is the only commit
point; everything else can die at any instruction:

* killed **before the claim** — nothing happened;
* killed **holding the lease, before the write** — the lease goes stale
  and is reclaimed after the timeout; the cell re-executes (its spec is
  deterministic, so the eventual record is bit-identical);
* killed **mid-write** — the atomic tmp-then-rename discipline means the
  entry either exists completely or not at all; the dropping is swept by
  startup hygiene;
* killed **after the write, before the release** — the cell is done (the
  cache key resolves); the orphaned lease is swept on the next startup.

Because completion is derived from cache-key existence, *resume is the
same code path as run*: launch workers again and they execute exactly the
missing cells.  A fully completed campaign "resumes" with zero executions
and 100% cache hits.

The execution itself goes through :meth:`repro.runtime.executor.Executor.
iter_run` — the pull loop asks the claim generator for the next spec only
when it is ready to run one, so a worker holds at most one lease at a
time and claims are made just-in-time.

Chaos hooks (:mod:`repro.testing.chaos`) are threaded through the three
kill-relevant points (``claimed`` / ``pre_write`` / ``post_write``) and
the claim path; with no ``REPRO_CHAOS`` in the environment they cost one
``None`` check each.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from repro.campaigns.leases import DEFAULT_LEASE_TIMEOUT, LeaseManager
from repro.campaigns.manifest import (
    CampaignManifest,
    CampaignStatus,
    campaign_status,
    load_manifest,
    save_manifest,
)
from repro.runtime.api import ExecutionStats
from repro.runtime.cache import ResultCache
from repro.runtime.executor import Executor, SerialExecutor
from repro.runtime.spec import RunOutcome, RunSpec
from repro.testing.chaos import ChaosMonkey, chaos_from_env

__all__ = [
    "run_worker",
    "run_campaign",
    "resume_campaign",
    "status_of",
    "DEFAULT_IDLE_TIMEOUT",
]

#: How long a worker keeps backing off against cells leased to *other*
#: workers before giving up and returning (the campaign is then finished
#: by whoever holds those leases, or by a resume after they go stale).
DEFAULT_IDLE_TIMEOUT = 300.0

#: Backoff against cells leased to other workers: the first pause is twice
#: the base, jittered by x0.5-1.5, and each idle rescan doubles it up to
#: the cap.  The base is the mean time of this worker's own cells, at most
#: ``BACKOFF_BASE`` (which is also the base before it has run a cell), so a
#: worker waiting out another's last cell sleeps for a cell time or two.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: ``progress(outcome, done_cells, total_cells)`` — fires per executed cell.
ProgressCallback = Callable[[RunOutcome, int, int], None]


def run_worker(
    manifest: CampaignManifest,
    cache: ResultCache,
    executor: Optional[Executor] = None,
    engine: Optional[str] = None,
    owner: Optional[str] = None,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
    chaos: Optional[ChaosMonkey] = None,
    progress: Optional[ProgressCallback] = None,
    stats: Optional[ExecutionStats] = None,
) -> ExecutionStats:
    """Consume one campaign until it is complete (or only others' work
    remains); returns this worker's accounting.

    The returned stats follow :func:`repro.runtime.execute` semantics:
    ``total`` is the whole grid, ``cache_hits`` counts cells this worker
    found already done (no matter who did them), ``executed``/``failures``
    count this worker's own runs, and the robustness counters surface
    contention, reclaimed leases, corrupt entries, idle retries, and swept
    tmp droppings.
    """
    t0 = time.perf_counter()
    executor = executor if executor is not None else SerialExecutor()
    if chaos is None:
        chaos = chaos_from_env(cache.root)
    leases = LeaseManager(cache.root, manifest.campaign_id, owner=owner, timeout=lease_timeout)
    local = ExecutionStats(total=len(manifest.cells))
    corrupt_before = cache.corrupt

    # Startup hygiene: drop killed writers' tmp files, resync the chunk
    # index, and clear orphaned leases over already-done cells.
    local.tmp_swept += cache.sweep_stale_tmp()
    cache.refresh()
    leases.sweep_orphans(
        cell.key for cell in manifest.cells if cache.contains_key(cell.key)
    )

    # Per-worker scan order: deterministic in the owner id, different
    # across workers, so N workers starting together fan out over the grid
    # instead of stampeding the same first cell.
    order = list(manifest.cells)
    random.Random(leases.owner).shuffle(order)

    pending = {cell.key: cell for cell in order}
    held: list = []  # (cell, lease) in pull order — at most one deep
    run_time = 0.0  # summed elapsed of this worker's executed cells

    def pull() -> Iterator[RunSpec]:
        """Claim cells just-in-time and hand their specs to the executor.

        Yields only specs whose lease this worker holds; the consumer
        below writes/releases before the next pull, so a killed worker
        leaves at most one claimed cell behind.
        """
        rng = random.Random(f"{leases.owner}:backoff")
        idle = 0.0
        attempt = 0
        while pending:
            progressed = False
            for cell in list(pending.values()):
                if cell.key not in pending:
                    continue
                if cache.get(cell.spec) is not None:
                    pending.pop(cell.key, None)
                    local.cache_hits += 1
                    progressed = True
                    continue
                if chaos is not None:
                    chaos.delay_claim(cell.key)
                lease = leases.try_claim(cell.key)
                if lease is None:
                    continue
                # another worker may have written the cell and released its
                # lease since the check above; a corrupt entry still misses,
                # and a miss was already counted, by the check above
                counted = cache.misses, cache.corrupt
                if cache.get(cell.spec) is not None:
                    leases.release(lease)
                    pending.pop(cell.key, None)
                    local.cache_hits += 1
                    progressed = True
                    continue
                cache.misses, cache.corrupt = counted
                if chaos is not None:
                    chaos.trip("claimed", cell.key)
                held.append((cell, lease))
                yield cell.spec
                progressed = True
            if not pending:
                return
            if progressed:
                attempt = 0
                continue
            # Everything left is leased to someone else: bounded, jittered
            # exponential backoff, then rescan (their results land in the
            # cache; their deaths make their leases reclaimable).
            attempt += 1
            local.retries += 1
            if idle >= idle_timeout:
                return
            base = BACKOFF_BASE
            if local.executed:
                base = min(base, run_time / local.executed)
            pause = min(BACKOFF_CAP, base * (2 ** min(attempt, 10)))
            pause *= 0.5 + rng.random()
            time.sleep(pause)
            idle += pause
            cache.refresh()

    for outcome in executor.iter_run(pull(), engine=engine):
        cell, lease = held.pop(0)
        lease.heartbeat()
        if chaos is not None:
            chaos.trip("pre_write", cell.key)
        if outcome.ok:
            cache.put(outcome.spec, outcome.run)
        else:
            local.failures += 1
        if chaos is not None:
            chaos.trip("post_write", cell.key)
        leases.release(lease)
        local.executed += 1
        run_time += outcome.elapsed
        pending.pop(cell.key, None)
        if progress is not None:
            progress(outcome, len(manifest.cells) - len(pending), len(manifest.cells))

    local.contended = leases.contended
    local.reclaimed = leases.reclaimed
    local.corrupt += cache.corrupt - corrupt_before
    local.elapsed = time.perf_counter() - t0
    if stats is not None:
        stats.merge(local)
    return local


# ---------------------------------------------------------------------------
# Multi-process launch (one host; cross-host attach = run this on each host)
# ---------------------------------------------------------------------------


def _worker_main(
    cache_root: str,
    campaign_id: str,
    engine: Optional[str],
    lease_timeout: float,
    idle_timeout: float,
    queue,
) -> None:
    """Entry point for spawned worker processes (module-level: picklable).

    Coordination stays filesystem-only — the queue carries nothing but the
    final stats back to the launching CLI for a nicer summary, and a
    worker that dies simply reports nothing.
    """
    manifest = load_manifest(cache_root, campaign_id)
    cache = ResultCache(cache_root)
    stats = run_worker(
        manifest,
        cache,
        engine=engine,
        lease_timeout=lease_timeout,
        idle_timeout=idle_timeout,
    )
    queue.put(stats)


def run_campaign(
    manifest: CampaignManifest,
    cache_root: Union[str, Path],
    workers: int = 1,
    engine: Optional[str] = None,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
    chaos: Optional[ChaosMonkey] = None,
    progress: Optional[ProgressCallback] = None,
    stats: Optional[ExecutionStats] = None,
    mp_context: Optional[str] = None,
) -> ExecutionStats:
    """Persist the manifest and drive it to completion with N workers.

    ``workers=1`` runs the loop in-process (chaos hooks and custom
    executors usable); ``workers>1`` launches OS processes that each run
    :func:`run_worker` and coordinate purely through the cache directory —
    the same thing ``python -m repro campaign workers`` does on another
    host.  Worker deaths (including SIGKILL) are tolerated: survivors or a
    later resume finish the grid.
    """
    save_manifest(manifest, cache_root)
    if workers <= 1:
        return run_worker(
            manifest,
            ResultCache(cache_root),
            engine=engine,
            lease_timeout=lease_timeout,
            idle_timeout=idle_timeout,
            chaos=chaos,
            progress=progress,
            stats=stats,
        )

    import multiprocessing

    ctx = multiprocessing.get_context(mp_context) if mp_context else multiprocessing
    queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(
                str(cache_root),
                manifest.campaign_id,
                engine,
                lease_timeout,
                idle_timeout,
                queue,
            ),
        )
        for _ in range(workers)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    merged = ExecutionStats()
    reported = 0
    while not queue.empty():
        merged.merge(queue.get())
        reported += 1
    # Campaign-level accounting, derived from disk like everything else:
    # summing per-worker hit counts would count each done cell once per
    # scanning worker, so hits are recomputed as done-minus-executed.
    cache = ResultCache(cache_root)
    status = campaign_status(manifest, cache)
    merged.total = len(manifest.cells)
    merged.cache_hits = max(0, status.done - (merged.executed - merged.failures))
    if stats is not None:
        stats.merge(merged)
    return merged


def resume_campaign(
    manifest: CampaignManifest,
    cache_root: Union[str, Path],
    **kwargs,
) -> ExecutionStats:
    """Finish an interrupted campaign: exactly :func:`run_campaign`.

    This alias exists because "resume" deserves a name in the API even
    though crash-safety makes it the same operation — worker startup
    hygiene already sweeps stale tmp files and orphaned leases, and
    completion is derived from the cache, so running again *is* resuming.
    """
    return run_campaign(manifest, cache_root, **kwargs)


def status_of(
    manifest: CampaignManifest,
    cache_root: Union[str, Path],
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
) -> CampaignStatus:
    """Point-in-time status: done (cache-derived), claimed (live leases),
    pending (the rest)."""
    cache = ResultCache(cache_root)
    leases = LeaseManager(cache_root, manifest.campaign_id, timeout=lease_timeout)
    return campaign_status(manifest, cache, claimed_keys=leases.held_keys())

"""Filesystem leases: how campaign workers avoid duplicating work.

Workers coordinate **only** through the cache directory — no server, no
sockets, no locks beyond what POSIX file semantics give for free:

* **Claim** — ``os.open(path, O_CREAT | O_EXCL)`` on
  ``leases/<campaign>/<key>.lease``.  Exactly one process wins; the file
  body records the owner (host:pid:nonce) and claim time for debugging.
* **Heartbeat** — the owner touches the lease's mtime while working.  The
  campaign worker heartbeats between cells; long-running cells can call
  :meth:`Lease.heartbeat` themselves.
* **Stale reclamation** — a lease whose mtime is older than the timeout
  belongs to a dead or wedged worker.  Reclaiming renames it to a
  nonce-unique tombstone first: rename is atomic, so of N workers that
  notice the same stale lease exactly one wins the rename, and only the
  winner retries the ``O_EXCL`` claim.  The unlink-then-create shortcut
  would let two workers both believe they own the cell.
* **Release** — unlink.  A worker killed *after* writing its result but
  before releasing leaves an orphan; orphans over *done* cells are swept
  by :meth:`LeaseManager.sweep_orphans` (and are harmless meanwhile —
  nobody needs a lease on a completed cell).

Leases are an **optimization, not a correctness mechanism**: the result
cache is content-addressed and writes are atomic, so if mutual exclusion
ever fails the worst case is the same deterministic record computed twice
and written twice, bit-identically.  Everything here exists to make that
rare, not to make it impossible — which is why crash-safety is easy.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

__all__ = ["Lease", "LeaseManager", "DEFAULT_LEASE_TIMEOUT", "default_owner"]

#: Seconds without a heartbeat before a lease is presumed dead.  Generous
#: by default (cells are usually sub-second; a worker heartbeats at least
#: once per cell) — chaos tests and CI shrink it to force reclamation.
DEFAULT_LEASE_TIMEOUT = 300.0


def default_owner() -> str:
    """A debuggable, collision-proof worker identity."""
    # imported here, as below: only campaign workers need them
    import socket
    import uuid

    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


@dataclass
class Lease:
    """A held claim on one cell (returned by ``LeaseManager.try_claim``)."""

    key: str
    path: Path
    owner: str

    def heartbeat(self) -> bool:
        """Refresh the lease mtime; False if the lease vanished (stolen
        after a stall, or released twice) — the holder should treat its
        work as speculative and not panic: the cache write is idempotent.
        """
        try:
            os.utime(self.path)
            return True
        except OSError:
            return False


class LeaseManager:
    """Claim/heartbeat/reclaim/release over one campaign's lease dir."""

    def __init__(
        self,
        cache_root: Union[str, Path],
        campaign_id: str,
        owner: Optional[str] = None,
        timeout: float = DEFAULT_LEASE_TIMEOUT,
    ):
        if timeout <= 0:
            raise ValueError("lease timeout must be > 0")
        self.dir = Path(cache_root) / "leases" / campaign_id
        self.owner = owner or default_owner()
        self.timeout = timeout
        #: Claims lost to another worker (fresh lease already present).
        self.contended = 0
        #: Stale leases taken over.
        self.reclaimed = 0

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.lease"

    def _create(self, path: Path, key: str) -> Optional[Lease]:
        """The O_EXCL claim attempt itself; None when somebody else won."""
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return None
        with os.fdopen(fd, "w") as fh:
            json.dump({"owner": self.owner, "key": key, "claimed_at": time.time()}, fh)
        return Lease(key=key, path=path, owner=self.owner)

    def try_claim(self, key: str) -> Optional[Lease]:
        """Claim ``key``, reclaiming a stale lease if that is what holds it.

        Returns ``None`` on contention (someone else holds a *fresh* lease,
        or won a race for this one) — never blocks, never raises for the
        ordinary lost-race cases.  Callers loop over other cells and come
        back; backoff policy lives in the worker, not here.
        """
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        lease = self._create(path, key)
        if lease is not None:
            return lease
        # Held — by whom, and is it alive?
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            # Released between our O_EXCL and the stat: retry the claim.
            lease = self._create(path, key)
            if lease is None:
                self.contended += 1
            return lease
        if age <= self.timeout:
            self.contended += 1
            return None
        # Stale.  Atomically tombstone it (single rename winner), then
        # compete for a fresh claim like everyone else.
        import uuid

        tombstone = path.with_name(f"{path.name}.reclaim.{uuid.uuid4().hex[:8]}")
        try:
            os.rename(path, tombstone)
        except OSError:
            self.contended += 1  # another reclaimer won the rename
            return None
        tombstone.unlink(missing_ok=True)
        lease = self._create(path, key)
        if lease is None:
            self.contended += 1
            return lease
        self.reclaimed += 1
        return lease

    def release(self, lease: Lease) -> None:
        lease.path.unlink(missing_ok=True)

    def held_keys(self) -> List[str]:
        """Keys with a live (non-stale) lease right now — for status."""
        now = time.time()
        held = []
        for path in self.dir.glob("*.lease"):
            try:
                if now - path.stat().st_mtime <= self.timeout:
                    held.append(path.name[: -len(".lease")])
            except OSError:
                continue
        return held

    def sweep_orphans(self, done_keys) -> int:
        """Unlink leases over already-completed cells; returns the count.

        These are the droppings of workers killed between the cache write
        and the release.  Removing them is pure hygiene — no live worker
        wants a lease on a done cell — and racing an in-flight release is
        harmless (both unlink, one no-ops).  Leftover reclaim tombstones
        are swept here too.
        """
        removed = 0
        done = set(done_keys)
        for path in list(self.dir.glob("*.lease")):
            if path.name[: -len(".lease")] in done:
                path.unlink(missing_ok=True)
                removed += 1
        for path in list(self.dir.glob("*.reclaim.*")):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

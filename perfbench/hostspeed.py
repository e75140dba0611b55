"""Host-speed probe: every reported time is scaled by it.

The benchmark runs on shared machines whose speed drifts in phases that
last seconds: on a 2-core host shared with other tenants, a fixed
pure-Python loop ran at 1.0x, 1.5x and 2.0x of its fastest time in turn,
with no steal time reported, and CPU time slowed as much as wall time.  A
whole run can sit in a slow phase, so neither wall time, CPU time nor the
best of several passes repeats from run to run.

So the benchmark times a fixed pure-Python routine, the probe, between
chunks of work.  A chunk's time is divided by the mean of the probes on
either side and multiplied by :data:`REFERENCE_S`: the result is the time
the chunk would take on a host where the probe takes ``REFERENCE_S``.  The
probe lives here, not in the program, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["REFERENCE_S", "REPEATS", "probe", "scale"]

#: Probe time of the reference host: scaled times are what the work would
#: take where :func:`probe` returns this (about the probe's time in the
#: fast phases of the 2-core Xeon host this was sized on).
REFERENCE_S = 170e-6

#: Probe rounds per :func:`probe`; it returns their median, so a single
#: interrupt does not move it.
REPEATS = 7

#: The probe's graph fits in the core's own caches.  A probe over an 8 MB
#: graph, which competes for the shared caches, tracked the sweeps a little
#: better, but it made ``setup_s`` noisier (IQR/median over five seeds
#: 0.15-0.21, against 0.01-0.09) and added 13-26 MB to ``peak_rss_mb``.
_NODES = 200
_ADJ = {u: [(u * 7 + step) % _NODES for step in (1, 3, 5)] for u in range(_NODES)}


def _probe_once() -> float:
    """Breadth-first searches from four sources over a fixed 200-node graph:
    dict and list work of the kind the simulator's interpreter loop does."""
    t0 = time.perf_counter()
    for source in (0, 50, 100, 150):
        depth = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in _ADJ[u]:
                    if v not in depth:
                        depth[v] = depth[u] + 1
                        nxt.append(v)
            frontier = nxt
    return time.perf_counter() - t0


def probe() -> float:
    """The probe's time now, in seconds: median of :data:`REPEATS` rounds."""
    return statistics.median(_probe_once() for _ in range(REPEATS))


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into the time
    on the reference host."""
    return REFERENCE_S / ((before + after) / 2.0)

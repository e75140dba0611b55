"""Per-process graph/CSR memoization for sweep execution.

A sweep batch typically names a handful of distinct topologies and many
seeds/configurations per topology, yet :func:`repro.runtime.spec.materialize`
historically rebuilt the :class:`~repro.graphs.port_graph.PortGraph` (and,
lazily, its compiled CSR form) once per :class:`RunSpec`.  Graph
construction is pure — ``(family, params)`` determines the graph bit for
bit (generators derive randomness from explicit seeds in ``params``) — and
``PortGraph`` is immutable by convention, so the build can be shared.

:func:`graph_for` is that share point: a keyed, bounded, per-process memo.
Each executor worker process holds its own (no cross-process coordination,
no pickling of graphs); with the chunked dispatch of
:class:`~repro.runtime.executor.ParallelExecutor`, every worker builds each
topology at most once per batch and every spec after the first reuses both
the adjacency and the lazily-compiled CSR kernel.

The same memo holds two graph-pure answers keyed by graph identity: the
pairwise start-distance memos (:func:`pair_memo_for`, which every record
reads) and the UXS certifications that passed (:func:`is_certified`), so
the specs of one memoized graph pay each once per process.  :func:`clear`
drops them all, and with them the exploration-walk rows that the
scheduler keeps for the current graph (:func:`repro.graphs.csr.walk_table`).

``benchmarks/bench_sweep.py`` measures the wall-clock effect and writes
``BENCH_sweep.json``; :func:`disabled` is the benchmark's (and any
debugging session's) escape hatch.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Tuple

from repro.graphs.csr import clear_walk_tables
from repro.graphs.generators import by_name
from repro.graphs.port_graph import PortGraph

__all__ = [
    "graph_for",
    "pair_memo_for",
    "is_certified",
    "mark_certified",
    "cache_info",
    "clear",
    "disabled",
    "MAX_ENTRIES",
]

#: Retained graphs per process.  Sweeps rarely touch more than a few dozen
#: distinct topologies; eviction is FIFO (dict insertion order), which for
#: the executor's chunk-ordered workloads behaves like LRU at a fraction of
#: the bookkeeping.
MAX_ENTRIES = 64

_cache: Dict[Tuple[str, str], PortGraph] = {}
_hits = 0
_misses = 0
_enabled = True


def _key(family: str, params: Dict[str, Any]) -> Tuple[str, str]:
    return (family, json.dumps(params, sort_keys=True, separators=(",", ":")))


def graph_for(family: str, params: Dict[str, Any]) -> PortGraph:
    """The memoized graph for ``family(**params)``.

    Returns the *shared* instance — callers must treat it as immutable
    (``PortGraph`` already promises that).  Falls back to a fresh build
    when memoization is disabled or the params refuse to serialize
    (non-JSON values cannot key a cache safely).
    """
    global _hits, _misses
    if not _enabled:
        return by_name(family, **params)
    try:
        key = _key(family, params)
    except TypeError:
        return by_name(family, **params)
    graph = _cache.get(key)
    if graph is not None:
        _hits += 1
        return graph
    _misses += 1
    graph = by_name(family, **params)
    if len(_cache) >= MAX_ENTRIES:
        _cache.pop(next(iter(_cache)))
    _cache[key] = graph
    return graph


#: Per-graph BFS pair-distance memos, keyed by graph identity.  The memo
#: holds a strong reference to its graph, so a live entry's ``id`` cannot
#: be recycled; the identity check below guards the (bounded) stale case.
_pair_memos: Dict[int, Any] = {}


def pair_memo_for(graph: PortGraph):
    """The shared :class:`~repro.analysis.placement.PairDistanceMemo` for
    ``graph``.

    Every record (:func:`repro.analysis.experiments.record_from_result`)
    reads its min-pairwise start distance here; the underlying BFS trees
    are pure functions of the graph, so one memo serves every run, scalar
    or batched, on that graph in the process.  Answers are bit-identical
    to a fresh memo — the memo class itself guarantees equality with the
    memo-free path.
    """
    memo = _pair_memos.get(id(graph))
    if memo is not None and memo.graph is graph:
        return memo
    from repro.analysis.placement import PairDistanceMemo  # avoid a cycle

    memo = PairDistanceMemo(graph)
    if len(_pair_memos) >= MAX_ENTRIES:
        _pair_memos.pop(next(iter(_pair_memos)))
    _pair_memos[id(graph)] = memo
    return memo


#: (graph, UXS plan) pairs that passed certification, keyed by both
#: identities.  Each entry holds strong references to the pair, so no key
#: in the dict can name another object.
_certified: Dict[Tuple[int, int], Tuple[PortGraph, Any]] = {}


def is_certified(graph: PortGraph, plan: Any) -> bool:
    """Whether ``plan`` passed certification on this very ``graph``.

    Only :func:`mark_certified` adds entries, so a graph that fails is
    checked (and fails) again on every call.  Graphs and plans are pure
    and immutable, so a pass holds for the life of both objects.
    """
    return (id(graph), id(plan)) in _certified


def mark_certified(graph: PortGraph, plan: Any) -> None:
    """Remember that ``plan`` passed certification on ``graph``."""
    if len(_certified) >= MAX_ENTRIES:
        _certified.pop(next(iter(_certified)))
    _certified[(id(graph), id(plan))] = (graph, plan)


def cache_info() -> Dict[str, int]:
    """``{"hits", "misses", "size"}`` for this process's memo."""
    return {"hits": _hits, "misses": _misses, "size": len(_cache)}


def clear() -> None:
    """Drop every memoized graph, pair-distance memo, certification and
    walk row, and reset the counters."""
    global _hits, _misses
    _cache.clear()
    _pair_memos.clear()
    _certified.clear()
    clear_walk_tables()
    _hits = 0
    _misses = 0


@contextmanager
def disabled() -> Iterator[None]:
    """Temporarily build every graph from scratch (benchmark baseline)."""
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous

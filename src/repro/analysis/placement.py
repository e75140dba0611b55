"""Initial placements and label assignments — the adversary's knobs.

The paper's bounds are parameterized by what the adversary does with the
initial configuration:

* Theorem 8 needs an *undispersed* input (some node holds ≥ 2 robots);
* Theorem 12's cases are driven by the minimum pairwise distance ``i`` of a
  *dispersed* input;
* Lemma 15 is about the adversary's inability to keep ``⌊n/c⌋ + 1`` robots
  pairwise further than ``2c - 2`` apart — :func:`adversarial_scatter` is
  our best-effort scatterer that experiments use to attack the bound.

Labels: unique IDs from ``[1, n^b]`` (default ``b = 2``), with schemes
``random`` (seeded), ``compact`` (1..k — shortest bit strings) and
``adversarial_long`` (all labels near ``n^b`` — maximal equal bit lengths,
the worst case for bit-schedule algorithms).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.core import bounds
from repro.graphs.port_graph import PortGraph
from repro.graphs.traversal import bfs_distances, pairwise_distances

__all__ = [
    "undispersed_placement",
    "dispersed_random",
    "dispersed_with_pair_distance",
    "adversarial_scatter",
    "min_pairwise_distance",
    "PairDistanceMemo",
    "assign_labels",
    "PlacementError",
]


class PlacementError(ValueError):
    """The requested configuration does not exist on this graph."""


def _min_pairwise(nodes: Sequence[int], dist_for) -> Optional[int]:
    """Shared core of :func:`min_pairwise_distance`: ``dist_for(u)`` must
    return the BFS distance list from ``u`` (memoized or fresh)."""
    if len(nodes) < 2:
        return None
    if len(set(nodes)) < len(nodes):
        return 0
    best: Optional[int] = None
    node_list = sorted(set(nodes))
    for i, u in enumerate(node_list[:-1]):
        dist = dist_for(u)
        for v in node_list[i + 1 :]:
            d = dist[v]
            if best is None or d < best:
                best = d
    return best


def min_pairwise_distance(graph: PortGraph, nodes: Sequence[int]) -> Optional[int]:
    """Minimum hop distance over all pairs (``0`` if a node repeats).

    ``None`` for fewer than two robots.
    """
    return _min_pairwise(nodes, lambda u: bfs_distances(graph, u))


class PairDistanceMemo:
    """Per-graph BFS memo for repeated :func:`min_pairwise_distance` queries.

    A replica campaign computes the pair distance of R placements on *one*
    graph; start nodes recur across replicas, and each recurring node would
    pay a fresh BFS per replica.  This memo keys BFS results by start node —
    distances on a fixed graph are pure, so the answers are bit-identical to
    the memo-free function (``tests/test_runtime.py`` pins this against a
    fresh BFS).
    """

    def __init__(self, graph: PortGraph):
        self.graph = graph
        self._dist: dict = {}

    def distances_from(self, u: int) -> List[int]:
        dist = self._dist.get(u)
        if dist is None:
            dist = self._dist[u] = bfs_distances(self.graph, u)
        return dist

    def min_pairwise_distance(self, nodes: Sequence[int]) -> Optional[int]:
        return _min_pairwise(nodes, self.distances_from)


def undispersed_placement(graph: PortGraph, k: int, seed: int = 0) -> List[int]:
    """``k >= 2`` robots with at least one co-located pair (seeded random)."""
    if k < 2:
        raise PlacementError("undispersed placement needs k >= 2")
    rng = random.Random(seed)
    hub = rng.randrange(graph.n)
    starts = [hub, hub]
    starts += [rng.randrange(graph.n) for _ in range(k - 2)]
    rng.shuffle(starts)
    return starts


def dispersed_random(graph: PortGraph, k: int, seed: int = 0) -> List[int]:
    """``k`` robots on ``k`` distinct nodes, uniformly at random (seeded)."""
    if k > graph.n:
        raise PlacementError(f"cannot disperse {k} robots over {graph.n} nodes")
    rng = random.Random(seed)
    return rng.sample(range(graph.n), k)


def dispersed_with_pair_distance(
    graph: PortGraph, k: int, distance: int, seed: int = 0
) -> List[int]:
    """A dispersed placement whose minimum pairwise distance is exactly
    ``distance``.

    Picks a pair at the requested distance, then greedily adds robots whose
    distance to every chosen node is at least ``distance`` (so the chosen
    pair stays the minimum).  Raises :class:`PlacementError` when the graph
    cannot host the configuration.
    """
    if distance < 1:
        raise PlacementError("use undispersed_placement for distance 0")
    if k < 2:
        raise PlacementError("need k >= 2")
    rng = random.Random(seed)
    dmat = pairwise_distances(graph)
    pairs = [
        (u, v)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if dmat[u][v] == distance
    ]
    if not pairs:
        raise PlacementError(f"no node pair at distance {distance}")
    rng.shuffle(pairs)
    for (a, b) in pairs:
        chosen = [a, b]
        candidates = [
            v
            for v in range(graph.n)
            if v not in (a, b)
            and dmat[a][v] >= distance
            and dmat[b][v] >= distance
        ]
        rng.shuffle(candidates)
        for v in candidates:
            if len(chosen) == k:
                break
            if all(dmat[u][v] >= distance for u in chosen):
                chosen.append(v)
        if len(chosen) == k:
            rng.shuffle(chosen)
            return chosen
    raise PlacementError(
        f"could not place {k} robots with min pair distance exactly {distance}"
    )


def adversarial_scatter(graph: PortGraph, k: int, seed: int = 0) -> List[int]:
    """Greedy max-min-distance scatter (farthest-point traversal).

    The adversary of Lemma 15: tries to keep robots as far apart as
    possible.  Greedy farthest-point is the standard 2-approximation of the
    optimal scatter — good enough to probe the ``2c - 2`` bound from the
    adversary's side (E6 additionally tries several seeds and keeps the
    best).
    """
    if k > graph.n:
        raise PlacementError(f"cannot scatter {k} robots over {graph.n} nodes")
    rng = random.Random(seed)
    dmat = pairwise_distances(graph)
    first = rng.randrange(graph.n)
    chosen = [first]
    while len(chosen) < k:
        best_v, best_d = None, -1
        order = list(range(graph.n))
        rng.shuffle(order)  # tie-breaking varies with seed
        for v in order:
            if v in chosen:
                continue
            d = min(dmat[u][v] for u in chosen)
            if d > best_d:
                best_v, best_d = v, d
        chosen.append(best_v)  # type: ignore[arg-type]
    return chosen


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------
LABEL_SCHEMES = ("random", "compact", "adversarial_long")


def assign_labels(
    k: int, n: int, scheme: str = "random", seed: int = 0, exponent: int = 2
) -> List[int]:
    """``k`` unique labels from ``[1, n^exponent]``.

    ``random`` — seeded sample; ``compact`` — ``1..k`` (shortest IDs, the
    fastest case for bit schedules); ``adversarial_long`` — the ``k``
    largest admissible labels (maximal, equal bit lengths: schedules run
    longest and symmetry-breaking happens latest).
    """
    cap = bounds.max_label(n, exponent)
    if k > cap:
        raise ValueError(f"cannot give {k} unique labels from [1, {cap}]")
    if scheme == "compact":
        return list(range(1, k + 1))
    if scheme == "adversarial_long":
        return list(range(cap - k + 1, cap + 1))
    if scheme == "random":
        rng = random.Random(seed)
        return sorted(rng.sample(range(1, cap + 1), k))
    raise ValueError(f"unknown label scheme {scheme!r}; known: {LABEL_SCHEMES}")

"""Running gathering experiments and classifying their regimes.

:func:`run_gathering` is the one-stop runner used by every benchmark: it
builds the world, pre-verifies UXS coverage when the algorithm may fall
back to exploration sequences (refusing to report results on an uncovered
instance — see docs/ALGORITHMS.md), runs to completion, validates the
gathering-with-detection contract, and returns a flat record.

Batch call sites (sweeps, reports, the CLI) do not call it directly any
more: they describe runs as :class:`repro.runtime.RunSpec` values and go
through :func:`repro.runtime.execute`, which dispatches to this function
serially or across worker processes and caches the :class:`GatheringRun`
records it returns.  ``GatheringRun`` therefore stays a plain, picklable,
JSON-round-trippable dataclass (see :meth:`GatheringRun.to_dict` /
:meth:`GatheringRun.from_dict`).

:func:`regime_for` encodes Theorem 16's regime table: given ``k`` and ``n``
it names the bound the paper promises.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

from repro.graphs.port_graph import PortGraph
from repro.sim.activation import build_activation
from repro.sim.robot import RobotSpec
from repro.sim.world import World
from repro.uxs.generators import practical_plan
from repro.uxs.verify import UxsCertificationError, covers_all_starts

__all__ = [
    "GatheringRun",
    "run_gathering",
    "record_from_result",
    "regime_for",
    "verify_uxs_for_graph",
]


@dataclass(slots=True)
class GatheringRun:
    """Flat record of one gathering run (benchmark row material)."""

    algorithm: str
    n: int
    m: int
    k: int
    rounds: int
    total_moves: int
    max_moves: int
    gathered: bool
    detected: bool
    first_gather_round: Optional[int]
    min_pair_distance: Optional[int]
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_row(self) -> Dict[str, Any]:
        row = {
            "algorithm": self.algorithm,
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "dist": self.min_pair_distance,
            "rounds": self.rounds,
            "moves": self.total_moves,
            "gathered": self.gathered,
            "detected": self.detected,
            "first_gather": self.first_gather_round,
        }
        row.update(self.extra)
        return row

    def to_dict(self) -> Dict[str, Any]:
        """Full field dict (unlike :meth:`as_row`, loss-free): the form the
        runtime's result cache serializes to JSON."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GatheringRun":
        return cls(**data)


def verify_uxs_for_graph(graph: PortGraph) -> None:
    """Assert the certified practical plan covers this experiment graph.

    Called by :func:`run_gathering` for UXS-capable algorithms; raising here
    (instead of running anyway) keeps reported numbers honest — a schedule
    whose exploration property is broken would produce garbage rounds, not
    a valid reproduction.  A pass is remembered per (graph, plan) object
    pair in :mod:`repro.runtime.graph_cache`, so the specs of a memoized
    graph certify it once per process; a failure is never remembered.
    """
    from repro.runtime import graph_cache  # the runtime imports this module

    plan = practical_plan(graph.n)
    if graph_cache.is_certified(graph, plan):
        return
    if plan.T and not covers_all_starts(graph, plan.offsets):
        raise UxsCertificationError(
            f"practical UXS plan for n={graph.n} does not cover this graph; "
            f"raise the certification safety factor"
        )
    graph_cache.mark_certified(graph, plan)


def _scenario_extras(result) -> Dict[str, Any]:
    """Fault metrics for non-clean runs (defined in ``docs/SCENARIOS.md``).

    ``mis_detected`` — every robot halted, yet the swarm is not on one node:
    survivors completed their schedules *believing* gathering succeeded.
    ``stranded`` — robots that ended anywhere but the rally point (the
    plurality final node, smallest node id on ties); 0 for a gathered run.
    ``crashed`` / ``crashed_labels`` — robots whose program was crash-faulted
    before it finished (from the wrapper's ``crashed_at`` stat).
    """
    positions = result.positions
    counts: Dict[int, int] = {}
    for node in positions.values():
        counts[node] = counts.get(node, 0) + 1
    rally = min(counts, key=lambda v: (-counts[v], v))
    crashed = sorted(l for l, st in result.stats.items() if "crashed_at" in st)
    return {
        "mis_detected": not result.gathered,
        "stranded": sum(1 for node in positions.values() if node != rally),
        "crashed": len(crashed),
        "crashed_labels": crashed,
    }


def run_gathering(
    algorithm: str,
    graph: PortGraph,
    starts: Sequence[int],
    labels: Sequence[int],
    factory_for: Callable[[], Any],
    knowledge: Optional[Dict[str, Any]] = None,
    uses_uxs: bool = True,
    stop_on_gather: bool = False,
    max_rounds: Optional[int] = None,
    strict: bool = True,
    activation: str = "sync",
    activation_args: Optional[Dict[str, Any]] = None,
    fault_plan=None,
    engine: Optional[str] = None,
) -> GatheringRun:
    """Run one configured gathering instance and return its record.

    ``factory_for()`` must return a fresh program factory per robot (program
    factories from :mod:`repro.core` are stateless, so passing e.g.
    ``lambda: faster_gathering_program()`` or a pre-built factory works).

    ``activation`` names an activation model from
    :mod:`repro.sim.activation` (``"sync"`` — the paper's model — runs the
    scheduler's native path).  ``fault_plan`` is an optional
    :class:`repro.ext.faults.FaultPlan` applied per placement index.  When
    either deviates from the clean synchronous setting, the record's
    ``extra`` gains the scenario fault metrics (``mis_detected``,
    ``stranded``, ``crashed``) defined in ``docs/SCENARIOS.md``.

    ``engine`` names a simulation backend from :func:`repro.sim.engines.
    list_engines` (``None`` — the default scalar scheduler).  Conforming
    backends return bit-identical records; see ``docs/ENGINES.md``.
    """
    if len(starts) != len(labels):
        raise ValueError("starts and labels must align")
    if uses_uxs:
        verify_uxs_for_graph(graph)
    model = build_activation(activation, activation_args)
    faulted = fault_plan is not None and not fault_plan.empty
    if faulted:
        fault_plan.validate_for(len(starts))
    factory = factory_for()
    specs = [
        RobotSpec(
            label=l,
            start=s,
            factory=fault_plan.wrap(i, factory) if faulted else factory,
            knowledge=dict(knowledge or {}),
        )
        for i, (l, s) in enumerate(zip(labels, starts))
    ]
    world = World(graph, specs, strict=strict)
    kwargs: Dict[str, Any] = {"stop_on_gather": stop_on_gather}
    if max_rounds is not None:
        kwargs["max_rounds"] = max_rounds
    if model is not None:
        kwargs["activation"] = model
    if engine is not None:
        kwargs["engine"] = engine
    result = world.run(**kwargs)
    return record_from_result(
        algorithm,
        graph,
        starts,
        result,
        scenario_metrics=faulted or model is not None,
    )


def record_from_result(
    algorithm: str,
    graph: PortGraph,
    starts: Sequence[int],
    result,
    scenario_metrics: bool = False,
) -> GatheringRun:
    """Assemble the flat :class:`GatheringRun` record from a run result.

    Shared by :func:`run_gathering` and the batched replica path
    (:func:`repro.runtime.spec.execute_batch_spec`), so a batched record is
    built by the exact code a scalar record is.  ``min_pair_distance``
    comes from the graph's per-process BFS memo
    (:func:`repro.runtime.graph_cache.pair_memo_for`): the integers a fresh
    :func:`~repro.analysis.placement.min_pairwise_distance` computes, with
    one BFS per start node per graph.
    """
    from repro.runtime import graph_cache  # the runtime imports this module

    extra: Dict[str, Any] = {}
    for stats in result.stats.values():
        if "gathered_at_step" in stats:
            extra["gathered_at_step"] = stats["gathered_at_step"]
        if "map_memory_bits" in stats:
            extra["map_memory_bits"] = stats["map_memory_bits"]
    if scenario_metrics:
        extra.update(_scenario_extras(result))
    # Sorted key order: the result cache stores records as sort_keys JSON,
    # so a cache round-trip re-orders dict keys.  Normalizing here keeps
    # fresh and cached records identical down to row/column order.
    extra = dict(sorted(extra.items()))
    return GatheringRun(
        algorithm=algorithm,
        n=graph.n,
        m=graph.m,
        k=len(starts),
        rounds=result.rounds,
        total_moves=result.metrics.total_moves,
        max_moves=result.metrics.max_moves,
        gathered=result.gathered,
        detected=result.detected,
        first_gather_round=result.metrics.first_gather_round,
        min_pair_distance=graph_cache.pair_memo_for(graph).min_pairwise_distance(starts),
        extra=extra,
    )


def regime_for(k: int, n: int) -> str:
    """Theorem 16's regime for ``k`` robots on ``n`` nodes.

    ``"n3"`` — ``k >= ⌊n/2⌋+1`` (O(n³));
    ``"n4logn"`` — ``⌊n/3⌋+1 <= k < ⌊n/2⌋+1`` (O(n⁴ log n));
    ``"n5"`` — otherwise (Õ(n⁵)).
    """
    if k >= n // 2 + 1:
        return "n3"
    if k >= n // 3 + 1:
        return "n4logn"
    return "n5"

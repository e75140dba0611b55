"""Canned, reusable experiment sweeps.

The benchmark modules in ``benchmarks/`` print tables and assert shapes;
this module holds the *library-facing* versions of the same sweeps so that
users (and ``python -m repro report``) can regenerate the paper's results
programmatically without pytest.

Every sweep returns a list of plain dict rows (table-ready) and is
deterministic for fixed arguments.  Simulation-running sweeps describe
their runs as :class:`repro.runtime.RunSpec` batches and dispatch through
:func:`repro.runtime.run_specs`; pass ``executor=ParallelExecutor(...)``
to fan a sweep out over worker processes and/or ``cache=ResultCache(...)``
to skip runs completed by an earlier invocation — the rows are identical
either way, because each row is a pure function of its spec.
``root_seed`` feeds the runtime's deterministic seed streams; the canned
sweeps pin their placement/label seeds (reproducing the paper record), so
it only enters cache identity here — it does not change any row.
(:func:`lemma15_sweep` is placement arithmetic only — no simulations, so
no executor.)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.experiments import regime_for
from repro.analysis.fitting import loglog_slope
from repro.analysis.placement import adversarial_scatter, min_pairwise_distance
from repro.core import bounds
from repro.graphs import generators as gg
from repro.runtime import ExecutionStats, Executor, ResultCache, RunSpec, execute, run_specs

__all__ = [
    "undispersed_sweep",
    "regime_sweep",
    "staged_distance_sweep",
    "lemma15_sweep",
    "detection_tail_sweep",
    "cost_sweep",
    "scenario_sweep",
]


def undispersed_sweep(
    ns: Sequence[int] = (8, 12, 16),
    k: int = 4,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    root_seed: Optional[int] = None,
    stats: Optional[ExecutionStats] = None,
) -> Dict[str, Any]:
    """Theorem 8 sweep (E1 shape): rounds vs n on rings, with slope."""
    specs = [
        RunSpec(
            algorithm="undispersed",
            family="ring",
            graph={"n": n},
            placement="undispersed",
            k=k,
            placement_args={"seed": n},
            labels_args={"seed": n},
            uses_uxs=False,
        )
        for n in ns
    ]
    recs = run_specs(specs, executor=executor, cache=cache, root_seed=root_seed, stats=stats)
    rows: List[Dict[str, Any]] = [
        {"n": n, "rounds": rec.rounds, "detected": rec.detected, "max_moves": rec.max_moves}
        for n, rec in zip(ns, recs)
    ]
    slope = loglog_slope([r["n"] for r in rows], [r["rounds"] for r in rows])
    return {"rows": rows, "slope": slope, "claimed_exponent": 3.0}


def regime_sweep(
    ns: Sequence[int] = (9, 12),
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    root_seed: Optional[int] = None,
    stats: Optional[ExecutionStats] = None,
) -> List[Dict[str, Any]]:
    """Theorem 16's regime table (E5) as data."""
    cases = []
    for n in ns:
        for regime, k in (("n3", n // 2 + 1), ("n4logn", n // 3 + 1), ("n5", 2)):
            assert regime_for(k, n) == regime
            cases.append((n, regime, k))
    specs = [
        RunSpec(
            algorithm="faster",
            family="ring",
            graph={"n": n},
            placement="scatter",
            k=k,
            placement_args={"seed": 1},
            labels_args={"seed": n + k},
        )
        for n, _regime, k in cases
    ]
    recs = run_specs(specs, executor=executor, cache=cache, root_seed=root_seed, stats=stats)
    return [
        {
            "n": n,
            "regime": regime,
            "k": k,
            "scatter_dist": rec.min_pair_distance,
            "rounds": rec.rounds,
            "detected": rec.detected,
        }
        for (n, regime, k), rec in zip(cases, recs)
    ]


def staged_distance_sweep(
    n: int = 12,
    distances: Sequence[int] = (0, 1, 2, 3),
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    root_seed: Optional[int] = None,
    stats: Optional[ExecutionStats] = None,
) -> List[Dict[str, Any]]:
    """Theorem 12's staged complexity (E4) as data."""
    boundaries = bounds.faster_gathering_boundaries(n)
    specs = []
    for d in distances:
        if d == 0:
            placement, k, placement_args = "undispersed", 3, {"seed": 7}
        else:
            placement, k, placement_args = "pair-distance", 2, {"seed": 3, "distance": d}
        specs.append(
            RunSpec(
                algorithm="faster",
                family="ring",
                graph={"n": n},
                placement=placement,
                k=k,
                placement_args=placement_args,
                labels_args={"seed": d + 1},
            )
        )
    recs = run_specs(specs, executor=executor, cache=cache, root_seed=root_seed, stats=stats)
    return [
        {
            "pair_dist": d,
            "gathered_at_step": rec.extra.get("gathered_at_step"),
            "rounds": rec.rounds,
            "boundary": boundaries[min(d, 5)],
            "detected": rec.detected,
        }
        for d, rec in zip(distances, recs)
    ]


def lemma15_sweep(c_values: Sequence[int] = (2, 3, 4), seeds: int = 4) -> List[Dict[str, Any]]:
    """Lemma 15 adversary attack (E6) as data.

    Pure placement arithmetic — no simulations run, so this sweep takes no
    executor/cache (there is nothing to parallelize or memoize).
    """
    rows = []
    families = [
        ("ring", gg.ring(24)),
        ("path", gg.path(25)),
        ("grid", gg.grid(5, 5)),
        ("erdos_renyi", gg.erdos_renyi(24, seed=7)),
    ]
    for name, g in families:
        for c in c_values:
            k = g.n // c + 1
            best = max(
                min_pairwise_distance(g, adversarial_scatter(g, k, seed=s))
                for s in range(seeds)
            )
            rows.append(
                {
                    "family": name,
                    "c": c,
                    "k": k,
                    "adversary_best": best,
                    "bound": 2 * c - 2,
                    "holds": best <= 2 * c - 2,
                }
            )
    return rows


def detection_tail_sweep(
    n: int = 9,
    k: int = 3,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    root_seed: Optional[int] = None,
    stats: Optional[ExecutionStats] = None,
) -> List[Dict[str, Any]]:
    """E10a as data: what detection costs on top of first-gather."""
    algorithms = ("uxs", "faster")
    specs = [
        RunSpec(
            algorithm=name,
            family="ring",
            graph={"n": n},
            placement="dispersed",
            k=k,
            placement_args={"seed": n},
            labels_args={"seed": k},
        )
        for name in algorithms
    ]
    recs = run_specs(specs, executor=executor, cache=cache, root_seed=root_seed, stats=stats)
    return [
        {
            "algorithm": name,
            "first_gather": rec.first_gather_round,
            "termination": rec.rounds,
            "tail": rec.rounds - (rec.first_gather_round or 0),
        }
        for name, rec in zip(algorithms, recs)
    ]


def cost_sweep(
    ns: Sequence[int] = (9, 12),
    k_of: Callable[[int], int] = lambda n: n // 2 + 1,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    root_seed: Optional[int] = None,
    stats: Optional[ExecutionStats] = None,
) -> List[Dict[str, Any]]:
    """The §1.4 *cost* metric (total edge traversals): Faster-Gathering vs
    the TZ baseline on identical many-robot configurations (E12)."""
    specs = []
    for n in ns:
        k = k_of(n)
        for algorithm in ("faster", "tz"):
            specs.append(
                RunSpec(
                    algorithm=algorithm,
                    family="ring",
                    graph={"n": n},
                    placement="scatter",
                    k=k,
                    placement_args={"seed": 2},
                    labels_args={"seed": 3},
                )
            )
    recs = run_specs(specs, executor=executor, cache=cache, root_seed=root_seed, stats=stats)
    rows = []
    for i, n in enumerate(ns):
        fast, base = recs[2 * i], recs[2 * i + 1]
        rows.append(
            {
                "n": n,
                "k": k_of(n),
                "faster_moves": fast.total_moves,
                "tz_moves": base.total_moves,
                "faster_rounds": fast.rounds,
                "tz_rounds": base.rounds,
                "moves_ratio_tz/faster": base.total_moves / max(fast.total_moves, 1),
            }
        )
    return rows


def scenario_sweep(
    name: str,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    root_seed: Optional[int] = None,
    stats: Optional[ExecutionStats] = None,
    replicas: int = 1,
    engine: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one registered scenario and derive its fault metrics.

    Compiles the scenario (:mod:`repro.scenarios`) to its spec batch, adds
    the deduplicated *clean twins* (the same experiments in the paper's
    exact model — synchronous activation, no faults), executes everything
    in one runtime batch, and reports per-run rows plus a campaign summary:

    * ``mis_detection_rate`` — fraction of completed scenario runs whose
      robots all halted without the swarm being on one node;
    * ``stranded_total`` / ``crashed_total`` — robots left off the rally
      point / killed by the fault plan, summed over runs;
    * ``rounds_past_schedule`` (per row) — the run's rounds minus its
      clean twin's, i.e. what the perturbation cost (can be negative:
      see the ``adversarial-activation`` scenario).

    Seeds are assigned *before* twin derivation, so a twin differs from
    its scenario spec only in the scenario fields.  A spec that fails
    (curated scenarios never do — the registry's curation rule) yields a
    row with ``error`` set instead of poisoning the batch.

    ``replicas=R`` turns the campaign into a replica campaign: each
    compiled spec runs as itself plus ``R - 1`` seed-varied siblings
    (:func:`repro.runtime.replicate_spec`), and rows gain a ``replica``
    column.  ``engine="batch-numpy"`` (or ``"batch-list"``) routes
    differ-only-by-seed groups (the clean siblings and their twins)
    through the lockstep replica engine — bit-identical rows, less
    wall-clock; scalar engine names pin the simulation backend instead
    (see docs/ENGINES.md).
    """
    # Imported here, not at module top: repro.scenarios sits above the
    # runtime layer this module feeds, and a top-level import would tie the
    # two packages into an import cycle for every analysis consumer.
    from repro.runtime import assign_seeds, replicate_spec
    from repro.scenarios import clean_twin, get_scenario

    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    scenario = get_scenario(name)
    specs = list(scenario.specs)
    if root_seed is not None:
        specs = assign_seeds(specs, root_seed)
    replica_of = [0] * len(specs)
    if replicas > 1:
        expanded: List[RunSpec] = []
        replica_of = []
        for i, spec in enumerate(specs):
            siblings = replicate_spec(
                spec,
                replicas,
                root_seed if root_seed is not None else 0,
                salt=f"replica:{name}:{i}",
            )
            expanded.extend(siblings)
            replica_of.extend(range(replicas))
        specs = expanded

    campaign = list(specs)
    twin_index: Dict[int, int] = {}
    # Seed the dedup map with the scenario specs themselves: a twin that
    # equals another spec already in the batch (the natural with/without-
    # faults pairing) must reuse that run, not execute a duplicate.
    seen_twins: Dict[str, int] = {}
    for i, spec in enumerate(specs):
        seen_twins.setdefault(spec.canonical_json(), i)
    for i, spec in enumerate(specs):
        twin = clean_twin(spec)
        if twin == spec:
            twin_index[i] = i
            continue
        key = twin.canonical_json()
        if key not in seen_twins:
            seen_twins[key] = len(campaign)
            campaign.append(twin)
        twin_index[i] = seen_twins[key]

    result = execute(
        campaign, executor=executor, cache=cache, stats=stats, engine=engine,
    )
    outcomes = result.outcomes

    rows: List[Dict[str, Any]] = []
    for i, spec in enumerate(specs):
        outcome = outcomes[i]
        plan = spec.fault_plan()
        row: Dict[str, Any] = {
            "scenario": name,
            "algorithm": spec.algorithm,
            "family": spec.family,
            "n": spec.graph.get("n"),
            "k": spec.k,
            "activation": spec.activation,
            "faults": plan.describe() if plan else "none",
        }
        if replicas > 1:
            row["replica"] = replica_of[i]
        if outcome.ok:
            rec = outcome.run
            twin_outcome = outcomes[twin_index[i]]
            row.update(
                rounds=rec.rounds,
                gathered=rec.gathered,
                detected=rec.detected,
                mis_detected=rec.extra.get("mis_detected", False),
                stranded=rec.extra.get("stranded", 0),
                crashed=rec.extra.get("crashed", 0),
                rounds_past_schedule=(
                    rec.rounds - twin_outcome.run.rounds if twin_outcome.ok else None
                ),
                error=None,
            )
        else:
            row.update(
                rounds=None,
                gathered=None,
                detected=None,
                mis_detected=None,
                stranded=None,
                crashed=None,
                rounds_past_schedule=None,
                error=outcome.error_type,
            )
        rows.append(row)

    done = [r for r in rows if r["error"] is None]
    summary = {
        "runs": len(rows),
        "failures": len(rows) - len(done),
        "mis_detection_rate": (
            sum(1 for r in done if r["mis_detected"]) / len(done) if done else None
        ),
        "stranded_total": sum(r["stranded"] for r in done),
        "crashed_total": sum(r["crashed"] for r in done),
    }
    return {
        "scenario": name,
        "title": scenario.title,
        "expectation": scenario.expectation,
        "rows": rows,
        "summary": summary,
        "stats": result.stats,
    }

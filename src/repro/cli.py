"""Command-line interface: run gathering experiments without writing code.

Examples::

    python -m repro families
    python -m repro bounds --n 16
    python -m repro plan --n 12
    python -m repro run --family ring --n 12 --k 7 --algorithm faster
    python -m repro run --family erdos_renyi --n 16 --k 5 \\
        --placement scatter --labels adversarial_long --trace
    python -m repro sweep --family ring --algorithm undispersed \\
        --ns 8 12 16 24 --k 4
    python -m repro sweep --ns 8 12 16 --workers 4 --cache-dir .repro-cache
    python -m repro report --workers 4 --cache-dir .repro-cache --out report.md
    python -m repro scenarios list
    python -m repro scenarios describe single-crash-waiter
    python -m repro scenarios run crash-storm --workers 2
    python -m repro sweep --scenario adversarial-activation
    python -m repro fuzz run --seed 0 --budget 50 --corpus-dir .fuzz-corpus
    python -m repro fuzz corpus --corpus-dir .fuzz-corpus
    python -m repro fuzz replay --corpus-dir .fuzz-corpus
    python -m repro campaign create --ns 8 12 16 --replicas 8 --cache-dir .repro-cache
    python -m repro campaign run --campaign ID --cache-dir .repro-cache --workers 4
    python -m repro campaign status --cache-dir .repro-cache
    python -m repro campaign resume --campaign ID --cache-dir .repro-cache

The CLI is a thin shell over :mod:`repro.analysis` and :mod:`repro.runtime`:
``run``, ``sweep`` and ``report`` describe their work as
:class:`repro.runtime.RunSpec` batches and dispatch through
:func:`repro.runtime.execute`.  ``--workers N`` fans the batch out over N
worker processes (rows are identical to serial execution, just faster);
``--cache-dir DIR`` memoizes completed runs on disk so repeated
invocations execute zero simulations.  ``scenarios`` exposes the curated
registry of :mod:`repro.scenarios` (see docs/SCENARIOS.md); ``fuzz``
drives the adversarial schedule search of :mod:`repro.search` (see
docs/FUZZING.md); ``campaign`` runs crash-safe sharded campaigns through
:mod:`repro.campaigns` — durable manifests, filesystem work-stealing,
resume-from-anywhere (see docs/CAMPAIGNS.md).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from repro.analysis.experiments import regime_for
from repro.analysis.fitting import loglog_slope
from repro.analysis.placement import LABEL_SCHEMES
from repro.analysis.tables import render_table
from repro.core import bounds
from repro.graphs import generators as gg
from repro.runtime import (
    ALGORITHM_BUILDERS,
    NO_DETECTION,
    NO_UXS,
    ExecutionStats,
    Executor,
    ParallelExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    execute,
    list_engines,
    replicate_spec,
)
from repro.campaigns import (
    DEFAULT_IDLE_TIMEOUT,
    DEFAULT_LEASE_TIMEOUT,
    CampaignManifest,
    list_manifests,
    load_manifest,
    resolve_campaign_id,
    run_campaign,
    save_manifest,
    status_of,
)
from repro.scenarios import all_scenarios, get_scenario, scenario_names
from repro.search.space import target_names

__all__ = ["main"]


def graph_params(args) -> Dict[str, Any]:
    """Translate CLI arguments into keyword arguments for the graph family
    (the declarative ``RunSpec.graph`` payload)."""
    kwargs: Dict[str, Any] = {}
    fn = gg.FAMILIES[args.family]
    import inspect

    sig = inspect.signature(fn)
    if "n" in sig.parameters:
        kwargs["n"] = args.n
    if "rows" in sig.parameters:
        kwargs["rows"] = args.rows or max(2, int(args.n**0.5))
        kwargs["cols"] = args.cols or max(2, args.n // kwargs["rows"])
    if "dim" in sig.parameters:
        kwargs["dim"] = max(1, args.n.bit_length() - 1)
    if "d" in sig.parameters:
        kwargs["d"] = args.degree
    if "seed" in sig.parameters:
        kwargs["seed"] = args.seed
    if "numbering" in sig.parameters:
        kwargs["numbering"] = args.numbering
    return kwargs


def build_graph(args) -> object:
    return gg.by_name(args.family, **graph_params(args))


def spec_from_args(args) -> RunSpec:
    """One declarative RunSpec for the configuration the flags describe."""
    if args.placement == "pair-distance" and args.pair_distance is None:
        raise SystemExit("--pair-distance is required for this placement")
    placement_args: Dict[str, Any] = {"seed": args.seed}
    if args.placement == "pair-distance":
        placement_args["distance"] = args.pair_distance
    algorithm_args = {
        key: value
        for key, value in (
            ("max_degree", args.max_degree),
            ("hop_distance", args.hop_distance),
        )
        if value is not None
    }
    knowledge = dict(algorithm_args)
    return RunSpec(
        algorithm=args.algorithm,
        family=args.family,
        graph=graph_params(args),
        placement=args.placement,
        k=args.k,
        placement_args=placement_args,
        labels=args.labels,
        labels_args={"seed": args.seed},
        algorithm_args=algorithm_args,
        knowledge=knowledge,
        seed=args.seed,
        uses_uxs=args.algorithm not in NO_UXS,
        stop_on_gather=args.algorithm in NO_DETECTION,
        max_rounds=args.max_rounds,
    )


def make_executor(args) -> Executor:
    if args.workers is not None and args.workers > 1:
        return ParallelExecutor(workers=args.workers)
    return SerialExecutor()


def make_cache(args) -> Optional[ResultCache]:
    if not args.cache_dir:
        return None
    try:
        return ResultCache(args.cache_dir)
    except OSError as exc:
        raise SystemExit(f"--cache-dir {args.cache_dir}: {exc}")


def runtime_requested(args) -> bool:
    """Whether to print the runtime accounting line (only when the user
    opted into the runtime flags, so default output stays byte-stable)."""
    return args.workers is not None or bool(args.cache_dir)


def runtime_context(args) -> str:
    """Scenario / knowledge-ablation suffix for the runtime summary line,
    so the accounting says *what* ran, not just how much."""
    parts = []
    if getattr(args, "scenario", None):
        parts.append(f"scenario={args.scenario}")
    if getattr(args, "replicas", 1) > 1:
        parts.append(f"replicas={args.replicas}")
    if getattr(args, "engine", None):
        parts.append(f"engine={args.engine}")
    if getattr(args, "max_degree", None) is not None:
        parts.append(f"knowledge[max_degree]={args.max_degree}")
    if getattr(args, "hop_distance", None) is not None:
        parts.append(f"knowledge[hop_distance]={args.hop_distance}")
    return " — " + ", ".join(parts) if parts else ""


def cmd_families(_args) -> int:
    rows = [{"family": name} for name in sorted(gg.FAMILIES)]
    print(render_table(rows, title="graph families"))
    return 0


def cmd_bounds(args) -> int:
    n = args.n
    rows = [
        {"quantity": "schedule_bits(n)", "value": bounds.schedule_bits(n)},
        {"quantity": "R1(n)  (Phase-1 budget)", "value": bounds.phase1_rounds(n)},
        {"quantity": "R(n)   (Undispersed-Gathering)", "value": bounds.undispersed_rounds(n)},
    ]
    for i in range(1, 6):
        rows.append(
            {
                "quantity": f"T({i})·bits  ({i}-Hop-Meeting)",
                "value": bounds.hop_meeting_rounds(i, n, args.max_degree),
            }
        )
    for step, e in enumerate(bounds.faster_gathering_boundaries(n, args.max_degree), 1):
        rows.append({"quantity": f"Faster-Gathering E{step}", "value": e})
    print(render_table(rows, title=f"schedule arithmetic for n={n}"
                       + (f", Δ={args.max_degree}" if args.max_degree else "")))
    return 0


def cmd_plan(args) -> int:
    from repro.uxs.generators import certification_battery, practical_plan

    plan = practical_plan(args.n)
    battery = certification_battery(args.n)
    print(f"practical UXS plan for n={args.n}:")
    print(f"  length T = {plan.T}   provenance = {plan.provenance}")
    print(f"  certified on {len(battery)} battery graphs from every start node")
    print(f"  paper-exact padding would be Õ(n^5) ≈ {args.n ** 5}")
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import generate_report, report_scenarios

    stats = ExecutionStats()
    text = generate_report(
        quick=not args.full,
        executor=make_executor(args),
        cache=make_cache(args),
        root_seed=args.seed,
        stats=stats,
    )
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    if runtime_requested(args):
        scenarios = ", ".join(report_scenarios(quick=not args.full))
        print(f"\n{stats.summary()} — scenarios: {scenarios}")
    return 0


def cmd_show(args) -> int:
    graph = build_graph(args)
    print(f"{args.family}: n={graph.n}, m={graph.m}, "
          f"degrees {graph.min_degree}..{graph.max_degree}")
    rows = []
    for v in graph.nodes():
        cells = [f"p{p}->{graph.neighbor(v, p)}" for p in graph.ports(v)]
        rows.append({"node": v, "degree": graph.degree(v), "ports": "  ".join(cells)})
    print(render_table(rows, title="adjacency (simulator view; robots never see this)"))
    return 0


def cmd_run(args) -> int:
    spec = spec_from_args(args)
    result = execute([spec], executor=make_executor(args), cache=make_cache(args))
    rec = result.outcomes[0].run_or_raise()
    print(render_table([rec.as_row()], title=f"{args.algorithm} on {args.family}"))
    if rec.k and rec.n:
        print(f"\nTheorem-16 regime for k={rec.k}, n={rec.n}: {regime_for(rec.k, rec.n)}")
    if args.algorithm in NO_DETECTION:
        print("(no detection: 'rounds' is when the harness stopped; see first_gather)")
    if runtime_requested(args):
        print(f"\n{result.stats.summary()}{runtime_context(args)}")
    return 0 if rec.gathered or args.algorithm in NO_DETECTION else 1


@contextmanager
def _maybe_profile(args):
    """cProfile context for ``sweep --profile`` (see docs/RUNTIME.md).

    Yields whether profiling is on; on exit prints the top 20
    cumulative-time entries.  Profiling forces serial in-process execution
    so the profile actually observes the simulations; worker processes
    would run them outside the profiler.
    """
    if not getattr(args, "profile", False):
        yield False
        return
    import cProfile
    import pstats

    if args.workers:
        print("--profile forces serial execution (workers ignored)\n")
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield True
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        print("profile: top 20 by cumulative time")
        stats.print_stats(20)


def _profiled_execute(args, specs, **kwargs):
    """``execute``, optionally under cProfile (``sweep --profile``)."""
    with _maybe_profile(args) as profiling:
        executor = SerialExecutor() if profiling else make_executor(args)
        return execute(specs, executor=executor, **kwargs)


def sweep_specs(args) -> List[RunSpec]:
    """The sweep grid as specs: one per ``--ns`` entry, times replicas.

    Shared by ``sweep`` and ``campaign create`` so a campaign built from
    the same flags produces the same cache keys a direct sweep would —
    results flow between the two transparently through the cache.
    """
    specs: List[RunSpec] = []
    for n in args.ns:
        ns_args = argparse.Namespace(**vars(args))
        ns_args.n = n
        base = spec_from_args(ns_args)
        if args.replicas > 1:
            specs.extend(replicate_spec(base, args.replicas, args.seed, salt=f"sweep:{n}"))
        else:
            specs.append(base)
    return specs


def cmd_sweep(args) -> int:
    if args.scenario:
        return _sweep_scenario(args)
    replicas = args.replicas
    cache = make_cache(args)
    swept = 0
    if args.resume:
        if cache is None:
            raise SystemExit("--resume needs --cache-dir: resuming means "
                             "trusting (and first cleaning) a cache directory")
        swept = cache.sweep_stale_tmp()
        cache.refresh()
    specs = sweep_specs(args)
    result = _profiled_execute(args, specs, cache=cache, engine=args.engine)
    result.stats.tmp_swept += swept
    if replicas > 1:
        # One aggregate row per n: a replica campaign reports the seed
        # distribution, not R near-identical table rows.
        rows = []
        for i, n in enumerate(args.ns):
            recs = [
                o.run_or_raise()
                for o in result.outcomes[i * replicas : (i + 1) * replicas]
            ]
            rounds = [r.rounds for r in recs]
            rows.append(
                {
                    "n": n,
                    "replicas": replicas,
                    "rounds_min": min(rounds),
                    "rounds_mean": round(sum(rounds) / len(rounds)),
                    "rounds_max": max(rounds),
                    "moves_mean": round(sum(r.total_moves for r in recs) / len(recs)),
                    "gathered": sum(1 for r in recs if r.gathered),
                }
            )
        print(
            render_table(
                rows,
                title=f"sweep: {args.algorithm} on {args.family} × {replicas} replicas",
            )
        )
        slope_rounds = [r["rounds_mean"] for r in rows]
    else:
        rows = [outcome.run_or_raise().as_row() for outcome in result.outcomes]
        print(render_table(rows, title=f"sweep: {args.algorithm} on {args.family}"))
        slope_rounds = [r["rounds"] for r in rows]
    if len(args.ns) >= 2:
        slope = loglog_slope(args.ns, slope_rounds)
        print(f"\nlog-log slope of rounds vs n: {slope:.2f}")
    if runtime_requested(args):
        print(f"\n{result.stats.summary()}{runtime_context(args)}")
    return 0


def _reject_ignored_flags(args, defaults_argv: List[str], honored: set, reason: str) -> None:
    """Fail loudly when flags the command would silently ignore were set.

    Compares ``args`` against a fresh parse of ``defaults_argv`` and
    rejects any non-``honored`` flag that differs from its default —
    better a crisp error than a user believing their flags took effect.
    """
    defaults = vars(make_parser().parse_args(defaults_argv))
    ignored = sorted(
        "--" + key.replace("_", "-")
        for key, value in vars(args).items()
        if key in defaults and key not in honored and value != defaults[key]
    )
    if ignored:
        raise SystemExit(f"{reason}; these flags would be ignored: {', '.join(ignored)}")


def _sweep_scenario(args) -> int:
    """``sweep --scenario NAME``: the same campaign path as ``scenarios
    run`` (clean twins, fault metrics, summary).

    A scenario's specs are pinned in the registry, so every spec-shaping
    sweep flag would be silently ignored — reject such combinations loudly
    instead of letting the user believe their flags took effect.
    """
    _reject_ignored_flags(
        args,
        ["sweep", "--scenario", args.scenario],
        {"scenario", "workers", "cache_dir", "profile", "replicas", "engine"},
        f"--scenario {args.scenario} runs the registry's pinned specs",
    )
    args.name = args.scenario
    return cmd_scenarios_run(args)


def cmd_scenarios_list(_args) -> int:
    rows = [
        {
            "scenario": sc.name,
            "runs": len(sc.specs),
            "tags": ",".join(sc.tags),
            "title": sc.title,
        }
        for sc in all_scenarios()
    ]
    print(render_table(rows, title=f"{len(rows)} registered scenarios"))
    print("\n(details: python -m repro scenarios describe NAME)")
    return 0


def cmd_scenarios_describe(args) -> int:
    scenario = get_scenario(args.name)
    print(f"scenario: {scenario.name}")
    print(f"  title:       {scenario.title}")
    if scenario.paper:
        print(f"  paper:       {scenario.paper}")
    if scenario.tags:
        print(f"  tags:        {', '.join(scenario.tags)}")
    print(f"  description: {scenario.description}")
    print(f"  expectation: {scenario.expectation}")
    print()
    print(render_table(list(scenario.spec_rows()), title=f"{len(scenario.specs)} compiled specs"))
    # The exact content-addressed identity of each compiled spec: the same
    # SHA-256 the result cache files are named by, so a describe output can
    # be checked against a cache directory byte-for-byte.
    print("\ncache identity (sha256 of RunSpec.canonical_json):")
    for i, spec in enumerate(scenario.specs):
        print(f"  spec {i}: {ResultCache.key_for(spec)}")
    return 0


def cmd_scenarios_run(args) -> int:
    from repro.analysis.sweeps import scenario_sweep

    # No root_seed here: curated scenarios pin every behavioral seed, and a
    # root seed would re-key each spec, divorcing the cache entries from
    # the identities `scenarios describe` prints.
    with _maybe_profile(args) as profiling:
        out = scenario_sweep(
            args.name,
            executor=SerialExecutor() if profiling else make_executor(args),
            cache=make_cache(args),
            replicas=getattr(args, "replicas", 1),
            engine=args.engine,
        )
    print(render_table(out["rows"], title=f"scenario: {args.name}"))
    summary = out["summary"]
    rate = summary["mis_detection_rate"]
    print(
        f"\ncampaign: {summary['runs']} runs, {summary['failures']} failed, "
        f"mis-detection rate {'n/a' if rate is None else f'{rate:.2f}'}, "
        f"{summary['stranded_total']} stranded, {summary['crashed_total']} crashed"
    )
    print(f"expectation: {out['expectation']}")
    if runtime_requested(args):
        print(f"\n{out['stats'].summary()} — scenario={args.name}")
    return 0 if summary["failures"] == 0 else 1


def _fuzz_row(result) -> Dict[str, Any]:
    plan = result.spec.fault_plan()
    return {
        "target": result.genome.target,
        "activation": result.genome.activation,
        "faults": plan.describe() if plan else "none",
        "rounds": result.rounds,
        "baseline": result.baseline_rounds,
        "regret": result.regret,
        "bound": result.bound,
        "key": result.key[:10],
    }


def cmd_fuzz_run(args) -> int:
    from repro.search import FuzzCampaign, entry_from_result, save_entry

    campaign = FuzzCampaign(
        seed=args.seed,
        budget=args.budget,
        targets=args.targets,
        engine=args.engine,
        cache=make_cache(args),
        executor=make_executor(args),
        explore=args.explore,
        min_regret=args.min_regret,
    )
    progress = None
    if args.verbose:

        def progress(r):
            status = f"regret={r.regret}" if r.ok else f"aborted ({r.error_type})"
            print(f"  [{r.iteration + 1}/{args.budget}] {r.genome.target}: {status}")

    report = campaign.run(progress=progress)
    print(
        f"fuzz campaign: seed={args.seed}, budget={args.budget} — "
        f"{len(report.positives)} positive-regret candidates, "
        f"{len(report.aborted)} aborted"
    )
    if report.minimized:
        rows = [_fuzz_row(r) for r in report.minimized]
        print()
        print(render_table(
            rows,
            title=f"{len(rows)} minimized worst cases (regret >= {args.min_regret})",
        ))
    else:
        print(f"no schedule reached regret >= {args.min_regret} within budget")
    if args.corpus_dir and report.minimized:
        paths = []
        for r in report.minimized:
            entry = entry_from_result(
                r,
                found={"seed": args.seed, "budget": args.budget, "iteration": r.iteration},
            )
            paths.append(save_entry(entry, args.corpus_dir))
        print(f"\ncorpus: wrote {len(paths)} entries to {args.corpus_dir}")
        for p in paths:
            print(f"  {p.name}")
    if runtime_requested(args):
        print(f"\n{report.stats.summary()} — fuzz seed={args.seed}")
    return 0


def cmd_fuzz_corpus(args) -> int:
    from repro.search import load_corpus, register_corpus

    entries = load_corpus(args.corpus_dir)
    if not entries:
        print(f"no corpus entries in {args.corpus_dir}")
        return 1
    rows = [
        {
            "entry": e.name,
            "target": e.target,
            "rounds": e.rounds,
            "baseline": e.baseline_rounds,
            "regret": e.regret,
            "bound": e.bound,
            "found": f"seed {e.found.get('seed', '?')}",
        }
        for e in entries
    ]
    print(render_table(rows, title=f"{len(entries)} corpus entries in {args.corpus_dir}"))
    if args.register:
        scenarios = register_corpus(entries, replace=True)
        print("\nregistered as scenarios (in this process):")
        for sc in scenarios:
            print(f"  {sc.name}")
        print("(inspect with: python -m repro scenarios describe NAME)")
    return 0


def cmd_fuzz_replay(args) -> int:
    from repro.search import load_corpus, replay_entry, replayable_engines

    entries = load_corpus(args.corpus_dir)
    if not entries:
        print(f"no corpus entries in {args.corpus_dir}")
        return 1
    cache = make_cache(args)
    executor = make_executor(args)
    stats = ExecutionStats()
    rows = []
    failures = 0
    for entry in entries:
        supported = replayable_engines(entry.spec)
        engines = [args.engine] if args.engine else supported
        for engine in engines:
            if engine not in supported:
                rows.append({
                    "entry": entry.name,
                    "engine": engine,
                    "rounds": None,
                    "expected": entry.rounds,
                    "bit_identical": "skipped (unsupported activation)",
                })
                continue
            out = replay_entry(
                entry, engine=engine, cache=cache, executor=executor, stats=stats
            )
            if not out.matches:
                failures += 1
            rows.append({
                "entry": entry.name,
                "engine": engine or "default",
                "rounds": out.record.rounds if out.ok else out.error,
                "expected": entry.rounds,
                "bit_identical": out.matches,
            })
    print(render_table(rows, title=f"corpus replay: {len(entries)} entries"))
    verdict = "all replays bit-identical" if failures == 0 else f"{failures} replays diverged"
    print(f"\n{verdict}")
    if runtime_requested(args):
        print(f"{stats.summary()} — fuzz replay")
    return 0 if failures == 0 else 1


def _campaign_specs(args) -> List[RunSpec]:
    """The cell grid for ``campaign create``: scenario registry specs (with
    the same replica derivation ``scenarios run --replicas`` uses, so keys
    line up) or the sweep grid the shape flags describe."""
    if args.scenario:
        scenario = get_scenario(args.scenario)
        if args.replicas <= 1:
            return list(scenario.specs)
        specs: List[RunSpec] = []
        for i, spec in enumerate(scenario.specs):
            specs.extend(
                replicate_spec(spec, args.replicas, args.seed,
                               salt=f"replica:{args.scenario}:{i}")
            )
        return specs
    return sweep_specs(args)


def _campaign_meta(args) -> Dict[str, Any]:
    """Human-facing provenance stored in the manifest (advisory only: the
    campaign id hashes the cell keys, never this)."""
    meta: Dict[str, Any] = {}
    if args.title:
        meta["title"] = args.title
    if args.scenario:
        meta["scenario"] = args.scenario
    else:
        meta["grid"] = {
            "family": args.family,
            "algorithm": args.algorithm,
            "ns": list(args.ns),
            "k": args.k,
            "seed": args.seed,
        }
    if args.replicas > 1:
        meta["replicas"] = args.replicas
    return meta


def _load_campaign(args) -> CampaignManifest:
    try:
        campaign_id = resolve_campaign_id(args.cache_dir, args.campaign)
        return load_manifest(args.cache_dir, campaign_id)
    except (ValueError, FileNotFoundError) as exc:
        raise SystemExit(str(exc))


def cmd_campaign_create(args) -> int:
    if not args.cache_dir:
        raise SystemExit("campaign create needs --cache-dir: the manifest "
                         "lives in the cache directory workers will share")
    if args.scenario:
        _reject_ignored_flags(
            args,
            ["campaign", "create", "--scenario", args.scenario,
             "--cache-dir", args.cache_dir],
            {"scenario", "cache_dir", "replicas", "title", "quiet"},
            f"--scenario {args.scenario} freezes the registry's pinned specs",
        )
    make_cache(args)  # validate the directory before writing a manifest into it
    manifest = CampaignManifest.from_specs(_campaign_specs(args), meta=_campaign_meta(args))
    path = save_manifest(manifest, args.cache_dir)
    if args.quiet:
        print(manifest.campaign_id)
        return 0
    status = status_of(manifest, args.cache_dir)
    print(f"campaign {manifest.campaign_id}")
    print(f"  cells:    {len(manifest.cells)}")
    print(f"  manifest: {path}")
    print(f"  status:   {status.done} done, {status.claimed} claimed, "
          f"{status.pending} pending")
    print(f"\nnext: python -m repro campaign run "
          f"--campaign {manifest.campaign_id[:12]} --cache-dir {args.cache_dir}")
    return 0


def cmd_campaign_run(args) -> int:
    """``campaign run|workers|resume`` — one handler by design: completion
    is derived from the cache, so attaching more workers and resuming after
    a crash are the same operation as the first run."""
    manifest = _load_campaign(args)
    stats = run_campaign(
        manifest,
        args.cache_dir,
        workers=args.workers,
        engine=args.engine,
        lease_timeout=args.lease_timeout,
        idle_timeout=args.idle_timeout,
    )
    status = status_of(manifest, args.cache_dir, lease_timeout=args.lease_timeout)
    print(status.summary())
    print(f"{stats.summary()} — campaign={manifest.campaign_id[:12]}")
    return 0 if status.complete and stats.failures == 0 else 1


def cmd_campaign_status(args) -> int:
    if args.campaign:
        manifest = _load_campaign(args)
        status = status_of(manifest, args.cache_dir, lease_timeout=args.lease_timeout)
        print(status.summary())
        return 0 if status.complete else 1
    ids = list_manifests(args.cache_dir)
    if not ids:
        print(f"no campaigns under {args.cache_dir}")
        return 1
    rows = []
    for campaign_id in ids:
        manifest = load_manifest(args.cache_dir, campaign_id)
        status = status_of(manifest, args.cache_dir, lease_timeout=args.lease_timeout)
        rows.append({
            "campaign": campaign_id[:12],
            "cells": status.total,
            "done": status.done,
            "claimed": status.claimed,
            "pending": status.pending,
            "title": manifest.meta.get("title", manifest.meta.get("scenario", "")),
        })
    print(render_table(rows, title=f"{len(rows)} campaigns in {args.cache_dir}"))
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Gathering with detection on anonymous graphs — experiment CLI",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("families", help="list graph families").set_defaults(fn=cmd_families)

    pb = sub.add_parser("bounds", help="print schedule arithmetic for n")
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--max-degree", type=int, default=None)
    pb.set_defaults(fn=cmd_bounds)

    pp = sub.add_parser("plan", help="inspect the certified UXS plan for n")
    pp.add_argument("--n", type=int, required=True)
    pp.set_defaults(fn=cmd_plan)

    def runtime_flags(sp):
        sp.add_argument("--workers", type=int, default=None,
                        help="fan runs out over N worker processes "
                             "(default: serial in-process execution)")
        sp.add_argument("--cache-dir", type=str, default=None,
                        help="content-addressed result cache directory; "
                             "completed runs are skipped on re-invocation")

    def positive_int(value: str) -> int:
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return n

    def replica_flags(sp):
        sp.add_argument("--replicas", type=positive_int, default=1,
                        help="run each configuration under N seeds (the "
                             "original plus N-1 derived re-rolls)")
        sp.add_argument("--engine", choices=list_engines(), default=None,
                        help="simulation backend (default: the optimized "
                             "scalar scheduler); batch-* engines run "
                             "differ-only-by-seed groups in lockstep — all "
                             "backends are bit-identical; see docs/ENGINES.md")

    def common(sp):
        sp.add_argument("--family", choices=sorted(gg.FAMILIES), default="ring")
        sp.add_argument("--n", type=int, default=12)
        sp.add_argument("--k", type=int, default=4)
        sp.add_argument("--algorithm", choices=sorted(ALGORITHM_BUILDERS), default="faster")
        sp.add_argument("--placement",
                        choices=["undispersed", "dispersed", "scatter", "pair-distance"],
                        default="dispersed")
        sp.add_argument("--pair-distance", type=int, default=None)
        sp.add_argument("--labels", choices=list(LABEL_SCHEMES), default="random")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--numbering",
                        choices=["canonical", "random", "reversed", "rotated"],
                        default="canonical")
        sp.add_argument("--degree", type=int, default=3, help="for random_regular")
        sp.add_argument("--rows", type=int, default=None, help="for grid/torus")
        sp.add_argument("--cols", type=int, default=None, help="for grid/torus")
        sp.add_argument("--max-degree", type=int, default=None,
                        help="grant Δ knowledge (Remark 14)")
        sp.add_argument("--hop-distance", type=int, default=None,
                        help="grant distance knowledge (Remark 13)")
        sp.add_argument("--max-rounds", type=int, default=None)
        runtime_flags(sp)

    prep = sub.add_parser("report", help="regenerate the reproduction report (Markdown)")
    prep.add_argument("--out", type=str, default=None, help="write to file instead of stdout")
    prep.add_argument("--full", action="store_true", help="wider sweeps (slower)")
    prep.add_argument("--seed", type=int, default=None,
                      help="root seed for runtime seed streams (the canned "
                           "sweeps pin their own seeds, so rows are unaffected)")
    runtime_flags(prep)
    prep.set_defaults(fn=cmd_report)

    psh = sub.add_parser("show", help="print a graph's port-labeled adjacency")
    common(psh)
    psh.set_defaults(fn=cmd_show)

    pr = sub.add_parser("run", help="run one gathering instance")
    common(pr)
    pr.add_argument("--trace", action="store_true", help="(reserved)")
    pr.set_defaults(fn=cmd_run)

    ps = sub.add_parser("sweep", help="sweep n and fit the growth slope")
    common(ps)
    ps.add_argument("--ns", type=int, nargs="+", default=[8, 12, 16],
                    help="instance sizes to sweep (default: 8 12 16)")
    ps.add_argument("--scenario", choices=scenario_names(), default=None,
                    help="run a registered scenario's spec batch instead of "
                         "building specs from the flags above")
    ps.add_argument("--profile", action="store_true",
                    help="run the batch under cProfile and print the top 20 "
                         "cumulative entries (forces serial execution)")
    ps.add_argument("--resume", action="store_true",
                    help="crash-recovery hygiene before executing: sweep "
                         "dead writers' *.tmp.* droppings and refresh the "
                         "chunk index (requires --cache-dir)")
    replica_flags(ps)
    ps.set_defaults(fn=cmd_sweep)

    psc = sub.add_parser("scenarios", help="the curated scenario registry")
    scen_sub = psc.add_subparsers(dest="scenarios_command", required=True)
    scen_sub.add_parser("list", help="enumerate registered scenarios").set_defaults(
        fn=cmd_scenarios_list
    )
    sd = scen_sub.add_parser("describe",
                             help="scenario details, compiled specs, cache identities")
    sd.add_argument("name", choices=scenario_names())
    sd.set_defaults(fn=cmd_scenarios_describe)
    sr = scen_sub.add_parser("run", help="run a scenario campaign with fault metrics")
    sr.add_argument("name", choices=scenario_names())
    runtime_flags(sr)
    replica_flags(sr)
    sr.set_defaults(fn=cmd_scenarios_run)

    pf = sub.add_parser("fuzz",
                        help="adversarial schedule fuzzer (see docs/FUZZING.md)")
    fuzz_sub = pf.add_subparsers(dest="fuzz_command", required=True)

    def engine_flag(sp):
        sp.add_argument("--engine", choices=list_engines(), default=None,
                        help="simulation backend to execute under "
                             "(default: the optimized scalar scheduler)")

    fr = fuzz_sub.add_parser("run",
                             help="run a seeded campaign; minimize and save winners")
    fr.add_argument("--seed", type=int, default=0,
                    help="campaign seed: same seed + budget = same campaign")
    fr.add_argument("--budget", type=positive_int, default=50,
                    help="candidate schedules to evaluate (default 50)")
    fr.add_argument("--corpus-dir", type=str, default=None,
                    help="write minimized winners as JSON corpus entries here")
    fr.add_argument("--targets", nargs="+", choices=target_names(), default=None,
                    help="restrict the search to these targets (default: all)")
    fr.add_argument("--explore", type=float, default=0.4,
                    help="fresh-sample probability; the rest mutates prior "
                         "positive-regret schedules (default 0.4)")
    fr.add_argument("--min-regret", type=int, default=1,
                    help="minimize/serialize only winners at or above this "
                         "regret (default 1)")
    fr.add_argument("--verbose", action="store_true",
                    help="print every evaluated candidate")
    engine_flag(fr)
    runtime_flags(fr)
    fr.set_defaults(fn=cmd_fuzz_run)

    fc = fuzz_sub.add_parser("corpus", help="list saved corpus entries")
    fc.add_argument("--corpus-dir", type=str, default=".fuzz-corpus")
    fc.add_argument("--register", action="store_true",
                    help="also register each entry as a scenario in this "
                         "process and print the registered names")
    fc.set_defaults(fn=cmd_fuzz_corpus)

    fp = fuzz_sub.add_parser("replay",
                             help="replay corpus entries bit-identically across engines")
    fp.add_argument("--corpus-dir", type=str, default=".fuzz-corpus")
    engine_flag(fp)
    runtime_flags(fp)
    fp.set_defaults(fn=cmd_fuzz_replay)

    pca = sub.add_parser(
        "campaign",
        help="crash-safe sharded campaigns over a shared cache (docs/CAMPAIGNS.md)")
    camp_sub = pca.add_subparsers(dest="campaign_command", required=True)

    def campaign_shared_flags(sp):
        sp.add_argument("--cache-dir", type=str, required=True,
                        help="the shared cache directory the campaign lives "
                             "in (manifest, leases, and results)")
        sp.add_argument("--lease-timeout", type=float, default=DEFAULT_LEASE_TIMEOUT,
                        help="seconds of heartbeat silence before another "
                             "worker may reclaim a cell's lease "
                             f"(default {DEFAULT_LEASE_TIMEOUT:g})")

    def campaign_id_flag(sp, required=True):
        sp.add_argument("--campaign", type=str, required=required, default=None,
                        help="campaign id — any unique prefix of the hash "
                             "'campaign create' printed")

    def campaign_worker_flags(sp):
        sp.add_argument("--workers", type=positive_int, default=1,
                        help="work-stealing worker processes to launch "
                             "(default 1, in-process)")
        sp.add_argument("--engine", choices=list_engines(), default=None,
                        help="simulation backend (all backends are "
                             "bit-identical; see docs/ENGINES.md)")
        sp.add_argument("--idle-timeout", type=float, default=DEFAULT_IDLE_TIMEOUT,
                        help="seconds a worker keeps waiting on cells leased "
                             "to other workers before giving up "
                             f"(default {DEFAULT_IDLE_TIMEOUT:g})")

    cc = camp_sub.add_parser(
        "create",
        help="freeze a spec grid into a durable, content-addressed manifest")
    common(cc)
    cc.add_argument("--ns", type=int, nargs="+", default=[8, 12, 16],
                    help="instance sizes for the grid (default: 8 12 16)")
    cc.add_argument("--scenario", choices=scenario_names(), default=None,
                    help="freeze a registered scenario's pinned specs "
                         "instead of building the grid from the flags above")
    cc.add_argument("--replicas", type=positive_int, default=1,
                    help="run each configuration under N seeds (same "
                         "derivation as sweep/scenarios, so keys match)")
    cc.add_argument("--title", type=str, default=None,
                    help="free-text label stored in the manifest metadata")
    cc.add_argument("--quiet", action="store_true",
                    help="print only the campaign id (for CID=$(...) capture)")
    cc.set_defaults(fn=cmd_campaign_create)

    for name, help_text in (
        ("run", "drive a campaign to completion with N work-stealing workers"),
        ("workers", "attach N more workers to a campaign running elsewhere"),
        ("resume", "finish an interrupted campaign — executes exactly the "
                   "missing cells (same code path as run; that is the point)"),
    ):
        sp = camp_sub.add_parser(name, help=help_text)
        campaign_shared_flags(sp)
        campaign_id_flag(sp)
        campaign_worker_flags(sp)
        sp.set_defaults(fn=cmd_campaign_run)

    cst = camp_sub.add_parser(
        "status",
        help="derived progress: a cell is done iff its key resolves in the cache")
    campaign_shared_flags(cst)
    campaign_id_flag(cst, required=False)
    cst.set_defaults(fn=cmd_campaign_status)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

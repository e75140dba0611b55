"""One benchmark invocation: gate, set up, time, check and report.

``run.py`` is the entry point; it puts the checkout's ``src`` on the path
and calls :func:`main`.  One invocation, in one fresh process:

1. generates the workload's specs from ``--seed`` (``workloads.py``);
2. checks engine agreement on a small slice under every registered engine;
3. sets up repeatedly from cold memos; ``setup_s`` is the median;
4. runs closed-loop passes with the default engine (or ``--engine``) for
   about ``--seconds`` seconds, untraced; every time is scaled to the
   reference host by the host-speed probe (``hostspeed.py``);
5. checks every record of every pass (``checks.py``) and, for the default
   seed, the records digest stored in ``digests.json``;
6. with ``--trace 1``, installs the per-layer wrappers (``tracing.py``),
   repeats one set-up and one pass traced, checks those records too, and
   writes the spans to ``.perfbench/trace-<workload>-<seed>.json``.

Standard error gets a readable report; the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).  A failed
check prints ``correct: false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import checks
import hostspeed
import tracing
from workloads import WORKLOADS, Workload, gate_slice, make_specs, run_pass, setup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: ``name -> (unit, better, bound)`` of every end-to-end metric.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "runs_per_s": ("runs/s", "higher", 0.25),
    "run_p50_ms": ("ms", "lower", 0.25),
    "run_p90_ms": ("ms", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

RUN_SECONDS = 30
#: Set-ups per invocation: at least this many, and more until
#: :data:`SETUP_SECONDS` are spent; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
#: Timed passes per invocation, at least: every per-spec time is the
#: median of the passes.
MIN_PASSES = 3


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark of the paper's own runs.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--engine", default=None,
                        help="simulation backend to time (default: the default engine)")
    parser.add_argument("--write-digests", action="store_true",
                        help="store this workload's seed-0 records digest in digests.json")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from the tables and exit")
    args = parser.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        parser.error("--workload is required")
    if args.write_digests and args.seed != checks.DEFAULT_SEED:
        parser.error(f"digests are stored for seed {checks.DEFAULT_SEED} only")
    return args


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document, from the tables in this package."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in tracing.LAYER_METRICS.items()
        ],
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_setups(workload: Workload, specs, seed: int, work: Path, engine):
    """Repeated cold set-ups; returns the last one's result and all their
    times, scaled to the reference host."""
    times: List[float] = []
    spent = 0.0
    while len(times) < SETUP_REPEATS or spent < SETUP_SECONDS:
        gc.collect()
        before = hostspeed.probe()
        t0 = time.perf_counter()
        prep = setup(workload, specs, seed, work, engine=engine)
        took = time.perf_counter() - t0
        spent += took
        times.append(took * hostspeed.scale(before, hostspeed.probe()))
    return prep, times


def timed_passes(workload: Workload, prep, work: Path, seconds: float, engine) -> List:
    """Closed-loop passes for about ``seconds``: another pass starts while
    fewer than :data:`MIN_PASSES` ran, or if it is expected to end in time."""
    passes = []
    spent = 0.0
    while True:
        gc.collect()
        result = run_pass(workload, prep, work, engine=engine)
        passes.append(result)
        spent += result.wall
        if len(passes) >= MIN_PASSES and spent + result.wall > seconds:
            return passes


def end_to_end(workload: Workload, passes, setup_times) -> Dict[str, float]:
    """The end-to-end metrics of a run's untraced passes, all times scaled
    to the reference host.

    A sweep's batch time is estimated as the sum of each spec's median
    ``RunOutcome.elapsed`` over the passes plus the median dispatch time
    (time of the ``execute`` calls minus the specs' time).
    ``run_p50_ms``/``run_p90_ms`` are percentiles of the per-spec medians.
    A campaign's cells run in worker processes that report no per-cell
    time, so for ``campaign-resume`` the unit is a pass (one
    ``run_campaign`` call), and the batch time is the median pass.
    """
    if workload.campaign:
        samples = [1000.0 * p.scaled_wall for p in passes]
        batch_s = statistics.median(p.scaled_wall for p in passes)
    else:
        per_pass = [p.scaled_elapsed for p in passes]
        samples = [
            1000.0 * statistics.median(times[i] for times in per_pass)
            for i in range(len(passes[0].outcomes))
        ]
        dispatch = statistics.median(p.scaled_wall - sum(t) for p, t in zip(passes, per_pass))
        batch_s = sum(samples) / 1000.0 + dispatch
    return {
        "runs_per_s": len(passes[0].outcomes) / batch_s,
        "run_p50_ms": statistics.median(samples),
        "run_p90_ms": statistics.quantiles(samples, n=10, method="inclusive")[-1],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }


def check_passes(name: str, seed: int, passes, digest: bool = True) -> List[str]:
    """Every record correct, identical across passes, and (default seed,
    unless ``digest`` is false) matching the stored digest."""
    problems = []
    digests = set()
    for p in passes:
        problems.extend(checks.check_outcomes(p.outcomes))
        digests.add(checks.records_digest(p.outcomes))
    if len(digests) > 1:
        problems.append(f"{name}: passes produced different records")
    for value in digests if digest else ():
        problems.extend(checks.check_digest(name, seed, value))
    return problems


def traced_run(workload: Workload, specs, seed: int, work: Path, engine, untraced_wall: float):
    """One set-up and one pass under the wrappers; returns the pass, the
    per-layer metrics and the path of the written trace."""
    spool = work / "spool"
    shutil.rmtree(spool, ignore_errors=True)
    spool.mkdir(parents=True)
    tracer = tracing.Tracer(spool=spool)
    restore = tracing.install(tracer)
    try:
        with tracer.span("bench.setup"):
            prep = setup(workload, specs, seed, work, engine=engine)
        gc.collect()
        with tracer.span("bench.pass"):
            result = run_pass(workload, prep, work, engine=engine)
    finally:
        restore()
    tracer.merge_spool()
    metrics = tracing.layer_metrics(tracer.spans, result.scaled_wall / untraced_wall - 1.0)
    path = work / f"trace-{workload.name}-{seed}.json"
    tracer.dump(path, workload=workload.name, seed=seed, engine=engine)
    return result, metrics, path


def measure(args: argparse.Namespace, workload: Workload, work: Path) -> int:
    """Gate, set up, time, check and report one workload; the exit code."""
    specs = make_specs(workload, args.seed)
    problems = checks.engine_gate(gate_slice(workload, args.seed))
    prep, setup_times = timed_setups(workload, specs, args.seed, work, args.engine)
    passes = timed_passes(workload, prep, work, args.seconds, args.engine)
    problems += check_passes(workload.name, args.seed, passes, digest=not args.write_digests)
    outcomes = [o for p in passes for o in p.outcomes]

    metrics = end_to_end(workload, passes, setup_times)
    units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    lines = [
        f"workload {workload.name}  seed {args.seed}  engine {args.engine or 'default'}",
        f"  {len(specs)} specs per pass, {len(passes)} passes, {sum(p.wall for p in passes):.2f} s "
        f"timed; failed_frac {checks.failed_frac(outcomes):.4f} of {len(outcomes)} runs",
        f"  p50/p90 over {len(passes)} pass times" if workload.campaign else
        f"  p50/p90 over {len(specs)} per-spec medians of {len(passes)} passes "
        f"({len(outcomes)} samples)",
        f"  setup_s: median of {len(setup_times)} set-ups",
        f"  times scaled to a {1e6 * hostspeed.REFERENCE_S:.0f} us host-speed probe; median factor "
        f"{statistics.median(f for p in passes for f in p.scales):.3f}",
    ]
    if args.trace:
        pass_wall = statistics.median(p.scaled_wall for p in passes)
        result, metrics, path = traced_run(workload, specs, args.seed, work, args.engine, pass_wall)
        problems += check_passes(workload.name, args.seed, [result], digest=not args.write_digests)
        outcomes += result.outcomes
        units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
        lines.append(f"  traced pass {result.wall:.2f} s; spans written to {path}")
    if args.write_digests and not problems:
        checks.write_digest(workload.name, passes[0].outcomes)

    failed = sum(1 for o in outcomes if not o.ok)
    if problems:
        report(lines + ["CHECK FAILED:"] + [f"  {p}" for p in problems[:20]])
        print(json.dumps({"correct": False, "attempted": len(outcomes), "failed": failed,
                          "metrics": {}}))
        return 1
    report(lines + [f"  {name:24s} {value:14.6g} {units[name]}" for name, value in metrics.items()])
    print(json.dumps({
        "correct": True,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def report(lines: List[str]) -> None:
    for line in lines:
        print(line, file=sys.stderr)


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    try:
        return measure(args, WORKLOADS[args.workload], work)
    finally:
        for scratch in ("campaign-template", "campaign-pass", "spool"):
            shutil.rmtree(work / scratch, ignore_errors=True)

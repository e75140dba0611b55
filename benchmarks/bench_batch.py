"""Replica-campaign benchmark: the lockstep batch engine vs the scalar loop.

Measures **replicas per second** for multi-seed campaigns — R seed-replicas
of one :class:`~repro.runtime.RunSpec` — executed two ways through the same
:func:`repro.runtime.execute` entry point:

* ``scalar`` — the per-replica loop (the default engine): every replica
  pays materialization, graph checks, scheduler construction, the full
  per-round loop, and record assembly on its own;
* ``batch``  — the lockstep replica engine (``engine="batch-numpy"`` /
  ``engine="batch-list"``): one shared graph + CSR kernel, graph-pure checks paid
  once, each replica advanced by one ``Scheduler._step_soa`` call per
  lockstep turn, and a per-graph BFS memo for the pair-distance column;
* ``numpy2d`` — the replica-major engine (``engine="batch-numpy2d"``):
  the probe program is a :class:`~repro.sim.vector.VectorProgram`, so
  whole replicas execute as R×k array kernels over the shared CSR (one
  ``np.take`` advances every robot of every replica one round) and only
  the record assembly runs per replica.

The workload is the kernel rotor walk of ``bench_simcore.py`` (exit
through ``entry_port + 1``), seeded per replica through the spec's seed so
placements *and* walks differ across replicas — the shape of a real
gathering campaign, minus algorithm cost that would drown the engines
under measurement.  Before timing, every cell asserts that scalar and
every batch backend produce **bit-identical** records (the exhaustive
differentials live in ``tests/test_batch_differential.py`` and
``tests/test_batch2d.py``).

The headline cell is ``ring n=256, k=2`` — the paper's rendezvous
configuration, where per-round scheduler overhead dominates the two
program activations and batching pays most.  Larger fleets amortize the
same absolute overhead over more per-robot work, so their speedups are
smaller; the grid reports them alongside.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_batch.py            # full grid
    PYTHONPATH=src python benchmarks/bench_batch.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from typing import Dict, List

from repro.runtime import (
    RunSpec,
    SerialExecutor,
    execute,
    register_algorithm,
    unregister_algorithm,
)
from repro.sim.batch import BACKENDS
from repro.sim.vector import rotor_walk_program

__all__ = ["CELLS", "build_specs", "measure_cell", "run_suite", "main"]

PROBE = "batch-bench-rotor"


def _rotor_builder(opts):
    """Kernel rotor walk, seeded: initial port depends on the spec seed, so
    replicas trace different walks over the same graph.

    Returns a :class:`~repro.sim.vector.VectorProgram`: scalar engines run
    the generator program (byte-identical to the pre-vector benchmark
    probe), while ``batch-numpy2d`` executes its array twin.
    """
    rounds = opts.get("rounds", 400)
    seed = opts.get("seed", 0)
    return rotor_walk_program(rounds, seed)


#: ``(cell name, family, graph params, k, replicas)`` — the campaign grid.
#: k=2 cells carry more replicas: they are the cheap/high-leverage regime
#: the batch engine targets, and more seeds is what a real campaign wants.
CELLS: List[tuple] = [
    ("ring n=256 k=2 (rendezvous)", "ring", {"n": 256}, 2, 128),
    ("torus 16x16 k=2 (rendezvous)", "torus", {"rows": 16, "cols": 16}, 2, 128),
    ("ring n=256 k=4", "ring", {"n": 256}, 4, 64),
    ("ring n=256 k=16", "ring", {"n": 256}, 16, 64),
    ("random-regular n=256 k=8", "random_regular", {"n": 256, "d": 3, "seed": 7}, 8, 64),
]

QUICK_CELLS: List[tuple] = [
    ("ring n=64 k=2 (rendezvous)", "ring", {"n": 64}, 2, 16),
    ("ring n=64 k=4", "ring", {"n": 64}, 4, 8),
]

HEADLINE = "ring n=256 k=2 (rendezvous)"


def build_specs(family: str, graph: Dict, k: int, replicas: int, rounds: int) -> List[RunSpec]:
    """R probe specs differing only by seed (the batchable shape)."""
    base = RunSpec(
        algorithm=PROBE,
        family=family,
        graph=dict(graph),
        placement="dispersed",
        k=k,
        algorithm_args={"rounds": rounds},
        uses_uxs=False,
    )
    return [replace(base, seed=s) for s in range(replicas)]


def _timed(specs: List[RunSpec], **kwargs):
    t0 = time.perf_counter()
    result = execute(specs, executor=SerialExecutor(), **kwargs)
    dt = time.perf_counter() - t0
    failures = [o for o in result.outcomes if not o.ok]
    if failures:
        raise AssertionError(
            f"{len(failures)} probe specs failed: {failures[0].error_type}: "
            f"{failures[0].error}"
        )
    return dt, result


def measure_cell(
    name: str, family: str, graph: Dict, k: int, replicas: int,
    rounds: int = 400, repeats: int = 3,
) -> Dict[str, object]:
    """Benchmark one campaign cell: scalar loop vs both batch backends.

    Asserts record bit-identity across all three execution modes before
    timing, so every number describes the same semantics.
    """
    specs = build_specs(family, graph, k, replicas, rounds)
    modes = {
        "scalar": {},
        "numpy2d": {"engine": "batch-numpy2d"},
        "numpy": {"engine": "batch-numpy"},
        "list": {"engine": "batch-list"},
    }
    if "numpy" not in BACKENDS:  # pragma: no cover - numpy-less environments
        del modes["numpy"]
        del modes["numpy2d"]

    # correctness gate before timing
    reference = None
    for mode, kwargs in modes.items():
        _, result = _timed(specs, **kwargs)
        records = [o.run.to_dict() for o in result.outcomes]
        if reference is None:
            reference = records
        elif records != reference:
            raise AssertionError(f"{name}: {mode} records diverge from scalar")

    timings = {
        mode: min(_timed(specs, **kwargs)[0] for _ in range(repeats))
        for mode, kwargs in modes.items()
    }
    best_batch = min(dt for mode, dt in timings.items() if mode != "scalar")
    cell = {
        "cell": name,
        "family": family,
        "graph": graph,
        "k": k,
        "replicas": replicas,
        "rounds": rounds,
        "scalar_seconds": timings["scalar"],
        "scalar_replicas_per_sec": replicas / timings["scalar"],
        "speedup": timings["scalar"] / best_batch,
    }
    for mode, dt in timings.items():
        if mode != "scalar":
            cell[f"batch_{mode}_seconds"] = dt
            cell[f"batch_{mode}_replicas_per_sec"] = replicas / dt
    return cell


def run_suite(cells=None, rounds: int = 400, repeats: int = 3) -> Dict[str, object]:
    """The full campaign grid; returns the ``BENCH_batch.json`` payload."""
    cells = CELLS if cells is None else cells
    register_algorithm(PROBE, _rotor_builder, uses_uxs=False, detects=True)
    try:
        workloads = [
            measure_cell(name, family, graph, k, replicas, rounds, repeats)
            for name, family, graph, k, replicas in cells
        ]
    finally:
        unregister_algorithm(PROBE)
    headline = next(
        (w for w in workloads if w["cell"] == HEADLINE), workloads[0]
    )
    return {
        "benchmark": "batch-replicas",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "rounds": rounds,
        "repeats": repeats,
        "workload": (
            "seeded kernel rotor walk per replica (placements and walks vary "
            "by seed); scalar per-replica loop vs lockstep batch engine, both "
            "through repro.runtime.execute; records asserted bit-identical "
            "before timing"
        ),
        "workloads": workloads,
        "summary": {
            "headline_workload": headline["cell"],
            "headline_speedup": headline["speedup"],
            "headline_replicas_per_sec": max(
                v for key, v in headline.items()
                if key.endswith("_replicas_per_sec") and key != "scalar_replicas_per_sec"
            ),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=400,
                        help="rotor-walk length per replica (default 400)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_batch.json")
    parser.add_argument("--quick", action="store_true",
                        help="tiny CI smoke: n=64 cells, few replicas, 1 repeat")
    args = parser.parse_args(argv)
    cells = CELLS
    if args.quick:
        cells, args.rounds, args.repeats = QUICK_CELLS, 120, 1

    payload = run_suite(cells, args.rounds, args.repeats)

    from repro.analysis.tables import render_table

    rows = []
    for w in payload["workloads"]:
        row = {
            "cell": w["cell"],
            "R": w["replicas"],
            "scalar rep/s": f"{w['scalar_replicas_per_sec']:.0f}",
        }
        for mode in ("numpy2d", "numpy", "list"):
            key = f"batch_{mode}_replicas_per_sec"
            if key in w:
                row[f"{mode} rep/s"] = f"{w[key]:.0f}"
        row["speedup"] = f"{w['speedup']:.2f}x"
        rows.append(row)
    print(render_table(rows, title="replica campaigns: lockstep batch engine vs scalar loop"))

    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"\nwrote {args.out} (headline: {payload['summary']['headline_speedup']:.2f}x "
          f"on {payload['summary']['headline_workload']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

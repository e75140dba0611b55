"""Benchmark of the paper's own runs: sweep and campaign throughput.

Run from the repository root::

    python3 perfbench/run.py --workload faster-sweep --seed 0 --seconds 20 --trace 0

The program is imported from the checkout's ``src`` directory, never from
an installed copy; without it the benchmark exits 1 and prints no result.
``bench.py`` does the work; ``README.md`` documents the workloads, metrics,
checks and trace format.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

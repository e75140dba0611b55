"""Output checks: no number is reported for records that are wrong.

Three gates, all run outside the timed region:

* :func:`check_outcomes` — every spec produced a record, and every record
  has the paper's properties: a detecting algorithm that detected has
  gathered, and the round count stays within the schedule bound the
  matching E-module asserts (E3 for UXS-Gathering, E4 for
  Faster-Gathering, E1 for Undispersed-Gathering);
* :func:`records_digest` against ``digests.json`` — for the default seed a
  SHA-256 over the canonical records must match the stored digest, so a
  change that alters any record cannot report a speed-up;
* :func:`engine_gate` — a slice of the workload gives bit-identical
  records under every registered engine.
"""

from __future__ import annotations

import json
from hashlib import sha256
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core import bounds
from repro.runtime import api
from repro.runtime.cache import ResultCache
from repro.runtime.spec import NO_DETECTION, RunOutcome, RunSpec
from repro.sim.engines import DEFAULT_ENGINE, list_engines
from repro.uxs import generators

__all__ = [
    "DEFAULT_SEED",
    "DIGESTS",
    "round_bound",
    "check_record",
    "check_outcomes",
    "records_digest",
    "check_digest",
    "engine_gate",
    "failed_frac",
    "write_digest",
]

#: The seed whose record digests are stored with the benchmark.
DEFAULT_SEED = 0

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def uxs_budget(n: int) -> int:
    """E3's oblivious UXS-Gathering budget ``1 + (bits+1)·2T + 1``."""
    return 1 + (bounds.schedule_bits(n) + 1) * 2 * generators.practical_plan(n).T + 1


def round_bound(algorithm: str, n: int, extra: Dict) -> int:
    """The most rounds a correct run of ``algorithm`` on ``n`` nodes takes.

    Faster-Gathering that gathered at step ``s <= 6`` ends by the step's
    boundary plus the aloneness-check round (E4); one that fell through to
    step 7 ends within the step-6 boundary plus the UXS budget.
    """
    if algorithm == "uxs":
        return uxs_budget(n)
    if algorithm == "undispersed":
        return bounds.undispersed_rounds(n) + 1
    if algorithm == "faster":
        boundaries = bounds.faster_gathering_boundaries(n)
        step = extra.get("gathered_at_step")
        if step is not None and 1 <= step <= len(boundaries):
            return boundaries[step - 1] + 1
        return boundaries[-1] + uxs_budget(n)
    raise ValueError(f"no schedule bound for algorithm {algorithm!r}")


def _nodes(spec: RunSpec) -> int:
    graph = spec.graph
    return graph["n"] if "n" in graph else graph["rows"] * graph["cols"]


def check_record(spec: RunSpec, run) -> List[str]:
    """Problems with one record (empty when it is correct)."""
    where = f"{spec.algorithm} {spec.family} {spec.graph} seed={spec.seed}"
    n = _nodes(spec)
    problems = []
    if (run.algorithm, run.n, run.k) != (spec.algorithm, n, spec.k):
        problems.append(f"{where}: record is for {run.algorithm} n={run.n} k={run.k}")
    if spec.algorithm not in NO_DETECTION:
        if not run.detected:
            problems.append(f"{where}: no termination detection")
        if run.detected and not run.gathered:
            problems.append(f"{where}: detected without gathering")
    limit = round_bound(spec.algorithm, n, run.extra)
    if run.rounds > limit:
        problems.append(f"{where}: {run.rounds} rounds exceed the schedule bound {limit}")
    return problems


def check_outcomes(outcomes: Sequence[RunOutcome]) -> List[str]:
    """Problems over a whole pass: failed specs and incorrect records."""
    problems = []
    for outcome in outcomes:
        if not outcome.ok:
            problems.append(
                f"{outcome.spec.algorithm} {outcome.spec.family} {outcome.spec.graph} "
                f"seed={outcome.spec.seed}: {outcome.error_type}: {outcome.error}"
            )
        else:
            problems.extend(check_record(outcome.spec, outcome.run))
    return problems


def failed_frac(outcomes: Sequence[RunOutcome]) -> float:
    """Failed runs over attempted runs."""
    return sum(1 for o in outcomes if not o.ok) / len(outcomes) if outcomes else 0.0


def records_digest(outcomes: Sequence[RunOutcome]) -> str:
    """SHA-256 over ``[cache key, record]`` pairs in submission order."""
    rows = [
        [ResultCache.key_for(o.spec), o.run.to_dict() if o.run is not None else None]
        for o in outcomes
    ]
    return sha256(json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def stored_digest(workload: str, path: Path = DIGESTS) -> Optional[str]:
    """The digest stored for ``workload`` at :data:`DEFAULT_SEED`."""
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload)


def write_digest(workload: str, outcomes: Sequence[RunOutcome], path: Path = DIGESTS) -> None:
    """Store ``workload``'s records digest (records of :data:`DEFAULT_SEED`)."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    stored[workload] = records_digest(outcomes)
    path.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")


def check_digest(workload: str, seed: int, digest: str, path: Path = DIGESTS) -> List[str]:
    """A mismatch with the stored digest (default seed only)."""
    if seed != DEFAULT_SEED:
        return []
    expected = stored_digest(workload, path)
    if expected != digest:
        return [f"{workload}: records digest {digest} != stored {expected} (seed {seed})"]
    return []


def engine_gate(specs: Sequence[RunSpec]) -> List[str]:
    """Run ``specs`` under every registered engine; records must be
    bit-identical to the default engine's, and none may fail."""

    def results(outcomes):
        return [o.run.to_dict() if o.ok else o.error for o in outcomes]

    reference = api.execute(specs).outcomes
    problems = check_outcomes(reference)
    for engine in list_engines():
        if engine != DEFAULT_ENGINE and results(
            api.execute(specs, engine=engine).outcomes
        ) != results(reference):
            problems.append(f"engine {engine!r} disagrees with the default engine")
    return problems

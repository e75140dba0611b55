"""The benchmark's workloads: spec generation, set-up, and one timed pass.

Every workload is generated from a seed the way ``repro sweep --replicas R``
generates a sweep: one base :class:`~repro.runtime.RunSpec` per
(algorithm, family, n), expanded with ``replicate_spec(base, R,
root_seed=seed, salt=f"sweep:{n}")``.  Topologies are fixed (the
random-regular graph has a pinned topology seed), so a new seed re-rolls
placements and labels but never the graph.

Each workload is a closed loop with one caller that waits for each call
it makes.  A sweep pass goes through :func:`repro.runtime.execute` serially
in-process, one call per base spec (its R replicas, the group a batch engine
would run together); ``campaign-resume`` drives a half-cached campaign to
completion with :func:`repro.campaigns.run_campaign` and two worker
processes.  The host-speed probe (``hostspeed.py``) runs between calls, and
every time is scaled by the probes on either side of it.

Library entry points are looked up as module attributes at call time
(``api.execute``, ``worker.run_campaign``, ...), never bound by
``from ... import``, so the traced run's wrappers (``tracing.py``) see every
call the untraced run makes.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import experiments
from repro.campaigns import manifest as manifest_mod
from repro.campaigns import worker
from repro.runtime import api, executor, graph_cache
from repro.runtime.cache import ResultCache
from repro.runtime.spec import NO_DETECTION, NO_UXS, RunOutcome, RunSpec
from repro.uxs import generators

import hostspeed

__all__ = [
    "Workload",
    "WORKLOADS",
    "FAMILIES",
    "topology",
    "make_specs",
    "gate_slice",
    "Prepared",
    "setup",
    "run_pass",
    "PassResult",
]

FAMILIES: Tuple[str, ...] = ("ring", "random_regular", "torus")

#: Seed of the one random-regular topology per n (fixed: workload seeds
#: re-roll placements and labels, not graphs).
RANDOM_REGULAR_SEED = 1

#: Worker processes of ``campaign-resume`` (the machine this was sized on
#: has two cores).
CAMPAIGN_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which algorithms, where, how many replicas."""

    name: str
    why: str
    #: ``(algorithm, placement, k)`` per algorithm in the grid.
    runs: Tuple[Tuple[str, str, int], ...]
    ns: Tuple[int, ...]
    replicas: int
    campaign: bool = False


FASTER_RUNS = (("faster", "dispersed", 4), ("undispersed", "undispersed", 4))
#: Faster-Gathering never goes past n=28: its step-6 boundary plus the UXS
#: fallback budget is 497,115,773 rounds at n=28, under DEFAULT_MAX_ROUNDS
#: (500,000,000); at n=32 the step-6 boundary alone is 979,529,387.  It
#: stops at n=24 because 1.2% of dispersed k=4 placements on ring n=28 have
#: every pair at least 6 hops apart and fall through to the UXS fallback:
#: ~497M rounds, ~2.8 s, longer than the rest of the batch.  Such an outlier
#: in some seeds' batches but not others' would make throughput bimodal
#: across seeds.  On ring n=24 the share is 0.06%; elsewhere it is 0.
FASTER_NS = (16, 20, 24)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="uxs-sweep",
            why="UXS-Gathering k=3 dispersed, ring/random_regular/torus n=12,16, R=3, serial; "
            "the simulator does all the work, on _step_general (Lemma-4 followers)",
            runs=(("uxs", "dispersed", 3),),
            ns=(12, 16),
            replicas=3,
        ),
        Workload(
            name="faster-sweep",
            why="Faster (k=4 dispersed) + Undispersed (k=4) on 3 families, n=16,20,24, R=6, serial; "
            "many short runs, mixed SoA/general regime, per-spec overhead matters",
            runs=FASTER_RUNS,
            ns=FASTER_NS,
            replicas=6,
        ),
        Workload(
            name="campaign-resume",
            why="faster-sweep grid at R=16 as a campaign with a seeded half already cached, "
            "run_campaign(workers=2): leases, cache reads and writes, process dispatch",
            runs=FASTER_RUNS,
            ns=FASTER_NS,
            replicas=16,
            campaign=True,
        ),
    )
}


def topology(family: str, n: int) -> Dict[str, int]:
    """Graph parameters of the fixed ``n``-node topology of ``family``."""
    if family == "ring":
        return {"n": n}
    if family == "random_regular":
        return {"n": n, "d": 3, "seed": RANDOM_REGULAR_SEED}
    if family == "torus":
        rows = 3 if n % 4 else 4
        return {"rows": rows, "cols": n // rows}
    raise ValueError(f"no fixed topology for family {family!r}")


def _base_spec(algorithm: str, placement: str, k: int, family: str, n: int, seed: int) -> RunSpec:
    """The sweep's base spec, shaped like ``cli.spec_from_args``."""
    return RunSpec(
        algorithm=algorithm,
        family=family,
        graph=topology(family, n),
        placement=placement,
        k=k,
        placement_args={"seed": seed},
        labels_args={"seed": seed},
        seed=seed,
        uses_uxs=algorithm not in NO_UXS,
        stop_on_gather=algorithm in NO_DETECTION,
    )


def make_specs(workload: Workload, seed: int, replicas: Optional[int] = None) -> List[RunSpec]:
    """The workload's batch for ``seed``, in submission order."""
    replicas = workload.replicas if replicas is None else replicas
    specs: List[RunSpec] = []
    for algorithm, placement, k in workload.runs:
        for family in FAMILIES:
            for n in workload.ns:
                base = _base_spec(algorithm, placement, k, family, n, seed)
                specs.extend(
                    executor.replicate_spec(base, replicas, root_seed=seed, salt=f"sweep:{n}")
                )
    return specs


def gate_slice(workload: Workload, seed: int) -> List[RunSpec]:
    """The engine-agreement slice: two replicas of each algorithm on the
    smallest ring — a differ-only-by-seed pair, so batch engines batch."""
    smallest = replace(workload, ns=workload.ns[:1], replicas=2)
    return [s for s in make_specs(smallest, seed) if s.family == "ring"]


def campaign_half(specs: Sequence[RunSpec], seed: int) -> List[RunSpec]:
    """The seeded half of a campaign grid that starts out cached."""
    chosen = set(random.Random(f"campaign-half:{seed}").sample(range(len(specs)), len(specs) // 2))
    return [s for i, s in enumerate(specs) if i in chosen]


# ---------------------------------------------------------------------------
# Set-up and timed passes
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    """What set-up leaves behind for the timed passes."""

    specs: List[RunSpec]
    #: Campaign only: the frozen manifest and the half-filled cache
    #: directory each pass starts from (a fresh copy per pass).
    manifest: Optional[manifest_mod.CampaignManifest] = None
    template: Optional[Path] = None


def setup(
    workload: Workload, specs: List[RunSpec], seed: int, work: Path, engine: Optional[str] = None
) -> Prepared:
    """Warm everything a user pays for once per process.

    Drops the per-process graph memo and the UXS plan memo first, so every
    call does the full work: build each topology and its CSR, build and
    certify the UXS plan for every graph a UXS-capable spec names, and for
    the campaign freeze the manifest and fill the seeded half of the cache.
    """
    graph_cache.clear()
    generators.practical_plan.cache_clear()
    seen = set()
    for spec in specs:
        key = (spec.family, tuple(sorted(spec.graph.items())), spec.uses_uxs)
        if key in seen:
            continue
        seen.add(key)
        graph = graph_cache.graph_for(spec.family, dict(spec.graph))
        graph.csr  # compiled lazily; force it here
        if spec.uses_uxs:
            generators.practical_plan(graph.n)
            experiments.verify_uxs_for_graph(graph)
    if not workload.campaign:
        return Prepared(specs=specs)

    template = work / "campaign-template"
    shutil.rmtree(template, ignore_errors=True)
    manifest = manifest_mod.CampaignManifest.from_specs(specs, meta={"benchmark": workload.name})
    if len(manifest.cells) != len(specs):
        raise ValueError("campaign grid has duplicate cells")
    manifest_mod.save_manifest(manifest, template)
    result = api.execute(campaign_half(specs, seed), cache=ResultCache(template), engine=engine)
    bad = [o for o in result.outcomes if not o.ok]
    if bad:
        raise RuntimeError(f"campaign pre-fill failed: {bad[0].error_type}: {bad[0].error}")
    return Prepared(specs=specs, manifest=manifest, template=template)


@dataclass
class PassResult:
    """One timed pass: its time and the outcome of every spec."""

    #: Wall time of the timed calls, seconds.
    wall: float
    #: The same, each call scaled to the reference host (``hostspeed.py``).
    scaled_wall: float
    outcomes: List[RunOutcome]
    #: Host-speed factor of the call that produced each outcome.
    scales: List[float]

    @property
    def scaled_elapsed(self) -> List[float]:
        """Each spec's ``RunOutcome.elapsed`` on the reference host."""
        return [o.elapsed * f for o, f in zip(self.outcomes, self.scales)]


def run_pass(workload: Workload, prep: Prepared, work: Path, engine: Optional[str] = None) -> PassResult:
    """One closed-loop pass over the whole batch.

    A sweep makes one ``execute`` call per base spec, in submission order;
    the campaign makes one ``run_campaign`` call.  Only the calls are timed,
    and the host-speed probe runs before and after each.  For the campaign,
    the fresh copy of the half-filled cache is made before the clock starts,
    and the records are read back from the cache after it stops.
    """
    if not workload.campaign:
        serial = executor.SerialExecutor()
        wall = scaled_wall = 0.0
        outcomes: List[RunOutcome] = []
        scales: List[float] = []
        before = hostspeed.probe()
        for i in range(0, len(prep.specs), workload.replicas):
            t0 = time.perf_counter()
            result = api.execute(prep.specs[i:i + workload.replicas], executor=serial, engine=engine)
            took = time.perf_counter() - t0
            after = hostspeed.probe()
            factor = hostspeed.scale(before, after)
            before = after
            wall += took
            scaled_wall += took * factor
            outcomes.extend(result.outcomes)
            scales.extend([factor] * len(result.outcomes))
        return PassResult(wall=wall, scaled_wall=scaled_wall, outcomes=outcomes, scales=scales)

    root = work / "campaign-pass"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(prep.template, root)
    before = hostspeed.probe()
    t0 = time.perf_counter()
    worker.run_campaign(prep.manifest, root, workers=CAMPAIGN_WORKERS, engine=engine)
    wall = time.perf_counter() - t0
    factor = hostspeed.scale(before, hostspeed.probe())
    cache = ResultCache(root)
    outcomes = []
    for spec in prep.specs:
        run = cache.get(spec)
        outcomes.append(
            RunOutcome(spec=spec, run=run, cached=True)
            if run is not None
            else RunOutcome(spec=spec, error="cell missing from the cache after the campaign",
                            error_type="MissingCell")
        )
    shutil.rmtree(root, ignore_errors=True)
    return PassResult(wall=wall, scaled_wall=wall * factor, outcomes=outcomes,
                      scales=[factor] * len(outcomes))

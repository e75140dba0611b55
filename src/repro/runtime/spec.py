"""Declarative run specifications — the unit of work of the runtime layer.

A :class:`RunSpec` is a *picklable, fully declarative* description of one
gathering simulation: graph family + parameters, placement scheme,
label scheme, algorithm + options, knowledge grants, seed, and limits.
Because a spec carries names and plain data instead of live objects
(graphs, program factories, closures), it can

* cross a process boundary untouched (parallel execution),
* be hashed canonically (content-addressed result caching), and
* be rebuilt bit-identically anywhere (``materialize`` + ``execute_spec``).

The registries below map scheme/algorithm names to the concrete builders in
:mod:`repro.analysis.placement` and :mod:`repro.core`; the CLI shares them,
so everything expressible on the command line is expressible as a spec.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import (
    GatheringRun,
    record_from_result,
    run_gathering,
    verify_uxs_for_graph,
)
from repro.analysis.placement import (
    adversarial_scatter,
    assign_labels,
    dispersed_random,
    dispersed_with_pair_distance,
    undispersed_placement,
)
from repro.baselines import dessmark_program, random_walk_program, tz_rendezvous_program
from repro.core.faster_gathering import faster_gathering_program
from repro.core.undispersed import undispersed_gathering_program
from repro.core.uxs_gathering import uxs_gathering_program
from repro.ext.faults import FaultPlan
from repro.graphs.port_graph import PortGraph
from repro.graphs.traversal import require_connected
from repro.runtime.graph_cache import graph_for, pair_memo_for
from repro.sim.activation import build_activation
from repro.sim.batch import make_replica_batch
from repro.sim.robot import RobotSpec
from repro.sim.world import DEFAULT_MAX_ROUNDS

__all__ = [
    "RunSpec",
    "BatchRunSpec",
    "RunOutcome",
    "RunFailure",
    "execute_spec",
    "execute_batch_spec",
    "batch_key",
    "group_into_batches",
    "materialize",
    "register_algorithm",
    "unregister_algorithm",
    "ALGORITHM_BUILDERS",
    "PLACEMENT_BUILDERS",
    "NO_UXS",
    "NO_DETECTION",
    "SPEC_SCHEMA",
]

#: Bumped whenever the spec→result contract changes; participates in cache
#: keys so stale cache entries are never replayed against new semantics.
SPEC_SCHEMA = 1


# ---------------------------------------------------------------------------
# Registries (shared with the CLI)
# ---------------------------------------------------------------------------

#: ``algorithm name -> builder(options dict) -> program factory``.
ALGORITHM_BUILDERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "faster": lambda opts: faster_gathering_program(
        max_degree=opts.get("max_degree"), hop_distance=opts.get("hop_distance")
    ),
    "undispersed": lambda opts: undispersed_gathering_program(),
    "uxs": lambda opts: uxs_gathering_program(),
    "tz": lambda opts: tz_rendezvous_program(),
    "dessmark": lambda opts: dessmark_program(max_degree=opts.get("max_degree")),
    "random_walk": lambda opts: random_walk_program(seed=opts.get("seed", 0)),
}

#: Algorithms whose schedules never enter a UXS phase (skip plan checks).
NO_UXS = {"undispersed", "dessmark", "random_walk"}

#: Algorithms without termination detection: measure first-gather instead.
NO_DETECTION = {"tz", "random_walk"}


def register_algorithm(
    name: str,
    builder: Callable[[Dict[str, Any]], Any],
    *,
    uses_uxs: bool = True,
    detects: bool = True,
) -> None:
    """Register a custom algorithm so specs (and the CLI) can name it.

    ``builder(options)`` must return a program factory.  Registration is
    per-process; parallel executors inherit it through ``fork`` on POSIX.
    """
    ALGORITHM_BUILDERS[name] = builder
    if not uses_uxs:
        NO_UXS.add(name)
    if not detects:
        NO_DETECTION.add(name)


def unregister_algorithm(name: str) -> None:
    ALGORITHM_BUILDERS.pop(name, None)
    NO_UXS.discard(name)
    NO_DETECTION.discard(name)


def _place_undispersed(graph: PortGraph, k: int, seed: int, opts: Dict[str, Any]) -> List[int]:
    return undispersed_placement(graph, k, seed=seed)


def _place_dispersed(graph: PortGraph, k: int, seed: int, opts: Dict[str, Any]) -> List[int]:
    return dispersed_random(graph, k, seed=seed)


def _place_scatter(graph: PortGraph, k: int, seed: int, opts: Dict[str, Any]) -> List[int]:
    return adversarial_scatter(graph, k, seed=seed)


def _place_pair_distance(graph: PortGraph, k: int, seed: int, opts: Dict[str, Any]) -> List[int]:
    if "distance" not in opts:
        raise ValueError("placement 'pair-distance' needs placement_args['distance']")
    return dispersed_with_pair_distance(graph, k, opts["distance"], seed=seed)


#: ``placement name -> builder(graph, k, seed, options) -> starts``.
PLACEMENT_BUILDERS: Dict[str, Callable[[PortGraph, int, int, Dict[str, Any]], List[int]]] = {
    "undispersed": _place_undispersed,
    "dispersed": _place_dispersed,
    "scatter": _place_scatter,
    "pair-distance": _place_pair_distance,
}


# ---------------------------------------------------------------------------
# The spec itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """Picklable description of one gathering simulation.

    Seeds resolve in two steps: a scheme's ``*_args["seed"]`` wins when
    present; otherwise the spec-level :attr:`seed` applies (``0`` when that
    is also unset).  Leaving :attr:`seed` as ``None`` lets the runtime
    derive it from a root seed (see ``assign_seeds``) without clobbering
    pinned per-scheme seeds.
    """

    algorithm: str
    family: str
    graph: Dict[str, Any] = field(default_factory=dict)
    placement: str = "dispersed"
    k: int = 2
    placement_args: Dict[str, Any] = field(default_factory=dict)
    labels: str = "random"
    labels_args: Dict[str, Any] = field(default_factory=dict)
    algorithm_args: Dict[str, Any] = field(default_factory=dict)
    knowledge: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    uses_uxs: bool = True
    stop_on_gather: bool = False
    max_rounds: Optional[int] = None
    strict: bool = True
    #: Activation model name (:mod:`repro.sim.activation`); ``"sync"`` is
    #: the paper's model and runs the scheduler's native hot path.
    activation: str = "sync"
    activation_args: Dict[str, Any] = field(default_factory=dict)
    #: Declarative fault campaign: ``FaultPlan.to_dict()`` form, i.e.
    #: ``{"crash": {index: round}, "delay": {index: delay}}``.
    faults: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.faults:
            # Normalize to FaultPlan's canonical string-key form: int and
            # str index keys would otherwise make equivalent fault tables
            # unequal (and differently cache-keyed), and a mixed-key table
            # would crash sort_keys serialization with a TypeError.
            object.__setattr__(
                self, "faults", FaultPlan.from_dict(self.faults).to_dict()
            )

    def canonical_json(self) -> str:
        """Stable serialization — the identity the cache hashes.

        Raises ``TypeError`` for specs holding non-JSON values (functions,
        objects): silently stringifying them would embed memory addresses
        and quietly break cache-key identity across processes.

        The scenario fields (``activation``/``activation_args``/``faults``)
        are omitted at their defaults, so every spec expressible before the
        scenario layer existed keeps its exact historical cache key.
        """
        spec_dict = asdict(self)
        if spec_dict["activation"] == "sync" and not spec_dict["activation_args"]:
            del spec_dict["activation"]
            del spec_dict["activation_args"]
        if not spec_dict["faults"]:
            del spec_dict["faults"]
        payload = {"schema": SPEC_SCHEMA, "spec": spec_dict}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def fault_plan(self) -> Optional[FaultPlan]:
        """The spec's :class:`~repro.ext.faults.FaultPlan`, or ``None``."""
        if not self.faults:
            return None
        return FaultPlan.from_dict(self.faults)

    def is_clean(self) -> bool:
        """Synchronous activation (no stray options) and no faults — the
        paper's exact model.  ``sync`` with non-empty ``activation_args``
        is not clean: it is an invalid spec ``materialize`` rejects."""
        return self.activation == "sync" and not self.activation_args and not self.faults

    def resolved_seed(self, args: Dict[str, Any]) -> int:
        seed = args.get("seed", self.seed)
        return 0 if seed is None else seed


@dataclass(slots=True)
class RunOutcome:
    """What came back from one spec: a record, or an isolated failure."""

    spec: RunSpec
    run: Optional[GatheringRun] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    elapsed: float = 0.0
    cached: bool = False
    #: True when the run came out of the replica engine
    #: (:func:`execute_batch_spec`); results are bit-identical either way.
    batched: bool = False

    @property
    def ok(self) -> bool:
        return self.run is not None and self.error is None

    def run_or_raise(self) -> GatheringRun:
        if self.run is None:
            raise RunFailure(self)
        return self.run


class RunFailure(RuntimeError):
    """A spec failed inside the runtime (the batch itself survived)."""

    def __init__(self, outcome: RunOutcome):
        super().__init__(
            f"{outcome.error_type or 'error'} while running "
            f"{outcome.spec.algorithm} on {outcome.spec.family}: {outcome.error}"
        )
        self.outcome = outcome


# ---------------------------------------------------------------------------
# Materialization and execution
# ---------------------------------------------------------------------------


def _validate_and_graph(spec: RunSpec) -> PortGraph:
    """The seed-independent half of :func:`materialize`: name validation,
    activation/fault checks, and the (memoized) graph build.  A batch of
    seed-replicas shares one call."""
    if spec.algorithm not in ALGORITHM_BUILDERS:
        raise ValueError(
            f"unknown algorithm {spec.algorithm!r}; known: {sorted(ALGORITHM_BUILDERS)}"
        )
    if spec.placement not in PLACEMENT_BUILDERS:
        raise ValueError(
            f"unknown placement {spec.placement!r}; known: {sorted(PLACEMENT_BUILDERS)}"
        )
    # raises on unknown model names and unknown/typo'd option keys (a
    # silently ignored option would cache a mislabeled experiment)
    build_activation(spec.activation, dict(spec.activation_args))
    plan = spec.fault_plan()  # raises on malformed fault tables
    if plan is not None:
        plan.validate_for(spec.k)
    # per-process memo: a batch naming few topologies and many seeds builds
    # each graph (and its compiled CSR) once per worker, not once per spec
    return graph_for(spec.family, dict(spec.graph))


def _materialize_parts(spec: RunSpec, graph: PortGraph):
    """The seed-dependent half of :func:`materialize`: placement, labels,
    and the program factory — per replica in a batch."""
    starts = PLACEMENT_BUILDERS[spec.placement](
        graph, spec.k, spec.resolved_seed(spec.placement_args), dict(spec.placement_args)
    )
    labels = assign_labels(
        len(starts),
        graph.n,
        scheme=spec.labels,
        seed=spec.resolved_seed(spec.labels_args),
        **{k: v for k, v in spec.labels_args.items() if k not in ("seed",)},
    )
    opts = dict(spec.algorithm_args)
    opts.setdefault("seed", spec.resolved_seed(spec.algorithm_args))
    builder = ALGORITHM_BUILDERS[spec.algorithm]

    def factory_for():
        return builder(opts)

    return starts, labels, factory_for


def materialize(spec: RunSpec):
    """Rebuild the live objects a spec describes.

    Returns ``(graph, starts, labels, factory_for)`` ready for
    :func:`repro.analysis.experiments.run_gathering`.
    """
    graph = _validate_and_graph(spec)
    starts, labels, factory_for = _materialize_parts(spec, graph)
    return graph, starts, labels, factory_for


# ---------------------------------------------------------------------------
# Replica batching
# ---------------------------------------------------------------------------


def _freeze(value: Any):
    """Hashable projection of a spec's plain-data payloads (dict order
    insensitive, like ``canonical_json``'s sorted keys)."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def batch_key(spec: RunSpec) -> Optional[tuple]:
    """The grouping identity for replica batching, or ``None`` if the spec
    does not qualify.

    Two specs with the same key differ in their ``seed`` field only — they
    are replicas of one experiment.  Only *clean* specs qualify (the
    batched engine runs the paper's exact synchronous model; activation
    models and fault plans stay on the scalar path).  The key is a cheap
    field tuple, **not** a cache key: per-replica results are still cached
    under each spec's own SHA-256 (see :class:`repro.runtime.cache.
    ResultCache`), and grouping a thousand-spec campaign must not pay a
    thousand canonical-JSON serializations.
    """
    if not spec.is_clean():
        return None
    try:
        return (
            spec.algorithm,
            spec.family,
            _freeze(spec.graph),
            spec.placement,
            spec.k,
            _freeze(spec.placement_args),
            spec.labels,
            _freeze(spec.labels_args),
            _freeze(spec.algorithm_args),
            _freeze(spec.knowledge),
            spec.uses_uxs,
            spec.stop_on_gather,
            spec.max_rounds,
            spec.strict,
        )
    except TypeError:  # unorderable dict keys cannot group safely
        return None


@dataclass(frozen=True)
class BatchRunSpec:
    """R seed-replicas of one :class:`RunSpec`, as a single unit of work.

    ``template`` carries the shared experiment shape (``seed=None``);
    ``seeds`` carries one entry per replica.  ``specs()`` reconstructs the
    concrete per-replica specs — the identities results are cached and
    reported under.  Picklable, so executors can dispatch a whole batch to
    a worker process as one task.
    """

    template: RunSpec
    seeds: Tuple[Optional[int], ...]
    #: Bookkeeping backend for the replica engine (see
    #: :mod:`repro.sim.batch`); results are bit-identical across backends.
    backend: str = "auto"

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("BatchRunSpec needs at least one seed")
        if batch_key(self.template) is None:
            raise ValueError(
                "only clean specs (synchronous activation, no faults) can batch"
            )

    @classmethod
    def from_specs(
        cls, specs: Sequence[RunSpec], backend: str = "auto"
    ) -> "BatchRunSpec":
        """Group concrete specs that differ only by seed into one batch."""
        if not specs:
            raise ValueError("BatchRunSpec needs at least one spec")
        keys = {batch_key(s) for s in specs}
        if len(keys) != 1 or None in keys:
            raise ValueError("specs do not share a batchable identity")
        return cls(
            template=replace(specs[0], seed=None),
            seeds=tuple(s.seed for s in specs),
            backend=backend,
        )

    def specs(self) -> List[RunSpec]:
        return [replace(self.template, seed=s) for s in self.seeds]


def group_into_batches(
    specs: Sequence[RunSpec],
    min_replicas: int = 2,
    backend: str = "auto",
) -> Tuple[List[Tuple[List[int], BatchRunSpec]], List[Tuple[int, RunSpec]]]:
    """Partition specs into seed-replica batches and scalar leftovers.

    Returns ``(batches, singles)`` where each batch is ``(original
    indices, BatchRunSpec)`` and singles are ``(original index, spec)``
    pairs — everything needed to reassemble outcomes in submission order.
    Groups smaller than ``min_replicas`` stay scalar (batching one replica
    buys nothing).
    """
    groups: Dict[tuple, List[int]] = {}
    unbatchable: List[int] = []
    for i, spec in enumerate(specs):
        key = batch_key(spec)
        if key is None:
            unbatchable.append(i)
            continue
        try:
            groups.setdefault(key, []).append(i)
        except TypeError:  # unhashable payload values cannot group safely
            unbatchable.append(i)
    batches: List[Tuple[List[int], BatchRunSpec]] = []
    singles: List[Tuple[int, RunSpec]] = []
    for i in unbatchable:
        singles.append((i, specs[i]))
    for indices in groups.values():
        if len(indices) < min_replicas:
            singles.extend((i, specs[i]) for i in indices)
        else:
            batches.append(
                (
                    indices,
                    BatchRunSpec(
                        template=replace(specs[indices[0]], seed=None),
                        seeds=tuple(specs[i].seed for i in indices),
                        backend=backend,
                    ),
                )
            )
    singles.sort(key=lambda pair: pair[0])
    return batches, singles


def execute_batch_spec(batch: BatchRunSpec) -> List[RunOutcome]:
    """Run a batch of seed-replicas; outcomes in seed order.

    The scalar path's per-spec work is split: name/graph validation, UXS
    certification, and the connectivity check run **once** for the shared
    graph; placement, labels, and program construction run per replica;
    the simulation itself runs through :class:`repro.sim.batch.
    ReplicaBatch`, replica by replica.  Failures are isolated exactly as
    in :func:`execute_spec` — per replica, message-identical — and
    per-outcome ``elapsed`` is the batch wall-clock split evenly (the
    shared validation, checks and kernel front-run belong to no one
    replica).
    """
    specs = batch.specs()
    t0 = time.perf_counter()

    def errored(spec: RunSpec, exc: Exception) -> RunOutcome:
        return RunOutcome(
            spec=spec, error=str(exc), error_type=type(exc).__name__, batched=True
        )

    try:
        template = specs[0]
        graph = _validate_and_graph(template)
    except Exception as exc:
        return [errored(s, exc) for s in specs]

    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    fleets: List[List[RobotSpec]] = []
    fleet_idx: List[int] = []
    starts_of: Dict[int, List[int]] = {}
    for i, spec in enumerate(specs):
        try:
            starts, labels, factory_for = _materialize_parts(spec, graph)
            if not starts:
                raise ValueError("need at least one robot")
            factory = factory_for()
            fleet = [
                RobotSpec(label=l, start=s, factory=factory, knowledge=dict(spec.knowledge))
                for l, s in zip(labels, starts)
            ]
        except Exception as exc:
            outcomes[i] = errored(spec, exc)
            continue
        starts_of[i] = list(starts)
        fleets.append(fleet)
        fleet_idx.append(i)

    # Graph-pure checks, shared by every replica; a failure here fails each
    # healthy replica identically.  (Certification passes are remembered
    # per graph either way, so the scalar path pays it once per memoized
    # graph too; a failing graph is checked again on every call.)
    try:
        if template.uses_uxs:
            verify_uxs_for_graph(graph)
        require_connected(graph)
    except Exception as exc:
        for i in fleet_idx:
            outcomes[i] = errored(specs[i], exc)
        return [o for o in outcomes if o is not None]

    engine = make_replica_batch(
        graph, fleets, strict=template.strict, backend=batch.backend
    )
    max_rounds = (
        template.max_rounds if template.max_rounds is not None else DEFAULT_MAX_ROUNDS
    )
    replica_outcomes = engine.run(
        max_rounds=max_rounds, stop_on_gather=template.stop_on_gather
    )
    memo = pair_memo_for(graph)  # shared per process; answers bit-identical
    elapsed = (time.perf_counter() - t0) / len(specs)
    for i, rep in zip(fleet_idx, replica_outcomes):
        spec = specs[i]
        if rep.ok:
            rec = record_from_result(
                spec.algorithm,
                graph,
                starts_of[i],
                rep.result,
                min_pair_distance=memo.min_pairwise_distance(starts_of[i]),
            )
            outcomes[i] = RunOutcome(spec=spec, run=rec, elapsed=elapsed, batched=True)
        else:
            outcomes[i] = RunOutcome(
                spec=spec,
                error=rep.error,
                error_type=rep.error_type,
                elapsed=elapsed,
                batched=True,
            )
    return [o for o in outcomes if o is not None]


def execute_spec(spec: RunSpec, engine: Optional[str] = None) -> RunOutcome:
    """Run one spec to completion, isolating any failure in the outcome.

    This is the (module-level, hence picklable) function parallel workers
    execute.  It never raises: a :class:`ProtocolViolation`, a UXS
    certification failure, or a bad spec becomes an errored outcome so one
    poisoned run cannot kill a batch.

    ``engine`` pins a scalar simulation backend by name (see
    :func:`repro.sim.engines.list_engines`); ``None`` keeps the default.
    It is an *execution* parameter, like the executor choice — it never
    enters the spec or its cache key, because conforming backends return
    bit-identical records.
    """
    start = time.perf_counter()
    try:
        graph, starts, labels, factory_for = materialize(spec)
        rec = run_gathering(
            spec.algorithm,
            graph,
            starts,
            labels,
            factory_for,
            knowledge=dict(spec.knowledge),
            uses_uxs=spec.uses_uxs,
            stop_on_gather=spec.stop_on_gather,
            max_rounds=spec.max_rounds,
            strict=spec.strict,
            activation=spec.activation,
            activation_args=dict(spec.activation_args),
            fault_plan=spec.fault_plan(),
            engine=engine,
        )
        return RunOutcome(spec=spec, run=rec, elapsed=time.perf_counter() - start)
    except Exception as exc:
        return RunOutcome(
            spec=spec,
            error=str(exc),
            error_type=type(exc).__name__,
            elapsed=time.perf_counter() - start,
        )

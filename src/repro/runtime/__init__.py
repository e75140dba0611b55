"""repro.runtime — parallel sweep execution engine.

The layer between "one simulation" (:func:`repro.analysis.experiments.
run_gathering`) and "the paper's experiment suite" (sweeps, benchmarks,
reports):

* :class:`RunSpec` — picklable, declarative description of one run;
* :class:`SerialExecutor` / :class:`ParallelExecutor` — interchangeable
  execution strategies (in-process vs. chunked process-pool fan-out) with
  per-run failure isolation and deterministic seed streams;
* :class:`ResultCache` — content-addressed on-disk cache keyed by the
  spec's canonical hash, so repeated sweeps skip completed work (with
  optional chunked multi-record files for large batches);
* :mod:`~repro.runtime.graph_cache` — per-worker graph/CSR memoization, so
  a batch builds each topology once instead of once per spec, plus the
  per-graph pair-distance memo every record reads;
* :class:`BatchRunSpec` / ``execute(engine="batch-numpy")`` — replica
  batching: within one executor call (one chunk, under
  :class:`ParallelExecutor`), specs that differ only by seed run as one
  batch through :class:`repro.sim.batch.ReplicaBatch`, replica by replica
  through ``Scheduler.run``, sharing one graph and one set of graph
  checks while keeping records and cache keys bit-identical;
* ``execute(engine=...)`` — single-flag simulation-backend dispatch: every
  registered engine (:func:`repro.sim.engines.list_engines`) is selectable
  by name and takes the same path, one ``executor.run`` call, with
  bit-identical records across conforming backends (see
  docs/ENGINES.md);
* :func:`execute` / :func:`run_specs` — the batch API gluing it together.

The crash-safe campaign layer (:mod:`repro.campaigns` — durable
manifests, filesystem-lease work-stealing, resume-from-anywhere; see
docs/CAMPAIGNS.md) builds on this module's cache and executors.

Serial execution is the default everywhere, keeping results bit-identical
to single-process runs; parallel execution returns the exact same outcome
list, just faster.  See docs/RUNTIME.md for the full tour.
"""

from repro.runtime import graph_cache
from repro.runtime.api import ExecutionResult, ExecutionStats, execute, run_specs
from repro.runtime.cache import ResultCache
from repro.sim.engine import Engine, EngineCapabilities, UnsupportedFeature
from repro.sim.engines import DEFAULT_ENGINE, get_engine, list_engines
from repro.runtime.executor import (
    Executor,
    ParallelExecutor,
    ProgressCallback,
    SerialExecutor,
    assign_seeds,
    derive_seed,
    replicate_spec,
)
from repro.runtime.spec import (
    ALGORITHM_BUILDERS,
    NO_DETECTION,
    NO_UXS,
    PLACEMENT_BUILDERS,
    BatchRunSpec,
    RunFailure,
    RunOutcome,
    RunSpec,
    batch_key,
    execute_batch_spec,
    execute_spec,
    group_into_batches,
    materialize,
    register_algorithm,
    unregister_algorithm,
)

__all__ = [
    "graph_cache",
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
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ProgressCallback",
    "derive_seed",
    "assign_seeds",
    "replicate_spec",
    "ResultCache",
    "ExecutionStats",
    "ExecutionResult",
    "execute",
    "run_specs",
    "Engine",
    "EngineCapabilities",
    "UnsupportedFeature",
    "DEFAULT_ENGINE",
    "get_engine",
    "list_engines",
]

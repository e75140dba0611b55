"""Per-layer tracing, installed from outside the program.

:func:`install` wraps each layer's public entry points (module functions,
class methods and registry entries) with span recorders and returns a
function that puts the originals back; nothing under ``src/`` changes.
Spans carry a name, start, end, parent span and run id (every
``execute_spec`` call starts a run), plus counts recorded at the same
boundary.  They stay in memory and are written once, when the traced run
ends (:meth:`Tracer.dump`).

Two things are too frequent to be spans, so they are counted on the
tracer and attached to the enclosing ``sim.run`` span: the robot-program
``send`` calls (time and count), and the scheduler's steps by regime.  The
regime counters are the one place the trace reaches past public API: they
wrap ``Scheduler._step`` / ``_step_soa`` / ``_step_general``; a step that
reaches neither of the latter two is a fast-forward jump.

Campaign workers are forked from the traced process, so they inherit the
wrappers; each worker keeps only its own spans and writes them to its own
file in the spool directory when ``run_worker`` returns.  The parent merges
those files (:meth:`Tracer.merge_spool`).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from functools import wraps
from hashlib import sha256
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Tracer", "install", "self_times", "layer_metrics", "LAYER_METRICS"]


class Tracer:
    """In-memory span store for one process (and, after a fork, its child)."""

    def __init__(self, spool: Optional[Path] = None, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spool = spool
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._count = 0
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.program_s = 0.0
        self.sends = 0
        self.steps = 0
        self.steps_soa = 0
        self.steps_general = 0

    @contextmanager
    def span(self, name: str, new_run: bool = False):
        """Record one span around the ``with`` body; yields its count dict.

        ``new_run`` starts a new run id; otherwise the span inherits its
        parent's (a root span starts its own).
        """
        parent = self._stack[-1] if self._stack else None
        self._count += 1
        span_id = f"{os.getpid()}:{self._count}"
        rec = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "run": span_id if new_run or parent is None else parent["run"],
            "start": self.clock(),
            "end": None,
            "counts": {},
        }
        self._stack.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = self.clock()
            self._stack.pop()
            self.spans.append(rec)

    # -- fork handling ------------------------------------------------------
    def enter_child(self) -> bool:
        """In a freshly forked child, drop the spans inherited from the
        parent (it reports them itself); returns whether this is a child.
        Open spans stay on the stack, so the child's first span still
        names its real parent."""
        if os.getpid() == self.pid:
            return False
        self.pid = os.getpid()
        self.spans = []
        self._reset_counters()
        return True

    def spool_child(self) -> None:
        """Write a child's spans to its own spool file."""
        if self.spool is not None:
            self.dump(self.spool / f"spans-{os.getpid()}.json")

    def merge_spool(self) -> int:
        """Fold every child's spool file into this tracer; returns how many."""
        if self.spool is None:
            return 0
        files = sorted(self.spool.glob("spans-*.json"))
        for path in files:
            self.spans.extend(json.loads(path.read_text())["spans"])
            path.unlink()
        return len(files)

    def dump(self, path: Path, **meta) -> None:
        """Write the spans (and ``meta``) as one JSON document."""
        path.write_text(json.dumps({**meta, "spans": self.spans}, sort_keys=True))


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


class _TimedProgram:
    """A robot program whose every ``send`` is timed and counted."""

    __slots__ = ("_gen", "_send", "_tracer")

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._send = gen.send
        self._tracer = tracer

    def send(self, value):
        tracer = self._tracer
        t0 = tracer.clock()
        try:
            return self._send(value)
        finally:
            tracer.program_s += tracer.clock() - t0
            tracer.sends += 1

    def __next__(self):
        return self.send(None)

    def close(self):
        self._gen.close()


def _spanned(tracer: Tracer, name: str, fn: Callable, after=None, before=None, new_run=False):
    """``fn`` wrapped in a span; ``before(*args)`` runs first and its value
    goes to ``after(counts, result, state, *args)``."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(*args, **kwargs) if before is not None else None
        with tracer.span(name, new_run=new_run) as counts:
            result = fn(*args, **kwargs)
            if after is not None:
                after(counts, result, state, *args, **kwargs)
        return result

    for attr in ("cache_clear", "cache_info"):  # keep lru_cache's surface
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced entry point; returns the function that undoes it."""
    from repro.analysis import experiments
    from repro.campaigns import leases, worker
    from repro.runtime import api, cache, executor, graph_cache, spec
    from repro.sim import scheduler, world
    from repro.uxs import generators

    saved: List[Tuple[object, str, object]] = []

    def patch(target, name: str, value) -> None:
        if isinstance(target, dict):
            saved.append((target, name, target[name]))
            target[name] = value
        else:
            saved.append((target, name, getattr(target, name)))
            setattr(target, name, value)

    def restore() -> None:
        for target, name, value in reversed(saved):
            if isinstance(target, dict):
                target[name] = value
            else:
                setattr(target, name, value)
        saved.clear()

    # runtime / campaigns: dispatch layers
    patch(api, "execute", _spanned(tracer, "runtime.execute", api.execute))

    def campaign_stats(counts, stats, _state, *args, **kwargs):
        counts.update(contended=stats.contended, retries=stats.retries)

    patch(worker, "run_campaign",
          _spanned(tracer, "campaigns.run_campaign", worker.run_campaign, after=campaign_stats))

    run_worker = _spanned(tracer, "campaigns.run_worker", worker.run_worker)

    def worker_entry(*args, **kwargs):
        child = tracer.enter_child()
        result = run_worker(*args, **kwargs)
        if child:
            tracer.spool_child()
        return result

    patch(worker, "run_worker", wraps(worker.run_worker)(worker_entry))

    patch(executor, "execute_spec",
          _spanned(tracer, "runtime.spec", executor.execute_spec, new_run=True))

    # graphs: memoized graph build
    def memo_state(*args, **kwargs):
        return graph_cache.cache_info()["misses"]

    def memo_counts(counts, _graph, misses_before, *args, **kwargs):
        counts["build"] = graph_cache.cache_info()["misses"] > misses_before

    traced_graph_for = _spanned(tracer, "graphs.graph_for", graph_cache.graph_for,
                                before=memo_state, after=memo_counts)
    patch(graph_cache, "graph_for", traced_graph_for)
    patch(spec, "graph_for", traced_graph_for)

    # uxs: plan construction and certification
    plan_fn = generators.practical_plan

    def plan_state(*args, **kwargs):
        return plan_fn.cache_info().misses

    def plan_counts(counts, _plan, misses_before, *args, **kwargs):
        counts["built"] = plan_fn.cache_info().misses > misses_before

    traced_plan = _spanned(tracer, "uxs.plan", plan_fn, before=plan_state, after=plan_counts)
    patch(generators, "practical_plan", traced_plan)
    patch(experiments, "practical_plan", traced_plan)
    traced_certify = _spanned(tracer, "uxs.certify", experiments.verify_uxs_for_graph)
    patch(experiments, "verify_uxs_for_graph", traced_certify)
    patch(spec, "verify_uxs_for_graph", traced_certify)

    # analysis.placement: start nodes and labels
    for name, builder in list(spec.PLACEMENT_BUILDERS.items()):
        patch(spec.PLACEMENT_BUILDERS, name, _spanned(tracer, "placement", builder))
    patch(spec, "assign_labels", _spanned(tracer, "placement", spec.assign_labels))

    # core programs: time every send
    def timed_builder(builder):
        def build(opts):
            factory = builder(opts)

            def timed_factory(ctx):
                return _TimedProgram(factory(ctx), tracer)

            return timed_factory

        return build

    for name, builder in list(spec.ALGORITHM_BUILDERS.items()):
        patch(spec.ALGORITHM_BUILDERS, name, timed_builder(builder))

    # sim: whole runs, plus steps by regime
    def sim_state(*args, **kwargs):
        t = tracer
        return (t.program_s, t.sends, t.steps, t.steps_soa, t.steps_general)

    def sim_counts(counts, result, before, *args, **kwargs):
        t = tracer
        program_s, sends, steps, soa, general = before
        counts.update(
            rounds=result.rounds,
            program_s=t.program_s - program_s,
            sends=t.sends - sends,
            steps=t.steps - steps,
            steps_soa=t.steps_soa - soa,
            steps_general=t.steps_general - general,
        )

    patch(world.World, "run",
          _spanned(tracer, "sim.run", world.World.run, before=sim_state, after=sim_counts))

    sched = scheduler.Scheduler
    step, step_soa, step_general = sched._step, sched._step_soa, sched._step_general

    def counted_step(self):
        tracer.steps += 1
        return step(self)

    def counted_soa(self, active):
        tracer.steps_soa += 1
        return step_soa(self, active)

    def counted_general(self, active):
        tracer.steps_general += 1
        return step_general(self, active)

    patch(sched, "_step", counted_step)
    patch(sched, "_step_soa", counted_soa)
    patch(sched, "_step_general", counted_general)

    # analysis: record building
    traced_record = _spanned(tracer, "record", experiments.record_from_result)
    patch(experiments, "record_from_result", traced_record)
    patch(spec, "record_from_result", traced_record)

    # runtime.cache: reads and writes (entry paths follow the documented
    # layout <root>/<key[:2]>/<key>.json and chunks/<sha256(sorted keys)>.json)
    rc = cache.ResultCache

    def get_counts(counts, run, _state, *args, **kwargs):
        counts["hit"] = run is not None

    def put_counts(counts, _result, _state, self, spec_, run):
        key = rc.key_for(spec_)
        counts.update(records=1, bytes=os.path.getsize(self.root / key[:2] / f"{key}.json"))

    def put_batch(self, pairs):
        pairs = list(pairs)
        with tracer.span("cache.put") as counts:
            written = original_put_batch(self, pairs)
            keys = sorted({rc.key_for(s) for s, _ in pairs})
            chunk = sha256("".join(keys).encode()).hexdigest()
            size = os.path.getsize(self.root / "chunks" / f"{chunk}.json") if written else 0
            counts.update(records=written, bytes=size)
        return written

    original_put_batch = rc.put_batch
    patch(rc, "get", _spanned(tracer, "cache.get", rc.get, after=get_counts))
    patch(rc, "put", _spanned(tracer, "cache.put", rc.put, after=put_counts))
    patch(rc, "put_batch", wraps(rc.put_batch)(put_batch))

    # campaigns: lease claims
    patch(leases.LeaseManager, "try_claim",
          _spanned(tracer, "campaigns.claim", leases.LeaseManager.try_claim))

    return restore


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[str, List[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ())
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(
            (lo, hi) for lo, hi in clipped if hi > lo
        )
    return out


#: ``name -> (unit, better)`` of every per-layer metric, in report order.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "graphs.build_s": ("s", "lower"),
    "graphs.builds": ("count", "lower"),
    "graphs.memo_hits": ("count", "higher"),
    "uxs.plan_s": ("s", "lower"),
    "uxs.plans": ("count", "lower"),
    "uxs.certify_s": ("s", "lower"),
    "uxs.certify_calls": ("count", "lower"),
    "placement.s": ("s", "lower"),
    "placement.calls": ("count", "lower"),
    "sim.run_s": ("s", "lower"),
    "sim.runs": ("count", "lower"),
    "sim.rounds": ("count", "lower"),
    "sim.program_s": ("s", "lower"),
    "sim.sends": ("count", "lower"),
    "sim.scheduler_s": ("s", "lower"),
    "sim.steps_soa": ("count", "higher"),
    "sim.steps_general": ("count", "lower"),
    "sim.steps_jump": ("count", "higher"),
    "sim.soa_share": ("ratio", "higher"),
    "record.s": ("s", "lower"),
    "record.calls": ("count", "lower"),
    "cache.get_s": ("s", "lower"),
    "cache.gets": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.put_s": ("s", "lower"),
    "cache.puts": ("count", "lower"),
    "cache.bytes_written": ("bytes", "lower"),
    "campaigns.claim_s": ("s", "lower"),
    "campaigns.claims": ("count", "lower"),
    "campaigns.contended": ("count", "lower"),
    "campaigns.retries": ("count", "lower"),
    "executor.dispatch_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: Spans that dispatch specs: their time outside ``runtime.spec`` is
#: executor dispatch.
DISPATCH_SPANS = ("runtime.execute", "campaigns.run_worker")


def layer_metrics(spans: List[dict], overhead_frac: float) -> Dict[str, float]:
    """Every per-layer metric, from a finished run's spans."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    by_name: Dict[str, List[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name: str) -> List[dict]:
        return by_name.get(name, [])

    def self_sum(items: Iterable[dict]) -> float:
        return sum(own[s["id"]] for s in items)

    def count_sum(items: Iterable[dict], key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in items)

    graphs = named("graphs.graph_for")
    builds = [s for s in graphs if s["counts"].get("build")]
    plans = named("uxs.plan")
    runs = named("sim.run")
    steps = count_sum(runs, "steps")
    soa = count_sum(runs, "steps_soa")
    general = count_sum(runs, "steps_general")
    gets = named("cache.get")
    puts = named("cache.put")
    claims = named("campaigns.claim")
    campaigns = named("campaigns.run_campaign")

    # executor dispatch: each dispatcher's wall time minus the specs it ran
    spec_time: Dict[str, float] = {}
    for s in named("runtime.spec"):
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] not in DISPATCH_SPANS:
            parent = by_id.get(parent["parent"])
        if parent is not None:
            spec_time[parent["id"]] = spec_time.get(parent["id"], 0.0) + s["end"] - s["start"]
    dispatch = sum(
        s["end"] - s["start"] - spec_time.get(s["id"], 0.0)
        for name in DISPATCH_SPANS
        for s in named(name)
    )

    sim_run_s = sum(s["end"] - s["start"] for s in runs)
    program_s = count_sum(runs, "program_s")
    return {
        "graphs.build_s": self_sum(builds),
        "graphs.builds": len(builds),
        "graphs.memo_hits": len(graphs) - len(builds),
        "uxs.plan_s": self_sum(plans),
        "uxs.plans": sum(1 for s in plans if s["counts"].get("built")),
        "uxs.certify_s": self_sum(named("uxs.certify")),
        "uxs.certify_calls": len(named("uxs.certify")),
        "placement.s": self_sum(named("placement")),
        "placement.calls": len(named("placement")),
        "sim.run_s": sim_run_s,
        "sim.runs": len(runs),
        "sim.rounds": count_sum(runs, "rounds"),
        "sim.program_s": program_s,
        "sim.sends": count_sum(runs, "sends"),
        "sim.scheduler_s": self_sum(runs) - program_s,
        "sim.steps_soa": soa,
        "sim.steps_general": general,
        "sim.steps_jump": steps - soa - general,
        "sim.soa_share": soa / steps if steps else 0.0,
        "record.s": self_sum(named("record")),
        "record.calls": len(named("record")),
        "cache.get_s": self_sum(gets),
        "cache.gets": len(gets),
        "cache.hit_ratio": count_sum(gets, "hit") / len(gets) if gets else 0.0,
        "cache.put_s": self_sum(puts),
        "cache.puts": count_sum(puts, "records"),
        "cache.bytes_written": count_sum(puts, "bytes"),
        "campaigns.claim_s": self_sum(claims),
        "campaigns.claims": len(claims),
        "campaigns.contended": count_sum(campaigns, "contended"),
        "campaigns.retries": count_sum(campaigns, "retries"),
        "executor.dispatch_s": dispatch,
        "trace.overhead_frac": overhead_frac,
    }

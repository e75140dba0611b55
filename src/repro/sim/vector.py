"""Vectorizable robot programs: scalar generators with an array twin.

The replica-major engine (:mod:`repro.sim.batch2d`) executes whole
replicas as NumPy array kernels instead of stepping per-robot generators.
That is only sound when the engine *knows*, ahead of time, exactly what
every robot in a replica will do — which a black-box generator cannot
promise.  This module is the declaration mechanism:

* :class:`VectorProgram` wraps an ordinary program factory.  Calling it is
  byte-for-byte the wrapped factory — every scalar engine (and every
  replica the batch engine runs through ``Scheduler.run``) sees a normal
  program and never knows the wrapper exists.  The 2D engine additionally
  reads the declaration triplet ``(kernel, shared, params)`` and, when the
  kernel accepts the graph and parameters, runs the replica through the
  array twin instead of the generators.
* A **kernel** (e.g. :class:`RotorWalkKernel`) is the array twin of one
  program family.  ``kernel.plan(graph, shared)`` compiles the family for
  one graph (returning ``None`` when unsupported — the replica then simply
  runs scalar); ``plan.accepts(params, max_rounds)`` vets one replica's
  scalars; ``plan.execute(...)`` runs a whole *group* of replicas at once
  and returns one :class:`ReplicaFinal` per replica — the exact end-state
  a scalar run of the same replica would reach.

The contract a kernel author signs:

1. **Exact twin.**  For every accepted ``(graph, shared, params)``, the
   kernel's :class:`ReplicaFinal` must equal the scalar run bit for bit:
   positions, entry ports, per-robot moves and active rounds, termination
   rounds, ``first_gather_round``, ``rounds_executed``, and the
   gathered-at-termination flag.  The differential suite
   (``tests/test_batch2d.py``) pins this against ``World.run``.
2. **Reject, never approximate.**  Anything the twin cannot reproduce
   exactly — an unsupported graph shape, a parameter that would time out,
   an edge the math does not cover — must make ``plan``/``accepts``
   decline, which silently falls the replica back to the scalar drive.
   Declining is always correct; accepting is a proof obligation.
3. **No side channels.**  Accepted programs must not publish cards, touch
   ``ctx.stats``, or depend on observations beyond what the kernel
   models; every robot must terminate.

Kernels
-------

:class:`RotorWalkKernel` — the seeded rotor walk used by
``benchmarks/bench_batch.py`` (and ``bench_simcore.py`` before it): each
robot exits through ``entry_port + 1`` forever, with a seeded initial
port, an optional initial sleep (``delay`` rounds — the per-replica wake
offsets exercise the engine's wake-frontier arithmetic), and a
terminating yield after ``rounds`` moves.  Supported on regular graphs,
where the walk reduces to one precomputed CSR slot-transition table and
the whole group advances with a single ``np.take`` per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.actions import Action

__all__ = [
    "VectorProgram",
    "ReplicaFinal",
    "RotorWalkKernel",
    "rotor_walk_factory",
    "rotor_walk_program",
    "plan_for",
]


class VectorProgram:
    """A program factory carrying its own replica-major array twin.

    Instances are callable with the exact signature of the wrapped
    ``factory`` (``factory(ctx) -> generator``), so every engine that
    steps generators — the schedulers, the batch engine's replicas — runs
    the scalar program unchanged.  The 2D replica engine treats a fleet
    whose robots all share one ``VectorProgram`` as a *hot candidate*:
    replicas are grouped by ``(kernel, shared)`` and executed through
    ``kernel.plan(graph, shared)``; ``params`` carries the per-replica
    scalars (seeds, delays).

    The wrapper asserts nothing by itself — if the kernel declines the
    graph or the params, the replica runs scalar and the results are
    identical by construction.
    """

    __slots__ = ("factory", "kernel", "shared", "params")

    def __init__(
        self,
        factory,
        kernel,
        shared: Sequence[Any] = (),
        params: Optional[Dict[str, Any]] = None,
    ):
        self.factory = factory
        self.kernel = kernel
        self.shared: Tuple[Any, ...] = tuple(shared)
        self.params: Dict[str, Any] = dict(params or {})

    def __call__(self, ctx):
        """Delegate to the wrapped scalar factory (the only scalar-visible API)."""
        return self.factory(ctx)

    def __repr__(self) -> str:
        """Debug form naming the kernel and the declaration triplet."""
        kname = getattr(self.kernel, "name", self.kernel)
        return f"VectorProgram(kernel={kname!r}, shared={self.shared!r}, params={self.params!r})"


@dataclass
class ReplicaFinal:
    """The end-of-run state of one hot replica, in scheduler (label) order.

    Exactly the fields the 2D engine writes back onto the replica's
    pristine :class:`~repro.sim.scheduler.Scheduler` before retiring it
    through the ordinary ``_finalize``/``package_result`` path — so the
    packaged :class:`~repro.sim.world.RunResult` is produced by the same
    code a scalar run uses, from the same state a scalar run would hold.
    """

    #: Final node per robot.
    pos: List[int]
    #: Final entry port per robot (``None`` only if the robot never moved).
    entry: List[Optional[int]]
    #: Edge traversals per robot.
    moves: List[int]
    #: Rounds each robot was active (computing), sleep/terminate rounds included.
    active_rounds: List[int]
    #: The round in which each robot terminated.
    terminated_rounds: List[int]
    #: ``Scheduler.round`` after the last round committed (last termination + 1).
    final_round: int
    #: Rounds actually processed (fast-forwarded sleep gaps excluded).
    rounds_executed: int
    #: First round after whose commit all robots were co-located, or ``None``.
    first_gather_round: Optional[int]
    #: Whether every robot terminated while all robots were co-located.
    terminations_all_gathered: bool


# ---------------------------------------------------------------------------
# The rotor-walk kernel
# ---------------------------------------------------------------------------


def rotor_walk_factory(rounds: int, seed: int, delay: int = 0):
    """The scalar rotor-walk program: the generator the kernel twins.

    Per robot: observe the start node's degree, optionally sleep ``delay``
    rounds (waking at round ``delay + 1``), then take ``rounds`` moves —
    the first through port ``(label + seed) % degree``, every later one
    through ``entry_port + 1`` — and terminate.  This is
    ``bench_simcore``'s kernel workload with a seeded initial port and an
    optional staggered start.
    """

    def factory(ctx):
        """Build one rotor-walk generator for the robot behind ``ctx``."""

        def program():
            """Sleep (optionally), walk ``rounds`` rotor steps, terminate."""
            obs = yield
            deg = obs.degree
            table = [Action.move(p) for p in range(deg)]
            nxt = [(p + 1) % deg for p in range(deg)]
            if delay:
                obs = yield Action.sleep(obs.round + 1 + delay)
            port = (ctx.label + seed) % deg
            for _ in range(rounds):
                obs = yield table[port]
                port = nxt[obs.entry_port]
            yield Action.terminate()

        return program()

    return factory


def rotor_walk_program(rounds: int, seed: int, delay: int = 0) -> VectorProgram:
    """A :class:`VectorProgram` pairing the scalar rotor walk with its kernel."""
    return VectorProgram(
        factory=rotor_walk_factory(rounds, seed, delay),
        kernel=RotorWalkKernel,
        shared=(rounds,),
        params={"seed": seed, "delay": delay},
    )


class _RotorPlan:
    """:class:`RotorWalkKernel` compiled for one (regular) graph.

    The walk's whole round collapses into one precomputed table: with the
    robot's state encoded as its *CSR slot* (the edge it just traversed),
    the next slot is ``row[nbr[s]] + (ent[s] + 1) % d`` — a pure function
    of the graph.  Advancing a G×k group of robots one round is then a
    single ``np.take`` through that table; positions, entry ports, and the
    gathering check are recovered afterwards by bulk gathers over the
    stored slot trajectory.
    """

    def __init__(self, csr, rounds: int, d: int):
        self.rounds = rounds
        self.d = d
        self._row = np.asarray(csr.row_offsets, dtype=np.int64)
        self._nbr = np.asarray(csr.neighbor, dtype=np.int64)
        self._ent = np.asarray(csr.entry_port, dtype=np.int64)
        # the fused transition: slot -> the slot of the next rotor move
        self._next_slot = self._row[self._nbr] + (self._ent + 1) % d

    def accepts(self, params: Dict[str, Any], max_rounds: int) -> bool:
        """Whether one replica's scalars stay inside the twin's proof.

        The walk must fit under the timeout: with start round
        ``W = delay + 1`` (0 when undelayed), the terminating activation
        happens at round ``W + rounds``, which the scalar loop only
        reaches while ``W + rounds <= max_rounds``.
        """
        seed = params.get("seed", 0)
        delay = params.get("delay", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            return False
        if not isinstance(delay, int) or isinstance(delay, bool) or delay < 0:
            return False
        start = 0 if delay == 0 else delay + 1
        return start + self.rounds <= max_rounds

    def execute(
        self,
        starts: Sequence[Sequence[int]],
        labels: Sequence[Sequence[int]],
        params_list: Sequence[Dict[str, Any]],
    ) -> List[ReplicaFinal]:
        """Run G replicas of k robots each; one :class:`ReplicaFinal` apiece.

        ``starts``/``labels`` rows are in scheduler (label-sorted) order,
        exactly as the engine's write-back expects them returned.
        """
        T = self.rounds
        d = self.d
        starts2 = np.asarray(starts, dtype=np.int64)
        labels2 = np.asarray(labels, dtype=np.int64)
        G, k = starts2.shape
        seeds = np.asarray([p.get("seed", 0) for p in params_list], dtype=np.int64)
        delays = [p.get("delay", 0) for p in params_list]

        # The hot core: the rotor step is a fixed map on CSR slots, so the
        # whole T×G×k trajectory comes from prefix doubling — rows [m, 2m)
        # are f^m applied to rows [0, m), and f^(2m) is one self-gather of
        # the (tiny) f^m table.  O(log T) array ops gather the same element
        # count a per-round loop would, without 1-call-per-round overhead.
        traj = np.empty((T, G, k), dtype=np.int64)
        traj[0] = self._row[starts2] + (labels2 + seeds[:, None]) % d
        jump = self._next_slot
        m = 1
        while m < T:
            span = min(m, T - m)
            np.take(jump, traj[:span], out=traj[m:m + span])
            m += span
            if m < T:
                jump = jump[jump]  # f^m ∘ f^m = f^(2m)

        # Post-pass: recover positions and the gathering profile in bulk.
        pos_traj = self._nbr[traj]  # (T, G, k) node after the round-t move
        if k == 1:
            gathered = np.ones((T, G), dtype=bool)
        elif k == 2:
            gathered = pos_traj[:, :, 0] == pos_traj[:, :, 1]
        else:
            gathered = pos_traj.min(axis=2) == pos_traj.max(axis=2)  # (T, G)
        got_gathered = gathered.any(axis=0)
        first_t = gathered.argmax(axis=0)
        final_pos = pos_traj[T - 1]
        final_entry = self._ent[traj[T - 1]]
        at_term = gathered[T - 1]

        finals: List[ReplicaFinal] = []
        for g in range(G):
            delay = delays[g]
            start = 0 if delay == 0 else delay + 1
            term = start + T
            if delay and len(set(int(v) for v in starts2[g])) == 1:
                # the sleep round commits with the robots still on their
                # (co-located) start nodes — the scalar path records round 0
                fg: Optional[int] = 0
            elif got_gathered[g]:
                fg = start + int(first_t[g])
            else:
                fg = None
            # active rounds: every move round + the terminate round, plus
            # the round-0 sleep when delayed; sleep gaps fast-forward.
            ar = T + 1 + (1 if delay else 0)
            finals.append(
                ReplicaFinal(
                    pos=[int(v) for v in final_pos[g]],
                    entry=[int(v) for v in final_entry[g]],
                    moves=[T] * k,
                    active_rounds=[ar] * k,
                    terminated_rounds=[term] * k,
                    final_round=term + 1,
                    rounds_executed=ar,
                    first_gather_round=fg,
                    terminations_all_gathered=bool(at_term[g]),
                )
            )
        return finals


class RotorWalkKernel:
    """Array twin of :func:`rotor_walk_factory` (see the module docstring).

    ``shared`` is ``(rounds,)``; per-replica ``params`` are ``seed`` and
    ``delay``.  Supported only on non-empty **regular** graphs — the
    scalar program builds its port tables from the start node's degree, so
    on an irregular graph the twin and the generator would disagree the
    moment a walk crossed a degree boundary; ``plan`` declines instead.
    """

    name = "rotor-walk"

    @classmethod
    def plan(cls, graph, shared: Tuple[Any, ...]) -> Optional[_RotorPlan]:
        """Compile for one graph; ``None`` when the twin cannot be exact."""
        if len(shared) != 1:
            return None
        (rounds,) = shared
        if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds < 1:
            return None
        csr = graph.csr
        deg = csr.degree
        if not deg:
            return None
        d = deg[0]
        if d == 0 or any(x != d for x in deg):
            return None
        return _RotorPlan(csr, rounds, d)


# ---------------------------------------------------------------------------
# Per-process plan memo
# ---------------------------------------------------------------------------

#: Retained compiled plans per process.  Keyed by the (shared, immutable)
#: compiled graph's identity plus the kernel declaration; eviction is FIFO,
#: matching repro.runtime.graph_cache's posture.
_PLAN_MAX = 64
_plans: Dict[Tuple[int, Any, Tuple[Any, ...]], Tuple[Any, Any]] = {}


def plan_for(graph, kernel, shared: Tuple[Any, ...]):
    """The memoized ``kernel.plan(graph, shared)`` (``None`` memoized too).

    A benchmark or campaign constructs many batches over one graph; the
    compiled slot-transition tables are pure functions of ``(graph,
    kernel, shared)``, so they are shared per process.  The cached CSR
    object is held strongly, which keeps its ``id`` valid for the key.
    """
    csr = graph.csr
    key = (id(csr), kernel, shared)
    hit = _plans.get(key)
    if hit is not None and hit[0] is csr:
        return hit[1]
    plan = kernel.plan(graph, shared)
    if len(_plans) >= _PLAN_MAX:
        _plans.pop(next(iter(_plans)))
    _plans[key] = (csr, plan)
    return plan

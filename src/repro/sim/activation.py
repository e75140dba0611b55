"""Pluggable activation models — who gets to act in a round.

The paper proves its bounds in the fully synchronous model: every
non-sleeping robot is activated in every round.  §1.4 names weaker
activation as an "alternative setting"; this module makes the activation
discipline a pluggable policy so scenarios can run the same algorithms
under weaker adversaries and *measure* what breaks.

A model is a small stateful object consulted once per scheduler round: it
receives the label-ordered list of robots that are due to act (awake,
woken, not terminated) and returns the label-ordered subset that actually
acts this round.  Robots left out stay exactly as they are — awake,
unobserved, eligible again next round.  Contract:

* the returned list must be a (not necessarily proper) subset of ``due``
  in the same label order — the scheduler's determinism rests on label
  order;
* it must be **non-empty** whenever ``due`` is non-empty — an adversary
  that stalls every robot forever makes no progress and proves nothing
  (the scheduler raises on a model that violates this);
* it must be deterministic: same construction + same call sequence, same
  selections.  Models may keep per-run state (and therefore must not be
  shared between concurrent schedulers);
* it may read a robot's ``rid``, ``label`` and cold fields (``status``,
  ``card``), not its hot fields: ``node``, ``entry_port``, ``moves`` and
  ``active_rounds`` live in the scheduler's arrays until the run ends
  (see :class:`~repro.sim.robot.RobotState`).

``activation=None`` on the scheduler keeps the native synchronous hot
path with zero per-round overhead; :class:`SynchronousActivation` is the
explicit, behaviourally identical object form (used by the equivalence
tests).  The differential suite pins that the default path is bit-identical
to :class:`repro.sim.reference.ReferenceScheduler`.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "ActivationModel",
    "SynchronousActivation",
    "RoundRobinActivation",
    "AdversarialActivation",
    "RandomActivation",
    "BiasedActivation",
    "ACTIVATION_MODELS",
    "build_activation",
    "activation_names",
]


class ActivationModel:
    """Base class: a per-run activation policy (see the module docstring)."""

    name = "abstract"

    def select(self, due: List[Any], round_: int) -> List[Any]:
        """Return the label-ordered subset of ``due`` that acts this round."""
        raise NotImplementedError

    def describe(self) -> str:
        """One human-readable line for logs and run manifests."""
        return self.name


class SynchronousActivation(ActivationModel):
    """The paper's model: everyone due acts.  Identical to ``activation=None``."""

    name = "sync"

    def select(self, due: List[Any], round_: int) -> List[Any]:
        """Activate every due robot."""
        return due


class RoundRobinActivation(ActivationModel):
    """Semi-synchronous: robots are split into ``groups`` buckets by label
    rank, and the buckets take turns, one per round.

    The turn advances every round the scheduler consults the model.  If the
    bucket whose turn it is has no due robot, the next bucket (cyclically)
    is tried, so the model always activates someone and every robot is
    activated infinitely often — the standard fairness condition.
    """

    name = "round-robin"

    def __init__(self, groups: int = 2):
        if groups < 1:
            raise ValueError("round-robin needs groups >= 1")
        self.groups = groups
        self._turn = 0

    def select(self, due: List[Any], round_: int) -> List[Any]:
        """Activate the first non-empty label-rank bucket, cyclically."""
        groups = self.groups
        turn = self._turn
        self._turn = turn + 1
        if not due:
            return due
        for offset in range(groups):
            bucket = (turn + offset) % groups
            chosen = [r for r in due if r.rid % groups == bucket]
            if chosen:
                return chosen
        return due  # pragma: no cover - some bucket above is non-empty

    def describe(self) -> str:
        """One human-readable line for logs and run manifests."""
        return f"round-robin over {self.groups} label-rank groups"


class AdversarialActivation(ActivationModel):
    """Deterministic adversary: activates the *fewest* robots permitted.

    Every round exactly ``min(budget, len(due))`` robots act — the model's
    minimum, since an empty selection would stall the run.  The adversary
    picks the due robots it has starved the longest (never-activated robots
    first), breaking ties by smaller label; that choice is maximally unfair
    round-to-round while still activating every robot infinitely often, so
    runs remain live and the damage measured is the *activation* damage,
    not a stall.
    """

    name = "adversarial"

    def __init__(self, budget: int = 1):
        if budget < 0:
            raise ValueError(
                "adversarial activation needs budget >= 0 "
                "(0 disarms the adversary: everyone due acts)"
            )
        self.budget = budget
        self._last_activated: Dict[int, int] = {}

    def select(self, due: List[Any], round_: int) -> List[Any]:
        """Activate the ``budget`` robots that have waited the longest."""
        if not due:
            # Explicit no-op: nothing to starve, no bookkeeping to touch.
            return due
        if self.budget == 0 or len(due) <= self.budget:
            # budget=0 is the disarmed adversary — synchronous behaviour,
            # but the starvation ledger still advances so re-arming mid-run
            # (a custom controller swapping budget) stays coherent.
            for r in due:
                self._last_activated[r.label] = round_
            return due
        last = self._last_activated
        ranked = sorted(due, key=lambda r: (last.get(r.label, -1), r.label))
        chosen = ranked[: self.budget]
        for r in chosen:
            last[r.label] = round_
        chosen.sort(key=lambda r: r.label)
        return chosen

    def describe(self) -> str:
        """One human-readable line for logs and run manifests."""
        return f"starve-longest adversary, budget {self.budget}/round"


class RandomActivation(ActivationModel):
    """Seeded stochastic model: each due robot acts with probability ``rate``.

    The schedule fuzzer's exploration workhorse.  A private
    ``random.Random(seed)`` drives every coin flip, so the same
    ``(seed, rate)`` always produces the same interleaving — runs are
    reproducible and cacheable like any deterministic model.  When every
    coin comes up tails the model activates one due robot anyway (chosen by
    the same stream), honouring the non-empty contract.
    """

    name = "random"

    def __init__(self, seed: int = 0, rate: float = 0.5):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("random activation needs 0 <= rate <= 1")
        self.seed = seed
        self.rate = rate
        self._rng = random.Random(seed)

    def select(self, due: List[Any], round_: int) -> List[Any]:
        """Flip a seeded coin per due robot; never return an empty set."""
        if not due:
            return due
        rng = self._rng
        rate = self.rate
        chosen = [r for r in due if rng.random() < rate]
        if not chosen:
            chosen = [due[rng.randrange(len(due))]]
        return chosen

    def describe(self) -> str:
        """One human-readable line for logs and run manifests."""
        return f"seeded coin-flip activation, rate {self.rate}, seed {self.seed}"


class BiasedActivation(ActivationModel):
    """Seeded rich-get-richer adversary: ``budget`` robots act per round,
    sampled with weight ``bias ** activations_so_far``.

    The deterministic :class:`AdversarialActivation` is maximally *fair*
    (starve-longest-first keeps every robot live); this model is its
    stochastic opposite — robots that have already acted a lot are
    exponentially *more* likely to act again, starving the laggards for
    long stretches.  Every due robot keeps positive probability each round,
    so runs stay live with probability 1; the fuzzer bounds them with
    ``max_rounds`` regardless.  Fully deterministic given ``seed``.

    ``budget=0`` disarms the bias (everyone due acts), mirroring the
    adversarial model's convention.  Weight exponents are clamped so long
    runs cannot overflow a float.
    """

    name = "biased"

    def __init__(self, seed: int = 0, budget: int = 1, bias: float = 4.0):
        if budget < 0:
            raise ValueError("biased activation needs budget >= 0")
        if bias <= 0:
            raise ValueError("biased activation needs bias > 0")
        self.seed = seed
        self.budget = budget
        self.bias = bias
        self._rng = random.Random(seed)
        self._counts: Dict[int, int] = {}

    def select(self, due: List[Any], round_: int) -> List[Any]:
        """Sample ``budget`` robots, weighted toward past activations."""
        if not due:
            return due
        counts = self._counts
        if self.budget == 0 or len(due) <= self.budget:
            for r in due:
                counts[r.label] = counts.get(r.label, 0) + 1
            return due
        floor = min(counts.get(r.label, 0) for r in due)
        pool = list(due)
        chosen: List[Any] = []
        for _ in range(self.budget):
            weights = [
                self.bias ** min(counts.get(r.label, 0) - floor, 32) for r in pool
            ]
            x = self._rng.random() * sum(weights)
            pick = len(pool) - 1
            acc = 0.0
            for i, w in enumerate(weights):
                acc += w
                if x < acc:
                    pick = i
                    break
            chosen.append(pool.pop(pick))
        for r in chosen:
            counts[r.label] = counts.get(r.label, 0) + 1
        chosen.sort(key=lambda r: r.label)
        return chosen

    def describe(self) -> str:
        """One human-readable line for logs and run manifests."""
        return (
            f"rich-get-richer adversary, budget {self.budget}/round, "
            f"bias {self.bias}, seed {self.seed}"
        )


def _checked(opts: Dict[str, Any], name: str, allowed: frozenset) -> Dict[str, Any]:
    """Reject unknown option keys: a typo'd option would otherwise run the
    wrong experiment and cache it under the typo'd key."""
    unknown = set(opts) - allowed
    if unknown:
        raise ValueError(
            f"activation {name!r}: unknown options {sorted(unknown)}; "
            f"registered options: {sorted(allowed) or 'none'}"
        )
    return opts


def _build_sync(opts: Dict[str, Any]) -> None:
    _checked(opts, "sync", frozenset())
    return None


def _build_round_robin(opts: Dict[str, Any]) -> RoundRobinActivation:
    _checked(opts, "round-robin", frozenset({"groups"}))
    return RoundRobinActivation(groups=opts.get("groups", 2))


def _build_adversarial(opts: Dict[str, Any]) -> AdversarialActivation:
    _checked(opts, "adversarial", frozenset({"budget"}))
    return AdversarialActivation(budget=opts.get("budget", 1))


def _build_random(opts: Dict[str, Any]) -> RandomActivation:
    _checked(opts, "random", frozenset({"seed", "rate"}))
    return RandomActivation(seed=opts.get("seed", 0), rate=opts.get("rate", 0.5))


def _build_biased(opts: Dict[str, Any]) -> BiasedActivation:
    _checked(opts, "biased", frozenset({"seed", "budget", "bias"}))
    return BiasedActivation(
        seed=opts.get("seed", 0),
        budget=opts.get("budget", 1),
        bias=opts.get("bias", 4.0),
    )


#: ``model name -> builder(options dict)``.  ``"sync"`` builds ``None`` so
#: the scheduler keeps its native (checked-by-differential-tests) hot path.
ACTIVATION_MODELS: Dict[str, Callable[[Dict[str, Any]], Optional[ActivationModel]]] = {
    "sync": _build_sync,
    "round-robin": _build_round_robin,
    "adversarial": _build_adversarial,
    "random": _build_random,
    "biased": _build_biased,
}


def activation_names() -> List[str]:
    """Sorted names of every registered activation model."""
    return sorted(ACTIVATION_MODELS)


def build_activation(
    name: str, options: Optional[Dict[str, Any]] = None
) -> Optional[ActivationModel]:
    """Build a fresh model instance (or ``None`` for the synchronous default).

    Models are stateful per run; call this once per scheduler, never reuse
    the instance across runs.  Unknown model names and unknown option keys
    both raise ``ValueError``.
    """
    if name not in ACTIVATION_MODELS:
        raise ValueError(
            f"unknown activation model {name!r}; registered models: {activation_names()}"
        )
    return ACTIVATION_MODELS[name](dict(options or {}))

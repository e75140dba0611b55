"""Hypothesis strategies shared by the test suite and the schedule fuzzer.

These generators were originally private copies inside individual test
modules (``test_properties``, ``test_fastpath_differential``,
``test_batch_differential``); they live here so the property tests, the
cross-engine differential tests, and :mod:`repro.search`'s fuzz tests all
draw from one vocabulary:

* :func:`random_port_graph` — seeded connected port graphs across the
  library's generator families and port numberings;
* :data:`step_strategy` / :data:`script_strategy` / :func:`scripts` —
  scripted robot programs exercising every scheduler cold path (moves,
  stays, sleeps, wake-on-meet, whiteboard cards, termination);
* :func:`follower_scripts` — whole fleets of such scripts that also follow
  each other (persistent and one-round follows, chains, cycles);
* :func:`scripted_factory` — compile a drawn script into a robot factory;
* :func:`placements` — start nodes for ``k`` robots on a given graph;
* :data:`fault_plan_strategy` — crash/delay tables in the
  :class:`repro.ext.faults.FaultPlan` dict form;
* :func:`activation_strategy` — ``(name, options)`` pairs covering every
  registered activation model with valid option values.

Hypothesis is a ``dev``-extra dependency: this module is imported by tests
and fuzz tooling, never by the production packages.
"""

from __future__ import annotations

try:
    from hypothesis import strategies as st
except ImportError as exc:  # pragma: no cover - dev extra always present in CI
    raise ImportError(
        "repro.testing.strategies needs hypothesis — install the 'dev' extra"
    ) from exc

from repro.graphs import generators as gg
from repro.sim.actions import Action

__all__ = [
    "random_port_graph",
    "step_strategy",
    "script_strategy",
    "scripts",
    "follower_scripts",
    "scripted_factory",
    "placements",
    "fault_plan_strategy",
    "activation_strategy",
]


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------
@st.composite
def random_port_graph(draw, min_n=4, max_n=12):
    """A random connected port graph: seeded family + random numbering."""
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**16))
    numbering = draw(st.sampled_from(["canonical", "random", "reversed", "rotated"]))
    family = draw(st.sampled_from(["ring", "path", "erdos_renyi", "random_tree", "star"]))
    if family == "ring":
        return gg.ring(max(n, 3), numbering=numbering, seed=seed)
    if family == "path":
        return gg.path(n, numbering=numbering, seed=seed)
    if family == "random_tree":
        return gg.random_tree(n, seed=seed, numbering=numbering)
    if family == "star":
        return gg.star(n, numbering=numbering, seed=seed)
    return gg.erdos_renyi(n, seed=seed, numbering=numbering)


# ---------------------------------------------------------------------------
# Scripted robots (the differential suite's activation vocabulary)
# ---------------------------------------------------------------------------
#: One scripted robot step.  Ports/wake delays are drawn wide and reduced
#: modulo the local degree / rebased on the observed round at execution
#: time, so every draw is valid on every graph.
step_strategy = st.one_of(
    st.tuples(st.just("move"), st.integers(0, 7)),
    st.tuples(st.just("stay")),
    st.tuples(st.just("sleep"), st.integers(0, 9)),
    st.tuples(st.just("sleep_meet"), st.integers(0, 9)),
    st.tuples(st.just("card"), st.integers(0, 3)),
)


def scripts(min_size: int = 1, max_size: int = 10):
    """A strategy for one robot script of ``min_size..max_size`` steps."""
    return st.lists(step_strategy, min_size=min_size, max_size=max_size)


#: The historical default script shape (up to 10 steps).
script_strategy = scripts()


def follower_scripts(k: int, max_size: int = 10):
    """A strategy for the scripts of ``k >= 2`` robots labeled ``1..k``.

    Steps are :data:`step_strategy`'s plus follows, each targeting another
    robot's label: persistent ``follow`` (untimed, or timed by a delay
    rebased like a sleep's; ``on_leader_terminate`` ``"terminate"`` or
    ``"wake"``) and one-round ``follow_once``.  Targets need not be
    co-located, so run these with ``strict=False``.
    """

    def script(label: int):
        others = st.sampled_from([t for t in range(1, k + 1) if t != label])
        follow = st.one_of(
            st.tuples(
                st.just("follow"),
                others,
                st.none() | st.integers(0, 9),
                st.sampled_from(["terminate", "wake"]),
            ),
            st.tuples(st.just("follow_once"), others),
        )
        return st.lists(st.one_of(step_strategy, follow), min_size=1, max_size=max_size)

    return st.tuples(*(script(label) for label in range(1, k + 1))).map(list)


def scripted_factory(script):
    """Compile a drawn script into a robot factory (terminates at the end).

    A persistent follow suspends the script until the follower wakes (its
    timer, or its leader terminating in ``"wake"`` mode); in
    ``"terminate"`` mode the leader's termination ends it.
    """

    def factory(ctx):
        def program():
            obs = yield
            for step in script:
                kind = step[0]
                if kind == "move":
                    obs = yield Action.move(step[1] % obs.degree)
                elif kind == "stay":
                    obs = yield Action.stay()
                elif kind == "sleep":
                    obs = yield Action.sleep(obs.round + 1 + step[1])
                elif kind == "sleep_meet":
                    obs = yield Action.sleep(obs.round + 1 + step[1], wake_on_meet=True)
                elif kind == "card":
                    obs = yield Action.stay(card={"v": step[1]})
                elif kind == "follow":
                    until = None if step[2] is None else obs.round + 1 + step[2]
                    obs = yield Action.follow(
                        step[1], until_round=until, on_leader_terminate=step[3]
                    )
                elif kind == "follow_once":
                    obs = yield Action.follow_once(step[1])
            yield Action.terminate()

        return program()

    return factory


# ---------------------------------------------------------------------------
# Placements
# ---------------------------------------------------------------------------
def placements(graph, k: int):
    """Start nodes for ``k`` robots on ``graph`` (co-location allowed)."""
    return st.lists(st.integers(0, graph.n - 1), min_size=k, max_size=k)


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------
#: Crash/delay tables in :meth:`repro.ext.faults.FaultPlan.from_dict` form.
#: Indices are drawn wide; callers clamp to their fleet size (``i < k``).
fault_plan_strategy = st.builds(
    lambda crash, delay: {"crash": crash, "delay": delay},
    st.dictionaries(st.integers(0, 3), st.integers(0, 12), max_size=3),
    st.dictionaries(st.integers(0, 3), st.integers(0, 8), max_size=3),
)


# ---------------------------------------------------------------------------
# Activation models
# ---------------------------------------------------------------------------
def activation_strategy():
    """``(name, options)`` pairs valid for :func:`repro.sim.activation.
    build_activation`, covering every registered model."""
    return st.one_of(
        st.tuples(st.just("sync"), st.just({})),
        st.tuples(
            st.just("round-robin"),
            st.fixed_dictionaries({"groups": st.integers(1, 4)}),
        ),
        st.tuples(
            st.just("adversarial"),
            st.fixed_dictionaries({"budget": st.integers(0, 3)}),
        ),
        st.tuples(
            st.just("random"),
            st.fixed_dictionaries(
                {
                    "seed": st.integers(0, 2**16),
                    "rate": st.sampled_from([0.25, 0.5, 0.75]),
                }
            ),
        ),
        st.tuples(
            st.just("biased"),
            st.fixed_dictionaries(
                {
                    "seed": st.integers(0, 2**16),
                    "budget": st.integers(1, 2),
                    "bias": st.sampled_from([2.0, 4.0, 8.0]),
                }
            ),
        ),
    )

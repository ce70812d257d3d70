"""``TreePolicy.ranked_candidates`` against a reference built from the
cost-benefit equations.

The policy prices depth-1 candidates with terms the engine derives once
per round (``PrefetchContext``), and skips a node's scan when its
``max_child_weight`` shows that no child clears the probability floor.
The reference scans every child ``iter_relevant_children`` yields and
prices each with :func:`costbenefit.benefit`,
:func:`costbenefit.prefetch_overhead` and
:func:`costbenefit.min_profitable_probability`; the two must agree
exactly, on plain, budgeted, snapshot-restored and overlay trees, at any
``s`` and ``T_cpu``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import costbenefit as cb
from repro.core.candidates import best_candidates
from repro.core.tree import PrefetchTree
from repro.params import PAPER_PARAMS
from repro.policies.tree import TreePolicy
from repro.sim.engine import PrefetchContext, Simulator
from repro.tenancy.overlay import OverlayTree

def make_stream(seed, length, hot):
    """``length`` blocks, half of them from ``hot`` hot blocks (edges that
    clear the floor) when ``hot`` > 0, the rest from 400 cold ones (enough
    distinct substring starts to give the root a hub index, whose scan is
    skipped while no hot block leads it)."""
    rng = random.Random(seed)
    return [
        rng.randrange(hot) if hot and rng.random() < 0.5 else rng.randrange(400)
        for _ in range(length)
    ]


streams = st.builds(make_stream, st.integers(0, 2**32), st.integers(1, 1500),
                    st.integers(0, 5))
#: Per-period compute from far below T_disk (deep path) to the paper's.
t_cpus = st.one_of(st.sampled_from([2.0, 14.0, 14.5, 15.0, 50.0]),
                   st.floats(0.0, 700.0))
rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 64.0))


def reference_ranked(policy, params, s):
    """Every relevant child priced by the equations, best first."""
    tree = policy.tree
    cur = tree.current
    depth = min(policy.max_depth, cb.prefetch_horizon(params, s))
    if depth > 1:
        ranked = []
        for cand in best_candidates(
            tree,
            max_depth=depth,
            max_candidates=policy.max_candidates,
            min_probability=policy.min_probability,
        ):
            p, p_x = cand.probability, cand.parent_probability
            net = (cb.benefit(params, p, p_x, cand.depth, s)
                   - cb.prefetch_overhead(params, p, p_x))
            if net > 0.0:
                ranked.append((net, p, p_x, cand.depth, cand.block))
        ranked.sort(key=lambda item: -item[0])
        return ranked
    if cur.weight <= 0 or not cur.has_children():
        return []
    floor = max(policy.min_probability,
                cb.min_profitable_probability(params, s))
    ranked = []
    for block, child in tree.iter_relevant_children(cur):
        p = child.weight / cur.weight
        if p <= floor:
            continue
        net = cb.benefit(params, p, 1.0, 1, s) - cb.prefetch_overhead(
            params, p, 1.0)
        ranked.append((net, p, 1.0, 1, block))
    ranked.sort(key=lambda item: -item[0])
    return ranked[: policy.max_candidates]


def check_stream(tree, stream, t_cpu, s):
    """Feed ``stream`` to ``tree``, comparing policy and reference at
    every parse position."""
    params = PAPER_PARAMS.with_t_cpu(t_cpu)
    policy = TreePolicy()
    sim = Simulator(params, policy, 64)
    policy.replace_model(tree)
    ctx = PrefetchContext(sim)
    ctx.begin(s)
    assert ctx.prefetch_horizon == cb.prefetch_horizon(params, s)
    assert ctx.delta_t_pf1 == cb.delta_t_pf(params, 1, s)
    assert ctx.min_profitable_p == cb.min_profitable_probability(params, s)
    for block in stream:
        tree.record_access(block)
        # The policy scans first: the reference then sees the same
        # relevant-children index, rebuilt or not.
        got = policy.ranked_candidates(ctx)
        assert got == reference_ranked(policy, params, s)
    tree.check_invariants()


@given(streams, t_cpus, rates)
@settings(max_examples=60, deadline=None)
def test_plain_tree(stream, t_cpu, s):
    check_stream(PrefetchTree(), stream, t_cpu, s)


@given(streams, st.integers(1, 40), t_cpus, rates)
@settings(max_examples=60, deadline=None)
def test_budgeted_tree(stream, budget, t_cpu, s):
    check_stream(PrefetchTree(max_nodes=budget), stream, t_cpu, s)


@given(streams, streams, t_cpus, rates)
@settings(max_examples=30, deadline=None)
def test_restored_tree(trained, stream, t_cpu, s):
    original = PrefetchTree()
    original.record_all(trained)
    restored = PrefetchTree()
    restored.restore_state(*original.snapshot_state())
    restored.check_invariants()
    check_stream(restored, stream, t_cpu, s)


@given(streams, streams, t_cpus, rates)
@settings(max_examples=30, deadline=None)
def test_overlay_tree(trained, stream, t_cpu, s):
    base = PrefetchTree()
    base.record_all(trained)
    overlay = OverlayTree(base)
    half = len(stream) // 2
    check_stream(overlay, stream[:half], t_cpu, s)
    # A restored delta must bound its merged children as well.
    resumed = OverlayTree(base)
    resumed.restore_state(*overlay.snapshot_state())
    resumed.check_invariants()
    check_stream(resumed, stream[half:], t_cpu, s)

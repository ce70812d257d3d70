"""The *tree* policy: predictive prefetching with cost-benefit analysis.

This is the paper's primary contribution (Sections 4-7).  Each access
period:

1. candidates are drawn from the prefetch tree below the current parse
   position;
2. each candidate's benefit ``B(b)`` (Eq. 1) net of the misprediction
   overhead ``T_oh`` (Eq. 14) is computed and candidates are ranked by it;
3. candidates are proposed in rank order; the engine prefetches one while
   its net benefit covers the cheapest eviction's cost (Eqs. 11/13) and the
   round stops at the first cost rejection, mirroring the "repeat until the
   cost exceeds the benefit" loop of Section 7.

Candidate enumeration is bounded by the *prefetch horizon*: for depths
``d`` with ``d - 1 >= horizon`` both ``dT_pf(d)`` and ``dT_pf(d-1)``
saturate at ``T_disk``, so ``B = (p_b - p_x) * T_disk <= 0`` - deeper
candidates can never win.  With the paper's constants (``T_cpu = 50 ms``
against ``T_disk = 15 ms``) the horizon is 1 and the candidate set is just
the current node's children, which also makes the simulator fast; the
general best-first path expansion kicks in automatically when ``T_cpu`` is
small enough for deeper prefetching to pay (Section 9.2.3's sweep).
"""

from __future__ import annotations

from typing import List, Tuple, TYPE_CHECKING

from repro.core import costbenefit
from repro.core.candidates import best_candidates
from repro.policies.base import TreeBackedPolicy
from repro.sim.engine import IssueStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import PrefetchContext

#: Candidate tuple: (net_benefit, probability, parent_probability, depth, block)
RankedCandidate = Tuple[float, float, float, int, object]


class TreePolicy(TreeBackedPolicy):
    """Prefetch-tree candidates gated by the Section 7 cost-benefit rule."""

    name = "tree"

    def ranked_candidates(self, ctx: "PrefetchContext") -> List[RankedCandidate]:
        """Candidates with positive net benefit, best first."""
        effective_depth = min(self.max_depth, ctx.prefetch_horizon)
        if effective_depth <= 1:
            return self._depth1_candidates(ctx)

        params = ctx.params
        s = ctx.s

        ranked: List[RankedCandidate] = []
        for cand in best_candidates(
            self.tree,
            max_depth=effective_depth,
            max_candidates=self.max_candidates,
            min_probability=self.min_probability,
        ):
            net = costbenefit.benefit(
                params, cand.probability, cand.parent_probability, cand.depth, s
            ) - costbenefit.prefetch_overhead(
                params, cand.probability, cand.parent_probability
            )
            if net > 0.0:
                ranked.append(
                    (net, cand.probability, cand.parent_probability, cand.depth,
                     cand.block)
                )
        ranked.sort(key=lambda item: -item[0])
        return ranked

    def _depth1_candidates(self, ctx: "PrefetchContext") -> List[RankedCandidate]:
        """Fast path: only the current node's children can be profitable.

        A child is ranked when its probability clears the floor
        ``max(min_probability, p*)``.  The node's ``max_child_weight``
        bounds every child's weight and float division is monotone, so
        when ``max_child_weight / weight`` does not clear the floor no
        child can, and the scan is skipped.  That is the common case at
        the root, which collects a child per distinct substring-starting
        block.  The skip comes after ``iter_relevant_children`` so a hub
        node's index activates and rebuilds exactly as if it had scanned.
        """
        cur = self.tree.current
        weight = cur.weight
        if weight <= 0 or not cur.has_children():
            return []
        saved = ctx.delta_t_pf1
        if saved <= 0.0:
            return []
        floor = max(self.min_probability, ctx.min_profitable_p)
        children = self.tree.iter_relevant_children(cur)
        if cur.max_child_weight / weight <= floor:
            return []
        t_driver = ctx.params.t_driver
        ranked: List[RankedCandidate] = []
        for block, child in children:
            p = child.weight / weight
            if p <= floor:
                continue
            net = p * saved - (1.0 - p) * t_driver
            ranked.append((net, p, 1.0, 1, block))
        ranked.sort(key=lambda item: -item[0])
        if len(ranked) > self.max_candidates:
            del ranked[self.max_candidates :]
        return ranked

    def prefetch_round(self, ctx: "PrefetchContext") -> None:
        for net, p_b, p_x, depth, block in self.ranked_candidates(ctx):
            status = ctx.try_issue(block, p_b, p_x, depth, net=net)
            if status is IssueStatus.REJECTED_COST:
                # Section 7 step 4: once the cheapest eviction costs more
                # than the best remaining benefit, stop prefetching.
                break
            if status is IssueStatus.NO_CAPACITY:
                break

"""*informed*: Patterson's informed prefetching (TIP) with perfect hints.

The paper's cost-benefit analysis "is based on Patterson's informed
prefetching scheme [14, 15, 18]" where applications disclose an ordered
list of the blocks they will access.  All hinted blocks are eventually
accessed, so the probabilistic terms of the paper's equations collapse:
``p_b = p_x = 1`` and the misprediction overhead ``T_oh`` is zero.  The
benefit of prefetching one access deeper (Eq. 1) becomes Patterson's

    B(d) = dT_pf(d) - dT_pf(d - 1)

which is positive exactly up to the prefetch horizon, and the eviction
costs (Eqs. 11/13) apply unchanged.

In the simulator, the "application hints" are the trace itself: this policy
is the deterministic upper reference point against which the predictive
tree is judged - it shows how much of the prefetching opportunity is lost
to *prediction* (the tree may guess wrong) as opposed to *selection* (the
perfect-selector oracle bounds that part).

The hint stream is consumed lazily: a cursor tracks the first unconsumed
hint, prefetching walks ahead of the cursor up to the prefetch horizon, and
each actual access advances the cursor (hints describe the access sequence,
so the next access always matches the cursor).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, TYPE_CHECKING

from repro.cache.buffer_cache import BufferCache, Location
from repro.policies.base import Policy
from repro.sim.engine import IssueStatus
from repro.sim.stats import SimulationStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import PrefetchContext, Simulator

Block = Hashable

HINT_TAG = "hint"


class InformedPolicy(Policy):
    """TIP-style prefetching from a deterministic hint list.

    Parameters
    ----------
    hints:
        The ordered future access list.  If omitted, the policy reads the
        engine's trace at setup (perfect self-hinting), which is the
        normal reproduction configuration.
    lookahead_slack:
        How many accesses beyond the prefetch horizon the policy may work
        ahead.  Deterministic hints lose nothing by fetching slightly
        early as long as eviction costs permit; the cost comparison is
        still consulted for every fetch.
    max_lookahead:
        Hard cap on the pipeline depth, regardless of the horizon.  Used
        by the model-validation bench to pin the prefetch distance and
        compare measured stalls against Eq. 6.
    """

    name = "informed"

    def __init__(
        self,
        hints: Optional[Sequence[Block]] = None,
        *,
        lookahead_slack: int = 4,
        max_lookahead: Optional[int] = None,
    ) -> None:
        if lookahead_slack < 0:
            raise ValueError(
                f"lookahead_slack must be >= 0, got {lookahead_slack!r}"
            )
        if max_lookahead is not None and max_lookahead < 1:
            raise ValueError(
                f"max_lookahead must be >= 1, got {max_lookahead!r}"
            )
        super().__init__()
        self._explicit_hints = list(hints) if hints is not None else None
        self.hints: List[Block] = self._explicit_hints or []
        self.lookahead_slack = lookahead_slack
        self.max_lookahead = max_lookahead
        self.cursor = 0
        self.hint_mismatches = 0

    def on_run_start(self, trace) -> None:
        # With no explicit hints, self-hint from the trace the engine is
        # about to replay (perfect disclosure).
        if self._explicit_hints is None:
            self.hints = list(trace)

    def observe(
        self,
        block: Block,
        period: int,
        location: Location,
        cache: BufferCache,
        stats: SimulationStats,
    ) -> None:
        if self.cursor < len(self.hints) and self.hints[self.cursor] == block:
            self.cursor += 1
        else:
            # Access not matching the hint stream (possible only with
            # explicit, imperfect hints): re-sync by searching forward a
            # short window, else count a mismatch and stay put.
            for ahead in range(1, 9):
                idx = self.cursor + ahead
                if idx < len(self.hints) and self.hints[idx] == block:
                    self.cursor = idx + 1
                    break
            else:
                self.hint_mismatches += 1

    def prefetch_round(self, ctx: "PrefetchContext") -> None:
        horizon = ctx.prefetch_horizon
        max_depth = horizon + self.lookahead_slack
        if self.max_lookahead is not None:
            max_depth = min(max_depth, self.max_lookahead)
        hints = self.hints
        n = len(hints)
        idx = self.cursor
        depth = 1
        while idx < n and depth <= max_depth:
            block = hints[idx]
            # Deterministic benefit: p_b = p_x = 1 at this depth.
            effective = min(depth, horizon)
            status = ctx.try_issue(block, 1.0, 1.0, effective, tag=HINT_TAG)
            if status is IssueStatus.REJECTED_COST:
                break
            if status is IssueStatus.NO_CAPACITY:
                break
            idx += 1
            depth += 1

    def snapshot_extra(self, stats: SimulationStats) -> None:
        stats.extra["hint_mismatches"] = self.hint_mismatches
        stats.extra["hints_consumed"] = self.cursor

"""*tree-filtered*: the tree policy plus a misprediction filter (extension).

Section 9.2.2 observes that the basic tree scheme's prefetch-cache hit rate
is low for most traces and says: "we are working on strategies to reduce
the number of blocks prefetched by eliminating mispredicted blocks";
Section 9.6 likewise leaves "bridging the gap between the tree and the
perfect-selector prefetching schemes" as future work.  This policy is our
implementation of that direction.

Mechanism: the policy remembers each block it prefetches.  If the block is
referenced within a grace window, the prediction *succeeded*; if the window
expires first, it *failed*.  A per-block reliability score (EWMA of
successes) gates future prefetches: blocks whose predictions keep failing
are suppressed until their score recovers.  This is per-block selection
feedback the pure probability tree cannot express - two blocks with equal
edge probability can have very different realised usefulness because the
probability is conditioned only on the current node, not on how the
pattern actually continues.

Everything else (candidate generation, cost-benefit gate, eviction) is
inherited from :class:`~repro.policies.tree.TreePolicy`, so head-to-head
differences against *tree* isolate the filter's effect (see
``benchmarks/bench_extension_filtered.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, List, Tuple, TYPE_CHECKING

from repro.cache.buffer_cache import BufferCache, Location
from repro.policies.tree import RankedCandidate, TreePolicy
from repro.sim.engine import IssueStatus
from repro.sim.stats import SimulationStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import PrefetchContext

Block = Hashable


class TreeFilteredPolicy(TreePolicy):
    """Cost-benefit tree prefetching with per-block reliability feedback.

    Parameters
    ----------
    grace_periods:
        How many access periods a prefetched block has to be referenced
        before the prediction counts as failed.
    score_alpha:
        EWMA weight of the newest outcome in the per-block score.
    suppress_below:
        Candidates whose score is below this (after at least
        ``min_outcomes`` observations) are skipped.
    min_outcomes:
        Outcomes required before the filter may suppress a block.
    """

    name = "tree-filtered"

    def __init__(
        self,
        *,
        grace_periods: int = 16,
        score_alpha: float = 0.3,
        suppress_below: float = 0.2,
        min_outcomes: int = 3,
        **tree_kwargs,
    ) -> None:
        if grace_periods < 1:
            raise ValueError(f"grace_periods must be >= 1, got {grace_periods!r}")
        if not (0.0 < score_alpha <= 1.0):
            raise ValueError(f"score_alpha must be in (0, 1], got {score_alpha!r}")
        if not (0.0 <= suppress_below <= 1.0):
            raise ValueError(
                f"suppress_below must be in [0, 1], got {suppress_below!r}"
            )
        if min_outcomes < 1:
            raise ValueError(f"min_outcomes must be >= 1, got {min_outcomes!r}")
        super().__init__(**tree_kwargs)
        self.grace_periods = grace_periods
        self.score_alpha = score_alpha
        self.suppress_below = suppress_below
        self.min_outcomes = min_outcomes
        # block -> (score EWMA, outcome count)
        self._scores: Dict[Block, Tuple[float, int]] = {}
        # Outstanding predictions awaiting confirmation, FIFO by deadline.
        self._pending: Deque[Tuple[int, Block]] = deque()
        self._pending_blocks: Dict[Block, int] = {}
        self.suppressed = 0

    # ---------------------------------------------------------- feedback

    def _record_outcome(self, block: Block, success: bool) -> None:
        score, count = self._scores.get(block, (1.0, 0))
        score += self.score_alpha * ((1.0 if success else 0.0) - score)
        self._scores[block] = (score, count + 1)

    def _expire_pending(self, period: int) -> None:
        while self._pending and self._pending[0][0] <= period:
            _, block = self._pending.popleft()
            if self._pending_blocks.get(block) is not None:
                del self._pending_blocks[block]
                self._record_outcome(block, success=False)

    def _is_suppressed(self, block: Block) -> bool:
        entry = self._scores.get(block)
        if entry is None:
            return False
        score, count = entry
        return count >= self.min_outcomes and score < self.suppress_below

    # ----------------------------------------------------------- hooks

    def observe(
        self,
        block: Block,
        period: int,
        location: Location,
        cache: BufferCache,
        stats: SimulationStats,
    ) -> None:
        self._expire_pending(period)
        if block in self._pending_blocks:
            del self._pending_blocks[block]
            self._record_outcome(block, success=True)
        super().observe(block, period, location, cache, stats)

    def ranked_candidates(self, ctx: "PrefetchContext") -> List[RankedCandidate]:
        ranked = super().ranked_candidates(ctx)
        kept: List[RankedCandidate] = []
        for cand in ranked:
            if self._is_suppressed(cand[4]):
                self.suppressed += 1
            else:
                kept.append(cand)
        return kept

    def prefetch_round(self, ctx: "PrefetchContext") -> None:
        assert self.engine is not None
        period = self.engine.period
        for net, p_b, p_x, depth, block in self.ranked_candidates(ctx):
            status = ctx.try_issue(block, p_b, p_x, depth, net=net)
            if status is IssueStatus.ISSUED and block not in self._pending_blocks:
                deadline = period + self.grace_periods
                self._pending.append((deadline, block))
                self._pending_blocks[block] = deadline
            if status in (IssueStatus.REJECTED_COST, IssueStatus.NO_CAPACITY):
                break

    def snapshot_extra(self, stats: SimulationStats) -> None:
        super().snapshot_extra(stats)
        stats.extra["filter_suppressed"] = self.suppressed
        stats.extra["filter_tracked_blocks"] = len(self._scores)

    def aux_state(self) -> dict:
        # _pending may hold expired entries whose block was since
        # re-prefetched (the dict is authoritative); both structures are
        # captured verbatim so expiry order replays identically.
        return {
            "scores": [
                [block, score, count]
                for block, (score, count) in self._scores.items()
            ],
            "pending": [[deadline, block] for deadline, block in self._pending],
            "pending_blocks": [
                [block, deadline]
                for block, deadline in self._pending_blocks.items()
            ],
            "suppressed": self.suppressed,
        }

    def restore_aux_state(self, state: dict) -> None:
        self._scores = {
            block: (score, count) for block, score, count in state["scores"]
        }
        self._pending = deque(
            (deadline, block) for deadline, block in state["pending"]
        )
        self._pending_blocks = {
            block: deadline for block, deadline in state["pending_blocks"]
        }
        self.suppressed = state["suppressed"]

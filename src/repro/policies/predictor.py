"""Generic cost-benefit policy over any pluggable predictor.

Runs the paper's Section 7 decision loop - rank candidates by net benefit,
prefetch while the benefit clears the cheapest eviction cost - with the
candidate probabilities supplied by an arbitrary
:class:`~repro.predictors.base.Predictor` instead of the LZ tree.  This
separates *prediction quality* from the rest of the machinery, enabling
the predictor-comparison study in ``benchmarks/bench_predictors.py``
(LZ tree vs PPM vs probability graph vs Markov vs last-successor, all
under identical caching and cost rules).

Policy names are ``cb-<predictor>`` ("cost-benefit over <predictor>"),
e.g. ``cb-ppm``.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple, TYPE_CHECKING

from repro.cache.buffer_cache import BufferCache, Location
from repro.policies.base import Policy
from repro.predictors.base import Predictor
from repro.sim.engine import IssueStatus
from repro.sim.stats import SimulationStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import PrefetchContext

Block = Hashable


class PredictorPolicy(Policy):
    """Cost-benefit prefetching from an arbitrary predictor's depth-1 set."""

    def __init__(self, predictor: Predictor, *, max_candidates: int = 32) -> None:
        if max_candidates < 1:
            raise ValueError(
                f"max_candidates must be >= 1, got {max_candidates!r}"
            )
        super().__init__()
        self.predictor = predictor
        self.max_candidates = max_candidates
        self.name = f"cb-{predictor.name}"

    def observe(
        self,
        block: Block,
        period: int,
        location: Location,
        cache: BufferCache,
        stats: SimulationStats,
    ) -> None:
        predicted = self.predictor.update(block)
        if predicted:
            stats.predictable_accesses += 1
            if location is Location.MISS:
                stats.predictable_uncached += 1

    def prefetch_round(self, ctx: "PrefetchContext") -> None:
        saved = ctx.delta_t_pf1
        if saved <= 0.0:
            return
        floor = ctx.min_profitable_p
        t_driver = ctx.params.t_driver
        ranked: List[Tuple[float, float, Block]] = []
        for block, p in self.predictor.predictions():
            if p <= floor:
                continue
            # Eq. 1 net of Eq. 14 at depth 1 (p_x = 1, p <= 1).
            net = p * saved - (1.0 - p) * t_driver
            ranked.append((net, p, block))
        ranked.sort(key=lambda item: -item[0])
        for net, p, block in ranked[: self.max_candidates]:
            status = ctx.try_issue(block, p, 1.0, 1, net=net)
            if status in (IssueStatus.REJECTED_COST, IssueStatus.NO_CAPACITY):
                break

    def model(self):
        return self.predictor

    def snapshot_extra(self, stats: SimulationStats) -> None:
        stats.extra["predictor"] = self.predictor.name
        stats.extra["predictor_memory_items"] = self.predictor.memory_items()

"""Core algorithms: the prefetch tree and the cost-benefit model."""

from repro.core.candidates import Candidate, best_candidates, iter_candidates
from repro.core.costbenefit import (
    INFINITE_COST,
    benefit,
    cost_demand_eviction,
    cost_prefetch_eviction,
    delta_t_pf,
    prefetch_horizon,
    prefetch_overhead,
    t_stall,
)
from repro.core.estimators import (
    EwmaRate,
    PrefetchRateEstimator,
)
from repro.core.node import TreeNode
from repro.core.tree import (
    PAPER_NODE_BYTES,
    PAPER_NODE_BYTES_COMPACT,
    AccessOutcome,
    PrefetchTree,
    TreeStats,
)

__all__ = [
    "AccessOutcome",
    "Candidate",
    "EwmaRate",
    "INFINITE_COST",
    "PAPER_NODE_BYTES",
    "PAPER_NODE_BYTES_COMPACT",
    "PrefetchRateEstimator",
    "PrefetchTree",
    "TreeNode",
    "TreeStats",
    "benefit",
    "best_candidates",
    "cost_demand_eviction",
    "cost_prefetch_eviction",
    "delta_t_pf",
    "iter_candidates",
    "prefetch_horizon",
    "prefetch_overhead",
    "t_stall",
]

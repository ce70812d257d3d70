"""The paper's cost-benefit equations (Sections 5-7).

All functions are pure and expressed in the paper's units (milliseconds and
"bufferage" = buffer-seconds per access period), so they can be unit-tested
directly against hand computations and used unchanged by every policy.

Summary of the model:

* ``t_stall(d)`` (Eq. 6) -- expected CPU stall per block when a prefetch is
  issued ``d`` access periods ahead, given the per-period computation
  ``T_cpu + T_hit + s*T_driver``.
* ``delta_t_pf(d)`` (Eq. 2) -- time saved vs a demand fetch; 0 at depth 0.
* ``benefit(...)`` (Eq. 1) -- value of dedicating one buffer to prefetching
  one access deeper: ``p_b*dT(d_b) - p_x*dT(d_b - 1)``.
* ``cost_prefetch_eviction(...)`` (Eq. 11) -- cost of ejecting a
  not-yet-referenced block from the prefetch cache.
* ``cost_demand_eviction(...)`` (Eq. 13) -- cost of shrinking the LRU demand
  cache by one buffer, driven by the marginal hit rate ``H(n) - H(n-1)``.
* ``prefetch_overhead(...)`` (Eq. 14) -- driver time wasted on blocks that
  will never be referenced.
* ``prefetch_horizon(...)`` -- Patterson's distance beyond which a prefetch
  is fully overlapped (``t_stall == 0``); used for the re-prefetch distance
  ``x`` in Eq. 11, which the paper leaves open (see DESIGN.md Section 5).

Section 7's rule itself -- prefetch while ``B(b) - T_oh`` is positive and
covers the cheapest buffer's eviction cost -- is applied by the engine, in
:meth:`repro.sim.engine.PrefetchContext.try_issue`.
"""

from __future__ import annotations

import math

from repro.params import SystemParams

#: Cost returned for eviction candidates that must not be evicted (e.g. a
#: prefetched block that is due within the re-prefetch distance).
INFINITE_COST = math.inf


def per_period_compute(params: SystemParams, s: float) -> float:
    """CPU time per access period with ``s`` prefetches issued (Eq. 3 term)."""
    return params.access_period_compute(s)


def t_stall(params: SystemParams, depth: int, s: float) -> float:
    """Expected stall time for a block prefetched ``depth`` periods ahead.

    Eq. 6: ``max(T_disk/d - (T_hit + T_cpu + s*T_driver), 0)`` for ``d > 0``;
    a depth of 0 is a demand fetch and stalls for the full ``T_disk``.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth!r}")
    if depth == 0:
        return params.t_disk
    return max(params.t_disk / depth - per_period_compute(params, s), 0.0)


def delta_t_pf(params: SystemParams, depth: int, s: float) -> float:
    """Time saved by prefetching at ``depth`` vs demand fetching (Eq. 2).

    ``T_disk - T_stall(d)``; 0 at depth 0 by definition.
    """
    if depth == 0:
        return 0.0
    return params.t_disk - t_stall(params, depth, s)


def benefit(
    params: SystemParams,
    p_b: float,
    p_x: float,
    depth: int,
    s: float,
) -> float:
    """Benefit of allocating one buffer to prefetch one access deeper (Eq. 1).

    ``B(b) = p_b * dT_pf(b, d_b) - p_x * dT_pf(x, d_b - 1)`` where ``x`` is
    the path parent of ``b``.  Bufferage is 1 (one buffer for one period), so
    the division by bufferage is a no-op.
    """
    _validate_probs(p_b, p_x)
    if depth < 1:
        raise ValueError(f"depth must be >= 1 for a prefetch, got {depth!r}")
    return p_b * delta_t_pf(params, depth, s) - p_x * delta_t_pf(params, depth - 1, s)


def prefetch_overhead(params: SystemParams, p_b: float, p_x: float) -> float:
    """Driver overhead attributable to mispredicted prefetches (Eq. 14).

    ``T_oh = (1 - p_b/p_x) * T_driver``: the probability that the parent is
    reached but ``b`` is not, times the cost of having issued the request.
    """
    _validate_probs(p_b, p_x)
    if p_x <= 0.0:
        return params.t_driver
    ratio = min(p_b / p_x, 1.0)
    return (1.0 - ratio) * params.t_driver


def prefetch_horizon(params: SystemParams, s: float) -> int:
    """Smallest depth at which a prefetch is fully overlapped.

    The depth ``d`` where ``T_disk / d <= T_hit + T_cpu + s*T_driver``, i.e.
    ``t_stall(d) == 0`` (Patterson's prefetch horizon).  Always >= 1.
    """
    compute = per_period_compute(params, s)
    if compute <= 0.0:
        # Degenerate all-I/O workload: no overlap is ever free.
        return max(1, math.ceil(params.t_disk / max(params.t_hit, 1e-9)))
    return max(1, math.ceil(params.t_disk / compute))


def cost_prefetch_eviction(
    params: SystemParams,
    p_b: float,
    depth: int,
    s: float,
    refetch_distance: int | None = None,
) -> float:
    """Cost of ejecting block ``b`` from the prefetch cache (Eq. 11).

    ``C_pr(b) = p_b * (T_driver + T_stall(x)) / (d_b - x)`` where ``d_b`` is
    the block's current distance in the tree and ``x`` the distance at which
    it would be re-prefetched.  We take ``x = min(d_b - 1, horizon)`` unless
    given; when ``d_b <= x`` there is no bufferage to recover, so eviction is
    vetoed with :data:`INFINITE_COST`.
    """
    if not (0.0 <= p_b <= 1.0 + 1e-12):
        raise ValueError(f"p_b out of range: {p_b!r}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth!r}")
    if refetch_distance is None:
        refetch_distance = min(depth - 1, prefetch_horizon(params, s))
    if refetch_distance < 0:
        refetch_distance = 0
    bufferage = depth - refetch_distance
    if bufferage <= 0:
        return INFINITE_COST
    # t_stall(0) == t_disk: a re-fetch at distance 0 is a full demand stall.
    refetch_penalty = params.t_driver + t_stall(params, refetch_distance, s)
    return p_b * refetch_penalty / bufferage


def cost_demand_eviction(params: SystemParams, marginal_hit_rate: float) -> float:
    """Cost of shrinking the demand cache by one buffer (Eq. 13).

    ``C_dc(n) = (H(n) - H(n-1)) * (T_driver + T_disk)``; the marginal hit
    rate is estimated online from LRU stack distances
    (:meth:`repro.cache.ghost.StackDistanceProfiler.recent_marginal_rate`).
    :meth:`repro.cache.buffer_cache.BufferCache.demand_eviction_cost`
    computes the same product in one frame; this function is its reference.
    """
    if marginal_hit_rate < 0.0:
        raise ValueError(
            f"marginal_hit_rate must be >= 0, got {marginal_hit_rate!r}"
        )
    return marginal_hit_rate * (params.t_driver + params.t_disk)


def min_profitable_probability(params: SystemParams, s: float) -> float:
    """Smallest depth-1 probability with non-negative net benefit.

    At depth 1 the net benefit is ``p*dT_pf(1) - (1-p)*T_driver``; solving
    for zero gives ``p = T_driver / (dT_pf(1) + T_driver)``.  Candidates
    below this probability can be pruned before any cost comparison.
    Returns > 1 when prefetching one ahead saves nothing at all.
    """
    saved = delta_t_pf(params, 1, s)
    if saved <= 0.0:
        return 1.0 + 1e-9
    return params.t_driver / (saved + params.t_driver)


def _validate_probs(p_b: float, p_x: float) -> None:
    if not (0.0 <= p_b <= 1.0 + 1e-12):
        raise ValueError(f"p_b out of range: {p_b!r}")
    if not (0.0 <= p_x <= 1.0 + 1e-12):
        raise ValueError(f"p_x out of range: {p_x!r}")
    if p_b > p_x + 1e-12:
        raise ValueError(
            f"p_b ({p_b!r}) cannot exceed p_x ({p_x!r}): a path's probability "
            "is non-increasing with depth"
        )

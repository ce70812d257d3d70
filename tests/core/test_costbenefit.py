"""Unit tests for the cost-benefit equations (Sections 5-7)."""

import math

import pytest

from repro.core import costbenefit as cb
from repro.params import PAPER_PARAMS, SystemParams

P = PAPER_PARAMS  # t_hit=0.243, t_driver=0.58, t_disk=15, t_cpu=50


class TestStall:
    def test_depth_zero_is_demand_fetch(self):
        """T_stall(0) = T_disk and dT_pf(., 0) = 0 by definition."""
        assert cb.t_stall(P, 0, 1.0) == P.t_disk
        assert cb.delta_t_pf(P, 0, 1.0) == 0.0

    def test_fully_overlapped_at_paper_constants(self):
        # T_disk/1 = 15 < T_cpu + T_hit + s*T_driver = 50.8 -> no stall.
        assert cb.t_stall(P, 1, 1.0) == 0.0
        assert cb.delta_t_pf(P, 1, 1.0) == P.t_disk

    def test_partial_overlap_small_tcpu(self):
        params = SystemParams(t_cpu=5.0)
        # per-period compute = 5 + 0.243 + 0.58 = 5.823; stall = 15 - 5.823
        expected = 15.0 - (5.0 + 0.243 + 0.58)
        assert cb.t_stall(params, 1, 1.0) == pytest.approx(expected)

    def test_stall_decreases_with_depth(self):
        params = SystemParams(t_cpu=2.0)
        stalls = [cb.t_stall(params, d, 1.0) for d in range(1, 10)]
        assert all(a >= b for a, b in zip(stalls, stalls[1:]))

    def test_stall_decreases_with_s(self):
        params = SystemParams(t_cpu=2.0)
        assert cb.t_stall(params, 1, 0.0) >= cb.t_stall(params, 1, 5.0)

    def test_stall_matches_eq6(self):
        """Eq. 6: max(T_disk/d - (T_hit + T_cpu + s*T_driver), 0)."""
        params = SystemParams(t_cpu=1.0)
        s = 2.0
        for d in range(1, 8):
            expected = max(
                params.t_disk / d
                - (params.t_hit + params.t_cpu + s * params.t_driver),
                0.0,
            )
            assert cb.t_stall(params, d, s) == pytest.approx(expected)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            cb.t_stall(P, -1, 1.0)


class TestBenefit:
    def test_depth1_benefit_is_probability_times_savings(self):
        """At depth 1 the parent term vanishes (dT_pf(x, 0) = 0)."""
        assert cb.benefit(P, 0.5, 1.0, 1, 1.0) == pytest.approx(0.5 * 15.0)

    def test_benefit_monotone_in_probability(self):
        b1 = cb.benefit(P, 0.2, 1.0, 1, 1.0)
        b2 = cb.benefit(P, 0.8, 1.0, 1, 1.0)
        assert b2 > b1

    def test_beyond_horizon_nonpositive(self):
        """Past the horizon both dT terms saturate, so B = (p_b - p_x)*T_disk <= 0."""
        horizon = cb.prefetch_horizon(P, 1.0)
        b = cb.benefit(P, 0.3, 0.5, horizon + 1, 1.0)
        assert b <= 0.0

    def test_child_probability_cannot_exceed_parent(self):
        with pytest.raises(ValueError):
            cb.benefit(P, 0.9, 0.5, 2, 1.0)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            cb.benefit(P, 0.5, 1.0, 0, 1.0)


class TestOverhead:
    def test_eq14(self):
        """T_oh = (1 - p_b/p_x) * T_driver."""
        assert cb.prefetch_overhead(P, 0.25, 0.5) == pytest.approx(0.5 * 0.58)

    def test_certain_block_no_overhead(self):
        assert cb.prefetch_overhead(P, 0.5, 0.5) == pytest.approx(0.0)

    def test_zero_parent_full_overhead(self):
        assert cb.prefetch_overhead(P, 0.0, 0.0) == P.t_driver


class TestHorizon:
    def test_paper_constants_give_one(self):
        """15 ms disk vs ~50.8 ms per period: one period suffices."""
        assert cb.prefetch_horizon(P, 1.0) == 1

    def test_small_tcpu_deepens_horizon(self):
        params = SystemParams(t_cpu=1.0)
        assert cb.prefetch_horizon(params, 0.0) >= 2

    def test_horizon_shrinks_with_s(self):
        params = SystemParams(t_cpu=1.0)
        assert cb.prefetch_horizon(params, 10.0) <= cb.prefetch_horizon(params, 0.0)

    def test_min_profitable_probability(self):
        """p* = T_driver / (dT_pf(1) + T_driver) at full overlap."""
        expected = 0.58 / (15.0 + 0.58)
        assert cb.min_profitable_probability(P, 1.0) == pytest.approx(expected)
        # Net benefit is ~0 at p*, positive just above.
        p = cb.min_profitable_probability(P, 1.0)
        net = cb.benefit(P, p, 1.0, 1, 1.0) - cb.prefetch_overhead(P, p, 1.0)
        assert abs(net) < 1e-9


class TestPrefetchEvictionCost:
    def test_eq11_shape(self):
        """C_pr = p_b (T_driver + T_stall(x)) / (d_b - x)."""
        # depth 1 -> x = 0 -> bufferage 1, penalty T_driver + T_disk.
        cost = cb.cost_prefetch_eviction(P, 0.5, 1, 1.0)
        assert cost == pytest.approx(0.5 * (0.58 + 15.0))

    def test_deeper_blocks_cheaper(self):
        """More remaining distance = more bufferage recovered = cheaper."""
        c1 = cb.cost_prefetch_eviction(P, 0.5, 1, 1.0)
        c5 = cb.cost_prefetch_eviction(P, 0.5, 5, 1.0)
        assert c5 < c1

    def test_explicit_refetch_distance(self):
        cost = cb.cost_prefetch_eviction(P, 0.4, 5, 1.0, refetch_distance=1)
        # x=1: stall 0 at paper constants; bufferage 4.
        assert cost == pytest.approx(0.4 * 0.58 / 4)

    def test_no_bufferage_vetoes_eviction(self):
        assert cb.cost_prefetch_eviction(
            P, 0.5, 2, 1.0, refetch_distance=2
        ) == math.inf

    def test_probability_scales_cost(self):
        c_lo = cb.cost_prefetch_eviction(P, 0.1, 3, 1.0)
        c_hi = cb.cost_prefetch_eviction(P, 0.9, 3, 1.0)
        assert c_hi == pytest.approx(9 * c_lo)


class TestDemandEvictionCost:
    def test_eq13(self):
        """C_dc = (H(n) - H(n-1)) (T_driver + T_disk)."""
        assert cb.cost_demand_eviction(P, 0.01) == pytest.approx(
            0.01 * (0.58 + 15.0)
        )

    def test_zero_marginal_is_free(self):
        assert cb.cost_demand_eviction(P, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cb.cost_demand_eviction(P, -0.1)

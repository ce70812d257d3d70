"""Tests for the engine's ablation knobs (refetch distance, marginal band)."""

import pytest

from repro.cache.prefetch_cache import PrefetchCache, PrefetchEntry
from repro.params import PAPER_PARAMS
from repro.policies.registry import make_policy
from repro.sim.engine import Simulator


def entry(block, p=0.5, depth=3, period=0):
    return PrefetchEntry(block=block, probability=p, depth=depth,
                         issue_period=period, arrival_time=0.0)


class TestRefetchDistanceKnob:
    def test_fixed_distance_changes_cost(self):
        default = PrefetchCache(PAPER_PARAMS, 8)
        pinned = PrefetchCache(PAPER_PARAMS, 8, refetch_distance=0)
        e = entry(1, p=0.5, depth=3)
        # Default x = min(2, horizon=1) = 1 -> stall 0, bufferage 2.
        # Pinned x = 0 -> full demand stall, bufferage 3.
        c_default = default.eviction_cost(e, 0, 1.0)
        c_pinned = pinned.eviction_cost(e, 0, 1.0)
        assert c_default == pytest.approx(0.5 * 0.58 / 2)
        assert c_pinned == pytest.approx(0.5 * (0.58 + 15.0) / 3)

    def test_min_cost_scan_respects_knob(self):
        pc = PrefetchCache(PAPER_PARAMS, 8, refetch_distance=0)
        pc.insert(entry(1, p=0.5, depth=3))
        pc.insert(entry(2, p=0.1, depth=1))
        best, cost = pc.min_cost_entry(0, 1.0)
        brute = min((pc.eviction_cost(e, 0, 1.0), e.block) for e in pc)
        assert cost == pytest.approx(brute[0])
        assert best.block == brute[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            PrefetchCache(PAPER_PARAMS, 8, refetch_distance=-1)

    def test_simulator_pass_through(self):
        sim = Simulator(PAPER_PARAMS, make_policy("tree"), 32,
                        refetch_distance=2)
        assert sim.cache.prefetch.refetch_distance == 2
        sim.run([1, 2, 3] * 50)  # smoke: knob does not break the run


class TestMarginalBandKnob:
    def test_simulator_pass_through(self):
        sim = Simulator(PAPER_PARAMS, make_policy("tree"), 32,
                        marginal_band=1)
        assert sim.cache._marginal_band == 1
        stats = sim.run(list(range(40)) * 5)
        stats.check_conservation()

    def test_band_changes_demand_cost(self):
        from repro.cache.buffer_cache import BufferCache

        narrow = BufferCache(PAPER_PARAMS, 4, marginal_band=1)
        wide = BufferCache(PAPER_PARAMS, 4, marginal_band=8)
        for cache in (narrow, wide):
            for _ in range(30):
                for b in (1, 2, 3):
                    cache.profiler.record(b)
            cache.insert_demand(1)
            cache.insert_demand(2)
            cache.insert_demand(3)
        # With hits concentrated at distance 3, a narrow band at n=3 sees a
        # high marginal rate; averaging over 8 positions dilutes it.
        assert narrow.demand_eviction_cost() > wide.demand_eviction_cost()

    @pytest.mark.parametrize("band", [0, -3])
    def test_invalid_band_rejected_at_construction(self, band):
        # Not at the first full-pool miss, mid-run.
        with pytest.raises(ValueError, match="marginal_band"):
            Simulator(PAPER_PARAMS, make_policy("tree"), 4, marginal_band=band)

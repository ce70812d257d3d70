"""Unit tests for the stack-distance profiler, including an oracle check."""

import json
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.buffer_cache import BufferCache, Location
from repro.cache.ghost import StackDistanceProfiler
from repro.core import costbenefit
from repro.params import PAPER_PARAMS


def brute_force_distances(blocks, max_depth):
    """Reference implementation: explicit LRU stack walk."""
    stack = OrderedDict()
    out = []
    for b in blocks:
        if b in stack:
            d = 0
            for candidate in reversed(stack):
                d += 1
                if candidate == b:
                    break
            out.append(d if d <= max_depth else None)
            del stack[b]
        else:
            out.append(None)
        stack[b] = None
        while len(stack) > max_depth:
            stack.popitem(last=False)
    return out


class TestDistances:
    def test_simple_sequence(self):
        p = StackDistanceProfiler(max_depth=8)
        assert p.record(1) is None   # cold
        assert p.record(1) == 1      # immediate re-reference
        assert p.record(2) is None
        assert p.record(1) == 2      # one block in between

    def test_matches_brute_force(self):
        blocks = [1, 2, 3, 1, 2, 4, 4, 3, 1, 5, 6, 2, 1, 1, 7, 3, 2]
        p = StackDistanceProfiler(max_depth=4)
        got = [p.record(b) for b in blocks]
        assert got == brute_force_distances(blocks, 4)

    def test_matches_brute_force_random(self):
        import random

        rng = random.Random(42)
        blocks = [rng.randrange(20) for _ in range(2000)]
        for depth in (3, 8, 16):
            p = StackDistanceProfiler(max_depth=depth)
            got = [p.record(b) for b in blocks]
            assert got == brute_force_distances(blocks, depth)

    def test_depth_bound(self):
        p = StackDistanceProfiler(max_depth=2)
        for b in (1, 2, 3):
            p.record(b)
        # 1 was pushed beyond depth 2 -> cold again.
        assert p.record(1) is None

    def test_compaction_preserves_behaviour(self):
        """Force several Fenwick compactions and cross-check the oracle."""
        import random

        rng = random.Random(7)
        blocks = [rng.randrange(12) for _ in range(5000)]
        p = StackDistanceProfiler(max_depth=4)  # slots = 64 -> many compactions
        got = [p.record(b) for b in blocks]
        assert got == brute_force_distances(blocks, 4)


class TestHistograms:
    def test_lifetime_hit_rates(self):
        p = StackDistanceProfiler(max_depth=4)
        for b in (1, 1, 1, 2, 1):
            p.record(b)
        # refs: cold, d1, d1, cold, d2 -> H at 1 = 2/5, at 2 = 1/5.
        assert p.hit_rate_at(1) == pytest.approx(2 / 5)
        assert p.hit_rate_at(2) == pytest.approx(1 / 5)
        assert p.cumulative_hit_rate(2) == pytest.approx(3 / 5)
        assert p.references == 5
        assert p.cold_references == 2

    def test_recent_rates_track_shift(self):
        p = StackDistanceProfiler(max_depth=4, decay=0.9)
        # Phase 1: distance-1 hits; phase 2: distance-2 hits.
        for _ in range(100):
            p.record("a")
        for _ in range(100):
            p.record("x")
            p.record("y")
        assert p.recent_hit_rate_at(2) > p.recent_hit_rate_at(1)

    def test_marginal_band(self):
        p = StackDistanceProfiler(max_depth=16)
        for _ in range(50):
            for b in range(4):
                p.record(b)
        band = p.recent_marginal_rate(4, width=4)
        assert band == pytest.approx(
            sum(p.recent_hit_rate_at(i) for i in (1, 2, 3, 4)) / 4
        )

    def test_renormalisation_stability(self):
        """Long streams must not overflow the decayed-scale bookkeeping."""
        p = StackDistanceProfiler(max_depth=4, decay=0.99)
        p._scale = 1e99  # just below the renorm threshold
        for _ in range(100):
            p.record(1)
        assert 0.0 <= p.recent_hit_rate_at(1) <= 1.0

    def test_histogram_copy(self):
        p = StackDistanceProfiler(max_depth=4)
        p.record(1)
        p.record(1)
        h = p.histogram()
        h[1] = 999
        assert p.histogram()[1] == 1

    def test_position_validation(self):
        p = StackDistanceProfiler(max_depth=4)
        with pytest.raises(ValueError):
            p.hit_rate_at(0)
        with pytest.raises(ValueError):
            p.hit_rate_at(5)
        with pytest.raises(ValueError):
            p.recent_marginal_rate(1, width=0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StackDistanceProfiler(max_depth=0)
        with pytest.raises(ValueError):
            StackDistanceProfiler(max_depth=4, decay=1.0)


class TestMembership:
    def test_len_and_contains(self):
        p = StackDistanceProfiler(max_depth=3)
        for b in (1, 2, 3):
            p.record(b)
        assert len(p) == 3
        assert 1 in p
        p.record(4)
        assert 1 not in p  # pushed out of the profiled stack


class TestAgainstReferences:
    """The profiler and the pool's Eq. 13 read against their references.

    Depths of 2 to 16 give 64 slots, so a few hundred references over a
    small universe evict and compact many times over.
    """

    @given(
        blocks=st.lists(st.integers(min_value=0, max_value=23), max_size=600),
        max_depth=st.integers(min_value=2, max_value=16),
        cut=st.integers(min_value=0, max_value=600),
    )
    @settings(max_examples=150, deadline=None)
    def test_distances_and_restore(self, blocks, max_depth, cut):
        expected = brute_force_distances(blocks, max_depth)
        p = StackDistanceProfiler(max_depth=max_depth)
        restored = None
        got, got_restored = [], []
        for i, block in enumerate(blocks):
            if i == cut:
                restored = StackDistanceProfiler(max_depth=max_depth)
                restored.load_state(json.loads(json.dumps(p.state())))
            got.append(p.record(block))
            if restored is not None:
                got_restored.append(restored.record(block))
        assert got == expected
        if restored is not None:
            assert got_restored == expected[cut:]
            assert restored.state() == p.state()

    @given(
        blocks=st.lists(st.integers(min_value=0, max_value=23), max_size=600),
        buffers=st.integers(min_value=1, max_value=8),
        band=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_demand_eviction_cost_matches_eq13(self, blocks, buffers, band):
        c = BufferCache(PAPER_PARAMS, buffers, marginal_band=band)
        profiler = c.profiler

        def reference_cost():
            n = len(c.demand)
            if n == 0:
                return costbenefit.INFINITE_COST
            marginal = profiler.recent_marginal_rate(
                min(n, profiler.max_depth), width=band)
            return costbenefit.cost_demand_eviction(PAPER_PARAMS, marginal)

        assert c.demand_eviction_cost() == reference_cost()
        for period, block in enumerate(blocks, 1):
            location = c.location_of(block)
            c.reference(block, period, location)
            if location is Location.MISS:
                c.reclaim_for_demand(period, 1.0)
                c.insert_demand(block)
            assert c.demand_eviction_cost().hex() == reference_cost().hex()

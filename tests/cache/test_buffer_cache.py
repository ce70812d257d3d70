"""Unit tests for the combined buffer cache (Figure 2 reclaim protocol)."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache.buffer_cache import BufferCache, Location, VictimKind
from repro.cache.prefetch_cache import PrefetchEntry
from repro.params import PAPER_PARAMS


def make_cache(total=8, prefetch_cap=None):
    return BufferCache(
        PAPER_PARAMS,
        total,
        prefetch_capacity=prefetch_cap,
    )


def pf_entry(block, p=0.5, depth=1, period=0):
    return PrefetchEntry(
        block=block, probability=p, depth=depth, issue_period=period,
        arrival_time=0.0,
    )


class TestReference:
    def test_miss_then_demand_hit(self):
        c = make_cache()
        assert c.reference(1, 1, c.location_of(1)).location is Location.MISS
        c.insert_demand(1)
        assert c.reference(1, 2, c.location_of(1)).location is Location.DEMAND

    def test_prefetch_hit_moves_to_demand(self):
        """Figure 2 transition (iii)."""
        c = make_cache()
        c.insert_prefetch(pf_entry(5))
        assert c.location_of(5) is Location.PREFETCH
        result = c.reference(5, 1, Location.PREFETCH)
        assert result.location is Location.PREFETCH
        assert result.entry.block == 5
        assert c.location_of(5) is Location.DEMAND
        assert len(c.prefetch) == 0

    def test_occupancy_conserved_on_move(self):
        c = make_cache()
        c.insert_prefetch(pf_entry(5))
        before = c.occupancy
        c.reference(5, 1, Location.PREFETCH)
        assert c.occupancy == before

    def test_location_of_does_not_mutate(self):
        c = make_cache()
        c.insert_demand(3)
        c.location_of(3)
        assert c.demand.hits == 0


class TestReclaim:
    def test_free_buffer_no_eviction(self):
        c = make_cache(total=4)
        c.insert_demand(1)
        c.reclaim_for_demand(1, 1.0)
        assert c.occupancy == 1  # nothing evicted

    def test_demand_reclaim_evicts_when_full(self):
        c = make_cache(total=2)
        c.insert_demand(1)
        c.insert_demand(2)
        assert c.free_buffers == 0
        c.reclaim_for_demand(1, 1.0)
        assert c.free_buffers == 1

    def test_demand_reclaim_prefers_cheap_prefetch_block(self):
        """An overdue, low-probability prefetched block is the cheapest."""
        c = make_cache(total=2)
        c.insert_demand(1)
        # Immediate re-references make stack distance 1 hot, so shrinking
        # the (1-block) demand cache would genuinely cost hit rate.
        for _ in range(50):
            c.profiler.record(0)
        c.insert_prefetch(pf_entry(9, p=0.05, depth=1, period=0))
        c.reclaim_for_demand(current_period=30, s=1.0)
        assert c.location_of(9) is Location.MISS
        assert c.location_of(1) is Location.DEMAND

    @given(
        demand=st.integers(min_value=0, max_value=4),
        entries=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.integers(min_value=1, max_value=12),
                st.integers(min_value=0, max_value=20),
            ),
            max_size=4,
        ),
        period=st.integers(min_value=0, max_value=40),
        s=st.floats(min_value=0.0, max_value=64.0),
        refs=st.lists(st.integers(min_value=0, max_value=6), max_size=40),
        t_cpu=st.sampled_from([0.5, 2.0, 50.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_full_pool_always_has_a_finite_victim(
        self, demand, entries, period, s, refs, t_cpu
    ):
        """A demand fetch always finds a buffer: on a full pool the cheapest
        victim has a finite cost (Eq. 11's bufferage is at least 1, Eq. 13
        is finite with a demand block), and a demand reclaim frees exactly
        one buffer."""
        total = demand + len(entries)
        assume(total >= 1)
        c = BufferCache(PAPER_PARAMS.with_t_cpu(t_cpu), total)
        for block in refs:
            c.profiler.record(block)
        for block in range(demand):
            c.insert_demand(block)
        for i, (p, depth, issued) in enumerate(entries):
            c.insert_prefetch(pf_entry(100 + i, p=p, depth=depth, period=issued))
        assert c.free_buffers == 0
        victim = c.cheapest_victim(period, s)
        assert victim is not None and math.isfinite(victim[2])
        c.reclaim_for_demand(period, s)
        assert c.free_buffers == 1

    def test_demand_reclaim_without_victim_raises(self):
        c = make_cache(total=1)
        c.insert_demand(1)
        c.cheapest_victim = lambda current_period, s: None
        with pytest.raises(RuntimeError):
            c.reclaim_for_demand(1, 1.0)

    def test_prefetch_reclaim_respects_budget(self):
        c = make_cache(total=2)
        c.insert_demand(1)
        c.insert_demand(2)
        # Demand eviction cost is ~0 (no profiled locality): affordable.
        paid = c.try_reclaim_for_prefetch(1, 1.0, max_cost=1.0)
        assert paid is not None
        assert c.free_buffers == 1

    def test_prefetch_reclaim_refuses_expensive(self):
        c = make_cache(total=2)
        for period in range(200):
            c.profiler.record(period % 2)  # strong locality at depth 2
        c.insert_demand(1)
        c.insert_demand(2)
        paid = c.try_reclaim_for_prefetch(1, 1.0, max_cost=0.0)
        assert paid is None
        assert c.occupancy == 2

    def test_prefetch_cap_displaces_within_partition(self):
        c = make_cache(total=10, prefetch_cap=1)
        c.insert_prefetch(pf_entry(1, p=0.1, depth=1, period=0))
        paid = c.try_reclaim_for_prefetch(5, 1.0, max_cost=float("inf"))
        assert paid is not None
        assert len(c.prefetch) == 0  # old entry evicted, room for new

    def test_free_pool_prefetch_is_free(self):
        c = make_cache(total=4)
        assert c.try_reclaim_for_prefetch(1, 1.0, max_cost=0.0) == 0.0


class TestVictimSelection:
    def test_cheapest_victim_prefers_lower_cost(self):
        c = make_cache(total=4)
        c.insert_demand(1)
        for _ in range(50):
            c.profiler.record(0)  # make the demand buffer measurably valuable
        c.insert_prefetch(pf_entry(2, p=0.01, depth=1, period=0))
        victim = c.cheapest_victim(current_period=20, s=1.0)
        assert victim is not None
        kind, block, cost = victim
        assert kind is VictimKind.PREFETCH and block == 2

    def test_cheapest_victim_tie_goes_to_prefetch(self):
        """With a cold profiler both costs are ~0; prefer shedding the
        (mispredicted) prefetch block over the demand LRU block."""
        c = make_cache(total=4)
        c.insert_demand(1)
        c.insert_prefetch(pf_entry(2, p=0.01, depth=1, period=0))
        victim = c.cheapest_victim(current_period=40, s=1.0)
        assert victim is not None
        assert victim[0] is VictimKind.PREFETCH

    def test_empty_cache_no_victim(self):
        c = make_cache()
        assert c.cheapest_victim(1, 1.0) is None

    def test_demand_cost_infinite_when_empty(self):
        c = make_cache()
        assert c.demand_eviction_cost() == float("inf")

    def test_demand_cost_rejects_negative_marginal_rate(self):
        c = make_cache()
        c.insert_demand(1)
        c.profiler.record(1)
        c.profiler._recent[1] = -1.0
        with pytest.raises(ValueError, match="marginal_hit_rate"):
            c.demand_eviction_cost()


class TestInsertGuards:
    def test_insert_demand_requires_free_buffer(self):
        c = make_cache(total=1)
        c.insert_demand(1)
        with pytest.raises(RuntimeError):
            c.insert_demand(2)

    def test_insert_prefetch_requires_free_buffer(self):
        c = make_cache(total=1)
        c.insert_demand(1)
        with pytest.raises(RuntimeError):
            c.insert_prefetch(pf_entry(2))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BufferCache(PAPER_PARAMS, 0)
        with pytest.raises(ValueError):
            BufferCache(PAPER_PARAMS, 4, prefetch_capacity=5)

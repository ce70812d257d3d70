"""Unit tests for the prefetch cache and its Eq. 11 eviction costs."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.prefetch_cache import OVERDUE_DECAY, PrefetchCache, PrefetchEntry
from repro.core import costbenefit
from repro.params import PAPER_PARAMS


def entry(block, p=0.5, depth=1, period=0, arrival=0.0, tag="tree"):
    return PrefetchEntry(
        block=block,
        probability=p,
        depth=depth,
        issue_period=period,
        arrival_time=arrival,
        tag=tag,
    )


class TestEntry:
    def test_remaining_depth(self):
        e = entry(1, depth=3, period=10)
        assert e.remaining_depth(10) == 3
        assert e.remaining_depth(12) == 1
        assert e.remaining_depth(15) == 0

    def test_effective_probability_decays_when_overdue(self):
        e = entry(1, p=0.8, depth=2, period=0)
        assert e.effective_probability(2) == pytest.approx(0.8)
        assert e.effective_probability(3) == pytest.approx(0.8 * OVERDUE_DECAY)
        assert e.effective_probability(5) == pytest.approx(
            0.8 * OVERDUE_DECAY**3
        )


class TestInsertTakeEvict:
    def test_insert_and_get(self):
        pc = PrefetchCache(PAPER_PARAMS, capacity=4)
        pc.insert(entry(1))
        assert 1 in pc
        assert pc.get(1).block == 1
        assert len(pc) == 1
        assert pc.inserted == 1

    def test_full_insert_raises(self):
        pc = PrefetchCache(PAPER_PARAMS, capacity=1)
        pc.insert(entry(1))
        assert pc.is_full
        with pytest.raises(RuntimeError):
            pc.insert(entry(2))

    def test_duplicate_insert_raises(self):
        pc = PrefetchCache(PAPER_PARAMS, capacity=4)
        pc.insert(entry(1))
        with pytest.raises(ValueError):
            pc.insert(entry(1))

    def test_take_counts_hit(self):
        pc = PrefetchCache(PAPER_PARAMS, capacity=4)
        pc.insert(entry(1))
        e = pc.take(1)
        assert e.block == 1
        assert pc.hits == 1
        assert 1 not in pc

    def test_evict_counts_unreferenced(self):
        pc = PrefetchCache(PAPER_PARAMS, capacity=4)
        pc.insert(entry(1))
        pc.evict(1)
        assert pc.evicted_unreferenced == 1
        assert pc.hits == 0

    def test_refresh(self):
        pc = PrefetchCache(PAPER_PARAMS, capacity=4)
        pc.insert(entry(1, p=0.2, depth=1, period=0))
        assert pc.refresh(1, probability=0.9, depth=2, current_period=5)
        e = pc.get(1)
        assert e.probability == 0.9
        assert e.depth == 2
        assert e.issue_period == 5
        assert not pc.refresh(99, 0.5, 1, 5)

    def test_tag_counts(self):
        pc = PrefetchCache(PAPER_PARAMS, capacity=8)
        pc.insert(entry(1, tag="nl"))
        pc.insert(entry(2, tag="nl"))
        pc.insert(entry(3, tag="tree"))
        assert pc.tag_count("nl") == 2
        assert pc.tag_count("tree") == 1
        pc.take(1)
        assert pc.tag_count("nl") == 1
        pc.evict(2)
        assert pc.tag_count("nl") == 0
        assert pc.tag_count("never") == 0


class TestEvictionCosts:
    def test_cost_matches_equation(self):
        pc = PrefetchCache(PAPER_PARAMS, capacity=4)
        e = entry(1, p=0.5, depth=3, period=0)
        cost = pc.eviction_cost(e, current_period=0, s=1.0)
        expected = costbenefit.cost_prefetch_eviction(PAPER_PARAMS, 0.5, 3, 1.0)
        assert cost == pytest.approx(expected)

    def test_min_cost_entry_matches_eviction_cost(self):
        """The inlined scan must agree with the public per-entry cost."""
        pc = PrefetchCache(PAPER_PARAMS, capacity=8)
        for i, (p, depth, period) in enumerate(
            [(0.9, 1, 5), (0.1, 1, 5), (0.5, 4, 3), (0.7, 2, 0)]
        ):
            pc.insert(entry(i, p=p, depth=depth, period=period))
        best, cost = pc.min_cost_entry(current_period=6, s=1.0)
        brute = min(
            (pc.eviction_cost(e, 6, 1.0), e.block) for e in pc
        )
        assert cost == pytest.approx(brute[0])
        assert best.block == brute[1]

    def test_overdue_blocks_become_cheap(self):
        pc = PrefetchCache(PAPER_PARAMS, capacity=4)
        pc.insert(entry(1, p=0.9, depth=1, period=0))   # overdue at t=10
        pc.insert(entry(2, p=0.3, depth=1, period=10))  # fresh
        best, _ = pc.min_cost_entry(current_period=10, s=1.0)
        assert best.block == 1

    def test_empty_cache(self):
        pc = PrefetchCache(PAPER_PARAMS, capacity=4)
        assert pc.min_cost_entry(0, 1.0) is None

    def test_costs_finite_and_nonnegative(self):
        pc = PrefetchCache(PAPER_PARAMS, capacity=16)
        for i in range(10):
            pc.insert(entry(i, p=0.1 * (i % 9 + 1), depth=i % 4 + 1, period=i))
        _, cost = pc.min_cost_entry(current_period=8, s=0.5)
        assert 0.0 <= cost < math.inf

    def test_resize(self):
        pc = PrefetchCache(PAPER_PARAMS, capacity=1)
        pc.insert(entry(1))
        pc.resize(3)
        pc.insert(entry(2))
        assert len(pc) == 2
        with pytest.raises(ValueError):
            pc.resize(-1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PrefetchCache(PAPER_PARAMS, capacity=-1)


def brute_min_cost(pc, period, s):
    """The cheapest Eq. 11 cost over every resident entry."""
    return min(pc.eviction_cost(e, period, s) for e in pc)


class TestCheapList:
    """``min_cost_entry`` keeps the k cheapest entries between rescans;
    with more than k resident it must still return a cheapest one."""

    def test_short_list_does_not_admit_a_costlier_entry(self):
        pc = PrefetchCache(PAPER_PARAMS, capacity=64)
        for block in range(40):
            pc.insert(entry(block, p=(block + 1) / 100, depth=1, period=0))
        head, _ = pc.min_cost_entry(5, 1.0)
        pc.evict(head.block)
        # The list now holds 31 of the 32 cheapest; blocks 32-39 are off it.
        pc.insert(entry(999, p=0.99, depth=1, period=0))
        for _ in range(31):
            head, _ = pc.min_cost_entry(5, 1.0)
            pc.evict(head.block)
        head, cost = pc.min_cost_entry(5, 1.0)
        assert head.block == 32
        assert cost == pc.eviction_cost(pc.get(32), 5, 1.0)
        assert cost == brute_min_cost(pc, 5, 1.0)

    @pytest.mark.parametrize("width", [4, PrefetchCache._CHEAP_WIDTH])
    @given(
        st.integers(min_value=1, max_value=40),
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "take", "evict", "evict", "evict",
                                 "refresh", "tick"]),
                st.integers(min_value=0, max_value=99),
                st.integers(min_value=1, max_value=100),
                st.integers(min_value=1, max_value=4),
            ),
            max_size=150,
        ),
        st.sampled_from([0.0, 0.75, 2.5, 40.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, width, extra, ops, s):
        """Random insert/take/evict/refresh sequences starting from more
        entries than the list holds (the production width, and a narrow
        one that reaches deep into the list in a few operations)."""

        class Narrow(PrefetchCache):
            _CHEAP_WIDTH = width

        pc = Narrow(PAPER_PARAMS, capacity=150)
        period = 3
        for block in range(width + extra):
            pc.insert(entry(100 + block, p=(block % 17 + 1) / 20,
                            depth=block % 4 + 1, period=block % 3))

        def cheapest():
            found = pc.min_cost_entry(period, s)
            if len(pc) == 0:
                assert found is None
                return None
            head, cost = found
            assert cost == brute_min_cost(pc, period, s)
            assert pc.eviction_cost(head, period, s) == cost
            return head

        for op, block, percent, depth in ops:
            if op == "insert":
                if block not in pc:
                    pc.insert(entry(block, p=percent / 100, depth=depth,
                                    period=period))
            elif op == "take":
                if block in pc:
                    pc.take(block)
            elif op == "evict":
                head = cheapest()
                if head is not None:
                    pc.evict(head.block)
            elif op == "refresh":
                pc.refresh(block, percent / 100, depth, period)
            else:
                period += 1
                s = s * 0.95 + depth * 0.05
            cheapest()

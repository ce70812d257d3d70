"""Integration tests for the simulation engine with hand-computed scenarios."""

import pytest

from repro.params import PAPER_PARAMS, SystemParams
from repro.policies.registry import make_policy
from repro.sim.engine import Simulator, simulate

P = PAPER_PARAMS


def run(policy_name, trace, cache_size, params=P, **kwargs):
    return simulate(params, make_policy(policy_name), trace, cache_size, **kwargs)


class TestNoPrefetchBaseline:
    def test_textbook_lru_miss_count(self):
        """no-prefetch must equal a plain LRU simulation."""
        trace = [1, 2, 3, 1, 2, 3, 4, 1]
        # LRU capacity 3: misses 1,2,3 cold; 1,2,3 hit; 4 miss evicts 1; 1 miss.
        stats = run("no-prefetch", trace, 3)
        assert stats.misses == 5
        assert stats.demand_hits == 3
        assert stats.prefetch_hits == 0
        assert stats.prefetches_issued == 0

    def test_all_cold_misses(self):
        stats = run("no-prefetch", list(range(10)), 4)
        assert stats.misses == 10
        assert stats.miss_rate == 100.0

    def test_all_hits_after_first(self):
        stats = run("no-prefetch", [7] * 10, 4)
        assert stats.misses == 1
        assert stats.demand_hits == 9

    def test_exact_timing(self):
        """Figure 3(a): each period is T_cpu + T_hit (+ T_driver + T_disk on miss)."""
        trace = [1, 1, 1]
        stats = run("no-prefetch", trace, 2)
        expected = (
            1 * (P.t_driver + P.t_disk)  # one demand fetch
            + 3 * (P.t_hit + P.t_cpu)
        )
        assert stats.elapsed_time == pytest.approx(expected)
        assert stats.stall_time == 0.0

    def test_conservation_checked(self):
        stats = run("no-prefetch", [1, 2, 1, 3, 1], 2)
        stats.check_conservation()
        assert stats.accesses == 5


class TestTreePolicyEndToEnd:
    def test_learns_repeating_pattern(self):
        """A cyclic working set larger than the cache defeats LRU entirely
        (sequential flooding) but is fully predictable by the tree."""
        pattern = list(range(10, 310, 10))  # 30 blocks > 16 buffers
        trace = pattern * 40
        base = run("no-prefetch", trace, 16)
        assert base.miss_rate == pytest.approx(100.0)  # classic LRU thrash
        stats = run("tree", trace, 16)
        assert stats.prefetch_hits > 500
        assert stats.miss_rate < 50.0

    def test_working_set_within_cache_needs_no_prefetch(self):
        """Everything resident: the cost-benefit loop should go idle
        (all candidates already cached) rather than waste fetches."""
        pattern = [10, 20, 30, 40, 50]
        trace = pattern * 40
        stats = run("tree", trace, 16)
        assert stats.misses == 5  # cold misses only
        assert stats.prefetches_issued == 0
        assert stats.candidates_already_cached_rate == pytest.approx(100.0)

    def test_prefetch_hit_timing_no_stall_at_paper_constants(self):
        """T_disk (15ms) < per-period compute (~50.8ms): prefetches arrive
        before the next access, so prefetch hits never stall."""
        pattern = list(range(10, 310, 10))
        stats = run("tree", pattern * 40, 16)
        assert stats.prefetch_hits > 0
        assert stats.stall_time == 0.0

    def test_prefetch_stall_with_tiny_tcpu(self):
        """With T_cpu ~ 0 the disk cannot be hidden; stalls must appear."""
        params = SystemParams(t_cpu=0.1)
        pattern = list(range(10, 310, 10))
        stats = simulate(params, make_policy("tree"), pattern * 40, 16)
        if stats.prefetch_hits > 0:
            assert stats.stall_time > 0.0

    def test_driver_time_charged_per_prefetch(self):
        pattern = [1, 2, 3]
        stats = run("tree", pattern * 30, 8)
        total_fetches = stats.misses + stats.prefetches_issued
        assert stats.driver_time == pytest.approx(total_fetches * P.t_driver)

    def test_random_trace_mostly_unpredictable(self):
        import random

        rng = random.Random(3)
        trace = [rng.randrange(50_000) for _ in range(2000)]
        stats = run("tree", trace, 64)
        assert stats.prediction_accuracy < 10.0

    def test_max_prefetches_per_period(self):
        pattern = list(range(50))
        stats = run("tree", pattern * 20, 128, max_prefetches_per_period=1)
        # Engine-level cap: never more than one prefetch per access.
        assert stats.prefetches_issued <= stats.accesses


class TestNextLimit:
    def test_sequential_run_interior_rescued(self):
        """One long sequential scan: all but a few accesses become hits."""
        trace = list(range(100, 200))
        stats = run("next-limit", trace, 32)
        assert stats.misses < 15  # head + occasional re-arm, not 100
        assert stats.prefetch_hits > 80

    def test_partition_cap_respected(self):
        sim = Simulator(P, make_policy("next-limit"), 100)
        sim.run(list(range(500)))
        assert sim.cache.prefetch.capacity == 10  # 10% of 100

    def test_no_benefit_on_random(self):
        import random

        rng = random.Random(5)
        trace = [rng.randrange(10_000) * 7 for _ in range(1500)]
        nl = run("next-limit", trace, 64)
        base = run("no-prefetch", trace, 64)
        assert nl.misses >= base.misses * 0.95

    def test_rearm_on_prefetch_hit(self):
        """The whole run must be covered, not every other block."""
        trace = list(range(50))
        stats = run("next-limit", trace, 16)
        assert stats.prefetch_hits >= 45


class TestPerfectSelector:
    def test_only_prefetches_predictable(self):
        pattern = [1, 2, 3, 4]
        stats = run("perfect-selector", pattern * 50, 16)
        # The oracle prefetches the next access; every prefetch must be used
        # unless it was evicted (cache 16 never forces that here).
        assert stats.prefetch_hits == stats.prefetches_issued

    def test_beats_tree(self):
        pattern = [1, 2, 3, 4, 5, 6, 7, 8]
        trace = pattern * 30
        perfect = run("perfect-selector", trace, 8)
        tree = run("tree", trace, 8)
        assert perfect.miss_rate <= tree.miss_rate + 1e-9

    def test_skips_unpredictable(self):
        import random

        rng = random.Random(11)
        trace = [rng.randrange(5000) for _ in range(800)]
        stats = run("perfect-selector", trace, 64)
        assert stats.extra["oracle_skipped_unpredictable"] > 0


class TestEngineGuards:
    def test_policy_single_use(self):
        policy = make_policy("tree")
        Simulator(P, policy, 8)
        with pytest.raises(RuntimeError):
            Simulator(P, policy, 8)

    def test_cache_size_validation(self):
        with pytest.raises(ValueError):
            Simulator(P, make_policy("tree"), 0)
        with pytest.raises(ValueError):
            Simulator(P, make_policy("tree"), 8, max_prefetches_per_period=0)

    @pytest.mark.parametrize("t_cpu", [2.0, 50.0])
    def test_negative_s_rejected(self, t_cpu):
        # At 50 ms the round's terms are fixed at construction; a negative
        # s raises all the same.
        sim = Simulator(P.with_t_cpu(t_cpu), make_policy("tree"), 8)
        with pytest.raises(ValueError, match="s must be non-negative"):
            sim._ctx.begin(-1.0)

    def test_extra_metadata(self):
        stats = run("tree", [1, 2, 3] * 10, 8)
        assert stats.extra["policy"] == "tree"
        assert stats.extra["cache_size"] == 8
        assert "tree_nodes" in stats.extra

    def test_stats_conservation_full_matrix(self):
        import random

        rng = random.Random(17)
        trace = [rng.randrange(60) for _ in range(600)]
        for name in ("no-prefetch", "next-limit", "tree", "tree-next-limit",
                     "tree-lvc", "perfect-selector"):
            stats = run(name, trace, 16)
            stats.check_conservation()
            assert (
                stats.prefetch_hits + stats.prefetched_evicted_unreferenced
                <= stats.prefetches_issued
            )

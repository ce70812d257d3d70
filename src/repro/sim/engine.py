"""The trace-driven simulation engine (Section 8).

One :class:`Simulator` runs one policy over one trace at one cache size.
Per application reference (one *access period*, Section 3) the engine:

1. lets the policy observe the access (tree update, predictability and
   last-visited-child bookkeeping) against the pre-reference cache state;
2. resolves the reference: demand hit, prefetch hit (block moves to the
   demand cache; CPU stalls if the block is still in flight, Figure 5), or
   miss (a buffer is reclaimed per Figure 2 and the block demand-fetched);
3. runs the policy's prefetch round: the policy proposes candidates and the
   engine applies Section 7's rule - prefetch while the benefit net of
   overhead covers the cheapest eviction's cost;
4. folds the number of prefetches issued into the running estimate of ``s``
   and advances the clock by the period's computation.

The engine owns everything model-level (clock, disk, buffer pool, cost
comparisons); policies only choose *which* blocks to propose and whether the
cost-benefit gate applies (the ``forced`` flag models next-limit's
unconditional one-block lookahead).
"""

from __future__ import annotations

import enum
import math
from typing import (
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.cache.buffer_cache import BufferCache, Location
from repro.cache.prefetch_cache import PrefetchEntry
from repro.core import costbenefit
from repro.core.estimators import PrefetchRateEstimator
from repro.params import SystemParams
from repro.sim.clock import SimClock
from repro.sim.disk import DiskModel, QueuedDiskModel
from repro.sim.stats import SimulationStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.policies.base import Policy

Block = Hashable


class IssueStatus(enum.Enum):
    """Outcome of one candidate proposed to :meth:`PrefetchContext.try_issue`."""

    ISSUED = "issued"
    ALREADY_CACHED = "already_cached"
    REJECTED_COST = "rejected_cost"
    NO_CAPACITY = "no_capacity"


class PrefetchDecision(NamedTuple):
    """One block the engine decided to fetch ahead of demand.

    The sequence of these decisions *is* the observable behaviour of a
    policy + cost-benefit configuration: the service layer streams them to
    clients, and the determinism-parity tests compare them between an
    offline run and an online session.
    """

    block: Block
    probability: float
    depth: int
    tag: str


class StepResult(NamedTuple):
    """What one access period did, as seen from outside the engine.

    Returned by :meth:`Simulator.step` so callers that drive the engine one
    reference at a time (the online :mod:`repro.service` session) can relay
    the outcome without reaching into engine internals.
    """

    block: Block
    period: int
    location: "Location"
    stall_ms: float
    decisions: Tuple[PrefetchDecision, ...]

    @property
    def outcome(self) -> str:
        """``demand_hit`` / ``prefetch_hit`` / ``miss`` (wire-level name)."""
        if self.location is Location.DEMAND:
            return "demand_hit"
        if self.location is Location.PREFETCH:
            return "prefetch_hit"
        return "miss"


class PrefetchContext:
    """Engine-side API handed to a policy during its prefetch round.

    A simulator keeps one context and restarts it at every step
    (:meth:`begin`), which derives the round's cost-model terms from the
    current ``s`` once instead of once per candidate:

    * ``s`` -- the smoothed prefetches-per-period estimate;
    * ``prefetch_horizon`` -- :func:`~repro.core.costbenefit.prefetch_horizon`;
    * ``delta_t_pf1`` -- ``dT_pf(1)``, what a depth-1 prefetch saves
      (:func:`~repro.core.costbenefit.delta_t_pf` at depth 1);
    * ``min_profitable_p`` -- ``p*``, the depth-1 profitability floor
      (:func:`~repro.core.costbenefit.min_profitable_probability`).

    Each is computed with the same float operations as the function it
    names, so it is bit-identical to calling that function at ``s``.  When
    ``T_cpu + T_hit >= T_disk`` (the paper's constants), the per-period
    computation covers ``T_disk`` at every ``s >= 0``: the horizon is 1,
    ``dT_pf(1)`` is ``T_disk`` and ``p*`` is fixed, so they are computed
    once, at construction.  A context built outside a step starts at the
    simulator's current ``s``.
    """

    __slots__ = ("_engine", "params", "issued", "decisions", "s",
                 "prefetch_horizon", "delta_t_pf1", "min_profitable_p",
                 "_fixed_terms")

    def __init__(self, engine: "Simulator") -> None:
        self._engine = engine
        self.params: SystemParams = engine.params
        self.decisions: List[PrefetchDecision] = []
        self._set_terms(0.0)
        self._fixed_terms = (
            self.params.access_period_compute(0.0) >= self.params.t_disk
        )
        self.begin(engine.s)

    def begin(self, s: float) -> None:
        """Start a round at ``s``: no prefetches issued, no decisions yet."""
        self.issued = 0
        self.decisions.clear()
        self.s = s
        if not self._fixed_terms:
            self._set_terms(s)
        elif s < 0.0:
            raise ValueError(f"s must be non-negative, got {s!r}")

    def _set_terms(self, s: float) -> None:
        """Derive the horizon, ``dT_pf(1)`` and ``p*`` at ``s``."""
        params = self.params
        compute = params.access_period_compute(s)
        t_disk = params.t_disk
        if compute <= 0.0:
            # Degenerate all-I/O workload: no overlap is ever free.
            horizon = max(1, math.ceil(t_disk / max(params.t_hit, 1e-9)))
        else:
            horizon = max(1, math.ceil(t_disk / compute))
        self.prefetch_horizon = horizon
        stall = t_disk - compute  # Eq. 6 at depth 1, before the clamp at 0
        saved = t_disk - (stall if stall > 0.0 else 0.0)
        self.delta_t_pf1 = saved
        if saved <= 0.0:
            self.min_profitable_p = 1.0 + 1e-9
        else:
            self.min_profitable_p = params.t_driver / (saved + params.t_driver)

    def is_cached(self, block: Block) -> bool:
        return block in self._engine.cache

    def try_issue(
        self,
        block: Block,
        p_b: float,
        p_x: float,
        depth: int,
        *,
        forced: bool = False,
        tag: str = "tree",
        net: Optional[float] = None,
    ) -> IssueStatus:
        """Propose prefetching ``block`` at probability ``p_b``, depth ``depth``.

        Applies Section 7: compares ``B(b) - T_oh`` against the cheapest
        buffer's eviction cost; ``forced`` skips the benefit gate (the
        block is fetched if any buffer is reclaimable within the partition
        bound), which is how next-limit behaves.  A policy that ranked its
        candidates by net benefit passes that value as ``net``; it must
        equal ``costbenefit.benefit(...) - costbenefit.prefetch_overhead(...)``
        at this round's ``s``, which the engine computes when ``net`` is
        omitted.
        """
        engine = self._engine
        stats = engine.stats
        if self.issued >= engine.max_prefetches_per_period:
            return IssueStatus.NO_CAPACITY

        cache = engine.cache
        location = cache.location_of(block)
        if location is not Location.MISS:
            # Figure 7's "candidate already resides in the cache".  Keep the
            # resident prefetch entry's metadata fresh so Eq. 11 stays honest.
            if location is Location.PREFETCH and not forced:
                cache.prefetch.refresh(block, p_b, depth, engine.period)
            stats.candidates_already_cached += 1
            return IssueStatus.ALREADY_CACHED

        s = self.s
        params = self.params
        if forced:
            # Unconditional one-block lookahead: pay for a buffer if any is
            # reclaimable, with no benefit ceiling.
            max_cost = costbenefit.INFINITE_COST
        else:
            if net is None:
                net = costbenefit.benefit(params, p_b, p_x, depth, s) - (
                    costbenefit.prefetch_overhead(params, p_b, p_x)
                )
            if net <= 0.0:
                stats.candidates_rejected_cost += 1
                return IssueStatus.REJECTED_COST
            max_cost = net

        was_capped = cache.prefetch.is_full
        paid = cache.try_reclaim_for_prefetch(engine.period, s, max_cost)
        if paid is None:
            if was_capped:
                stats.candidates_no_capacity += 1
                return IssueStatus.NO_CAPACITY
            stats.candidates_rejected_cost += 1
            return IssueStatus.REJECTED_COST

        clock = engine.clock
        clock.charge_driver(params.t_driver)
        arrival = engine.disk.prefetch_read(clock.now)
        cache.insert_prefetch(
            PrefetchEntry(block, p_b, depth, engine.period, arrival, tag)
        )
        self.issued += 1
        stats.prefetches_issued += 1
        stats.prefetch_probability_sum += p_b
        stats.prefetch_depth_sum += depth
        self.decisions.append(PrefetchDecision(block, p_b, depth, tag))
        return IssueStatus.ISSUED


class Simulator:
    """Runs one prefetching policy over a block reference trace."""

    def __init__(
        self,
        params: SystemParams,
        policy: "Policy",
        cache_size: int,
        *,
        s_alpha: float = 0.05,
        s_initial: float = 1.0,
        max_prefetches_per_period: int = 64,
        refetch_distance: Optional[int] = None,
        marginal_band: int = 8,
        num_disks: Optional[int] = None,
    ) -> None:
        """``num_disks=None`` keeps the paper's infinite-disk assumption;
        an integer uses the FCFS :class:`QueuedDiskModel` instead."""
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size!r}")
        if max_prefetches_per_period < 1:
            raise ValueError(
                "max_prefetches_per_period must be >= 1, "
                f"got {max_prefetches_per_period!r}"
            )
        self.params = params
        self.policy = policy
        self.cache_size = cache_size
        cap = policy.prefetch_partition_capacity(cache_size)
        self.cache = BufferCache(
            params,
            cache_size,
            prefetch_capacity=cap if cap is not None else cache_size,
            refetch_distance=refetch_distance,
            marginal_band=marginal_band,
        )
        self.clock = SimClock()
        self.disk = (
            DiskModel(params) if num_disks is None
            else QueuedDiskModel(params, num_disks)
        )
        self.stats = SimulationStats()
        self.s_estimator = PrefetchRateEstimator(alpha=s_alpha, initial=s_initial)
        """Tracks ``s`` from the prefetches each period issues."""
        self.max_prefetches_per_period = max_prefetches_per_period
        self.period = 0
        self.next_block: Optional[Block] = None
        """One-access lookahead, available only to oracle policies."""
        self.full_trace: Optional[Sequence[Block]] = None
        """The materialised trace, published at run start (hint policies)."""
        self._ctx = PrefetchContext(self)
        policy.setup(self)

    # ------------------------------------------------------------- queries

    @property
    def s(self) -> float:
        return self.s_estimator.s

    @property
    def s_lifetime_mean(self) -> float:
        return self.s_estimator.lifetime_mean

    # ----------------------------------------------------------------- run

    def run(self, trace: Iterable[Block]) -> SimulationStats:
        """Simulate the whole trace and return the accumulated statistics."""
        blocks: Sequence[Block] = (
            trace if isinstance(trace, (list, tuple)) else list(trace)
        )
        self.full_trace = blocks
        self.policy.on_run_start(blocks)
        n = len(blocks)
        for i in range(n):
            self.next_block = blocks[i + 1] if i + 1 < n else None
            self.step(blocks[i])
        return self.finalize()

    def step(self, block: Block) -> StepResult:
        """Simulate one access period and report what it did.

        This is the engine's session-reusable core: it needs no lookahead
        and no materialised trace, so a long-lived caller (the online
        advisory service) can feed references one at a time and stream the
        returned :class:`StepResult` back to its client.
        """
        self.period = period = self.period + 1
        stats = self.stats
        params = self.params
        cache = self.cache
        clock = self.clock
        stats.accesses += 1
        stall = 0.0
        # s moves only at end_period, so this step's terms are fixed here.
        ctx = self._ctx
        s = self.s_estimator.s
        ctx.begin(s)

        location = cache.location_of(block)
        self.policy.observe(block, period, location, cache, stats)

        result = cache.reference(block, period, location)
        if location is Location.DEMAND:
            stats.demand_hits += 1
            clock.charge_hit(params.t_hit)
        elif location is Location.PREFETCH:
            stats.prefetch_hits += 1
            assert result.entry is not None
            stall = max(0.0, result.entry.arrival_time - clock.now)
            if stall > 0.0:
                clock.charge_stall(stall)
            clock.charge_hit(params.t_hit)
        else:
            stats.misses += 1
            cache.reclaim_for_demand(period, s)
            clock.charge_driver(params.t_driver)
            completion = self.disk.demand_read(clock.now)
            clock.charge_demand_fetch(completion - clock.now)
            cache.insert_demand(block)
            clock.charge_hit(params.t_hit)

        self.policy.prefetch_round(ctx)
        self.s_estimator.end_period(ctx.issued)
        clock.charge_compute(params.t_cpu)
        return StepResult(block, period, location, stall, tuple(ctx.decisions))

    def finalize(self) -> SimulationStats:
        """Seal and validate the statistics after the last access."""
        stats = self.stats
        stats.prefetched_evicted_unreferenced = self.cache.prefetch.evicted_unreferenced
        stats.elapsed_time = self.clock.now
        stats.stall_time = self.clock.stall_time
        stats.demand_fetch_time = self.clock.demand_fetch_time
        stats.driver_time = self.clock.driver_time
        stats.extra.setdefault("policy", self.policy.name)
        stats.extra.setdefault("cache_size", self.cache_size)
        stats.extra.setdefault("s_lifetime_mean", self.s_lifetime_mean)
        stats.extra.setdefault(
            "forced_prefetch_evictions", self.cache.forced_prefetch_evictions
        )
        if isinstance(self.disk, QueuedDiskModel):
            stats.extra.setdefault("num_disks", self.disk.num_disks)
            stats.extra.setdefault(
                "disk_queue_delay_total", self.disk.queue_delay_total
            )
            stats.extra.setdefault("disk_queued_requests", self.disk.queued_requests)
            stats.extra.setdefault(
                "disk_utilisation", self.disk.utilisation(self.clock.now)
            )
        self.policy.snapshot_extra(stats)
        stats.check_conservation()
        return stats


def simulate(
    params: SystemParams,
    policy: "Policy",
    trace: Iterable[Block],
    cache_size: int,
    **kwargs,
) -> SimulationStats:
    """Convenience one-shot: build a :class:`Simulator` and run the trace."""
    return Simulator(params, policy, cache_size, **kwargs).run(trace)

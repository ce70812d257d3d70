"""The combined demand + prefetch buffer cache (Figure 2).

A fixed pool of ``total_buffers`` is shared by two partitions:

* the **demand cache** -- LRU over previously referenced blocks;
* the **prefetch cache** -- predicted blocks awaiting their first reference.

The partition boundary is not fixed: whenever a new fetch (demand or
prefetch) needs a buffer and the pool is full, a buffer is *reclaimed* from
whichever partition currently holds the least valuable block -- the cheaper
of Eq. 11 (prefetch-cache ejection) and Eq. 13 (demand-cache LRU ejection).
A referenced prefetched block moves to the demand cache without changing
pool occupancy (transition iii in Figure 2).

The demand-side cost needs the marginal LRU hit rate ``H(n) - H(n-1)``;
every application reference is fed to a stack-distance profiler and the
marginal rate is read at the demand partition's current size.

An optional hard cap on the prefetch partition implements the next-limit
policy's "at most 10% of the cache for prefetched blocks" rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from repro.cache.ghost import StackDistanceProfiler
from repro.cache.lru import LRUCache
from repro.cache.prefetch_cache import PrefetchCache, PrefetchEntry
from repro.core import costbenefit
from repro.params import SystemParams

Block = Hashable


class Location(enum.Enum):
    """Where a referenced block was found."""

    MISS = "miss"
    DEMAND = "demand"
    PREFETCH = "prefetch"


class VictimKind(enum.Enum):
    DEMAND = "demand"
    PREFETCH = "prefetch"


@dataclass(frozen=True)
class ReferenceResult:
    """Outcome of one application block reference."""

    location: Location
    entry: Optional[PrefetchEntry] = None
    """The prefetch-cache entry the block was found in, when applicable."""


#: Demand hits and misses carry no entry, so each shares one result.
_DEMAND_HIT = ReferenceResult(Location.DEMAND)
_MISS = ReferenceResult(Location.MISS)


class BufferCache:
    """Fixed-size buffer pool with the Figure 2 reclaim protocol."""

    def __init__(
        self,
        params: SystemParams,
        total_buffers: int,
        *,
        prefetch_capacity: Optional[int] = None,
        marginal_band: int = 8,
        refetch_distance: Optional[int] = None,
    ) -> None:
        if total_buffers < 1:
            raise ValueError(f"total_buffers must be >= 1, got {total_buffers!r}")
        if prefetch_capacity is None:
            prefetch_capacity = total_buffers
        if not (0 <= prefetch_capacity <= total_buffers):
            raise ValueError(
                f"prefetch_capacity must be in [0, {total_buffers}], "
                f"got {prefetch_capacity!r}"
            )
        if marginal_band < 1:
            raise ValueError(f"marginal_band must be >= 1, got {marginal_band!r}")
        self.params = params
        self.total_buffers = total_buffers
        self.demand = LRUCache(capacity=total_buffers)
        self.prefetch = PrefetchCache(
            params, capacity=prefetch_capacity, refetch_distance=refetch_distance
        )
        # Twice the pool resolves the marginal rate at any demand size.
        self.profiler = StackDistanceProfiler(max_depth=2 * total_buffers)
        self._marginal_band = marginal_band
        # Eq. 13's factor T_driver + T_disk, summed once.
        self._refetch_time = params.t_driver + params.t_disk
        # The partitions' block maps: the per-reference residency and
        # free-buffer questions read them directly.
        self._demand_map = self.demand._entries
        self._prefetch_map = self.prefetch._entries
        # Kept in the session snapshot and stats.extra for byte stability;
        # a demand reclaim never forces an eviction, so it stays 0.
        self.forced_prefetch_evictions = 0

    # ------------------------------------------------------------- queries

    @property
    def occupancy(self) -> int:
        return len(self._demand_map) + len(self._prefetch_map)

    @property
    def free_buffers(self) -> int:
        return (self.total_buffers - len(self._demand_map)
                - len(self._prefetch_map))

    def __contains__(self, block: Block) -> bool:
        """Whether ``block`` holds a buffer in either partition."""
        return block in self._demand_map or block in self._prefetch_map

    def location_of(self, block: Block) -> Location:
        """Where ``block`` currently resides, without touching any state."""
        if block in self._demand_map:
            return Location.DEMAND
        if block in self._prefetch_map:
            return Location.PREFETCH
        return Location.MISS

    def demand_eviction_cost(self) -> float:
        """Eq. 13 at the demand partition's current size.

        Infinite when the partition is empty (nothing to evict there).
        Equal, bit for bit, to ``cost_demand_eviction(params,
        profiler.recent_marginal_rate(n, band))``: the same band average,
        times ``T_driver + T_disk`` summed once.  ``n`` is clamped to the
        profiler's depth, so the position is always in range.
        """
        n = len(self._demand_map)
        if n == 0:
            return costbenefit.INFINITE_COST
        profiler = self.profiler
        if n > profiler._max_depth:
            n = profiler._max_depth
        weight = profiler._recent_weight
        if weight <= 0.0:
            return 0.0
        lo = n - self._marginal_band + 1
        if lo < 1:
            lo = 1
        marginal = sum(profiler._recent[lo : n + 1]) / (weight * (n - lo + 1))
        if marginal < 0.0:
            raise ValueError(f"marginal_hit_rate must be >= 0, got {marginal!r}")
        return marginal * self._refetch_time

    def cheapest_victim(
        self, current_period: int, s: float
    ) -> Optional[Tuple[VictimKind, Block, float]]:
        """The globally cheapest buffer to reclaim, per Eqs. 11 and 13.

        Ties (within epsilon) go to the prefetch cache: a prefetched block
        whose Eq. 11 cost has collapsed is a misprediction, while the demand
        LRU block retains whatever recency standing the profiler has not yet
        resolved.
        """
        best: Optional[Tuple[VictimKind, Block, float]] = None
        pf = self.prefetch.min_cost_entry(current_period, s)
        if pf is not None:
            entry, cost = pf
            best = (VictimKind.PREFETCH, entry.block, cost)
        dc = self.demand_eviction_cost()
        if dc != costbenefit.INFINITE_COST and (
            best is None or dc < best[2] - 1e-9
        ):
            lru = self.demand.lru_block()
            assert lru is not None
            best = (VictimKind.DEMAND, lru, dc)
        return best

    # ----------------------------------------------------------- reference

    def reference(
        self, block: Block, current_period: int, location: Location
    ) -> ReferenceResult:
        """Apply one application reference found at ``location``.

        ``location`` is :meth:`location_of` ``(block)`` as the pool stands,
        which the caller has already asked.  Feeds the stack-distance
        profiler, performs the prefetch-to-demand move on a prefetch hit,
        and refreshes demand-cache recency on a demand hit.  On a miss the
        caller is responsible for fetching the block and calling
        :meth:`insert_demand` after reclaiming a buffer.
        """
        self.profiler.record(block)
        demand = self.demand
        if location is Location.DEMAND:
            self._demand_map.move_to_end(block)
            demand.hits += 1
            return _DEMAND_HIT
        demand.misses += 1
        if location is Location.PREFETCH:
            entry = self.prefetch.take(block)
            # Transition (iii): occupancy is unchanged by the move.
            evicted = demand.insert(block)
            assert evicted is None, "pool accounting must prevent LRU overflow"
            return ReferenceResult(Location.PREFETCH, entry=entry)
        return _MISS

    # ------------------------------------------------------------- reclaim

    def _evict(self, victim: Tuple[VictimKind, Block, float]) -> None:
        kind, block, _ = victim
        if kind is VictimKind.DEMAND:
            removed = self.demand.discard(block)
            assert removed
            self.demand.evictions += 1
        else:
            self.prefetch.evict(block)

    def reclaim_for_demand(self, current_period: int, s: float) -> None:
        """Guarantee a free buffer for a demand fetch (Figure 2, path ii).

        A demand fetch cannot be refused, and on a full pool it never needs
        to be: Eq. 11's cost is finite (its bufferage is at least 1) and so
        is Eq. 13's whenever the demand partition holds a block, so the
        cheapest victim always has a finite cost.  A pool without one
        breaks that invariant and raises.
        """
        if len(self._demand_map) + len(self._prefetch_map) < self.total_buffers:
            return
        victim = self.cheapest_victim(current_period, s)
        if victim is None or victim[2] == costbenefit.INFINITE_COST:
            raise RuntimeError(
                f"full pool with no finite-cost victim: {victim!r}"
            )
        self._evict(victim)

    def try_reclaim_for_prefetch(
        self, current_period: int, s: float, max_cost: float
    ) -> Optional[float]:
        """Reclaim a buffer for a prefetch if the cheapest victim costs
        at most ``max_cost`` (the candidate's net benefit).

        Returns the reclaim cost actually paid, or ``None`` if the prefetch
        should be abandoned (no affordable victim, or the prefetch partition
        is at its hard cap and holds nothing cheap enough).
        """
        if self.prefetch.is_full:
            # Hard cap: must displace within the prefetch partition.
            pf = self.prefetch.min_cost_entry(current_period, s)
            if pf is None:
                return None
            entry, cost = pf
            if cost > max_cost:
                return None
            self.prefetch.evict(entry.block)
            return cost
        if len(self._demand_map) + len(self._prefetch_map) < self.total_buffers:
            return 0.0
        victim = self.cheapest_victim(current_period, s)
        if victim is None or victim[2] > max_cost:
            return None
        self._evict(victim)
        return victim[2]

    # -------------------------------------------------------------- insert

    def insert_demand(self, block: Block) -> None:
        """Install a demand-fetched block; a buffer must be free."""
        if len(self._demand_map) + len(self._prefetch_map) >= self.total_buffers:
            raise RuntimeError("no free buffer; call reclaim_for_demand first")
        evicted = self.demand.insert(block)
        assert evicted is None

    def insert_prefetch(self, entry: PrefetchEntry) -> None:
        """Install a prefetched block; a buffer must be free."""
        if len(self._demand_map) + len(self._prefetch_map) >= self.total_buffers:
            raise RuntimeError("no free buffer; reclaim before prefetching")
        self.prefetch.insert(entry)

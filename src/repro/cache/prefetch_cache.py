"""The prefetch cache: prefetched-but-not-yet-referenced blocks (Section 3).

Each resident block carries the metadata the cost model needs:

* ``probability`` -- ``p_b`` from the prefetch tree when the prefetch was
  issued (or refreshed);
* ``depth`` -- the distance ``d_b`` (in access periods) at which the block
  was expected to be used;
* ``issue_period`` -- the access-period index at which the prefetch was
  issued, so the *remaining* distance can be recomputed as periods elapse;
* ``arrival_time`` -- simulated wall-clock time at which the disk delivers
  the block, used for stall accounting.

Eviction picks the entry with the lowest Eq. 11 cost.  Blocks that were
expected by now but have not been referenced are probable mispredictions;
their effective probability is decayed geometrically per overdue period so
they become the cheapest victims, which is how the scheme sheds bad guesses
(the paper's "strategies to reduce the number of blocks prefetched by
eliminating mispredicted blocks", Section 9.2.2).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.core import costbenefit
from repro.params import SystemParams

Block = Hashable

#: Per-overdue-period decay of a resident block's effective probability.
OVERDUE_DECAY = 0.5


@dataclass
class PrefetchEntry:
    """Metadata for one resident prefetched block."""

    block: Block
    probability: float
    depth: int
    issue_period: int
    arrival_time: float
    tag: str = "tree"
    """Origin of the prefetch ("tree", "nl", ...); lets combined policies
    cap one source's share of the pool (next-limit's 10% rule)."""

    def periods_elapsed(self, current_period: int) -> int:
        return max(0, current_period - self.issue_period)

    def remaining_depth(self, current_period: int) -> int:
        """Expected periods until use; 0 once the block is due or overdue."""
        return max(0, self.depth - self.periods_elapsed(current_period))

    def effective_probability(self, current_period: int) -> float:
        """``p_b`` decayed once the expected access period has passed."""
        overdue = self.periods_elapsed(current_period) - self.depth
        if overdue <= 0:
            return self.probability
        return self.probability * (OVERDUE_DECAY ** overdue)


class PrefetchCache:
    """Holds prefetched blocks until referenced, with cost-based eviction.

    ``capacity`` bounds the number of resident entries (the next-limit policy
    caps its prefetch partition at 10% of the combined cache; the tree policy
    shares the whole pool and passes the pool size).
    """

    def __init__(
        self,
        params: SystemParams,
        capacity: int,
        *,
        refetch_distance: int | None = None,
    ) -> None:
        """``refetch_distance`` fixes Eq. 11's ``x`` instead of deriving it
        from the prefetch horizon (DESIGN.md Section 5's ablation knob)."""
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        if refetch_distance is not None and refetch_distance < 0:
            raise ValueError(
                f"refetch_distance must be >= 0, got {refetch_distance!r}"
            )
        self.params = params
        self.refetch_distance = refetch_distance
        self._capacity = capacity
        self._entries: Dict[Block, PrefetchEntry] = {}
        self._tag_counts: Dict[str, int] = {}
        self.hits = 0
        self.inserted = 0
        self.evicted_unreferenced = 0
        # Cheapest-entries cache.  Within one access period (and fixed s) an
        # entry's Eq. 11 cost is deterministic, so a single scan per period
        # suffices; insert/refresh/remove keep the sorted list exact.  Key:
        # (cost, block); invalidated when (period, s) moves on.  A list that
        # is not complete holds the k cheapest entries for its length k:
        # every entry off the list costs at least its last one.
        self._cheap: List[Tuple[float, Block]] = []
        self._cheap_key: Optional[Tuple[int, float]] = None
        self._cheap_terms: Tuple[int, float] = (0, 0.0)
        self._cheap_complete = False

    # ------------------------------------------------------------- queries

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block: Block) -> bool:
        return block in self._entries

    def __iter__(self) -> Iterator[PrefetchEntry]:
        return iter(self._entries.values())

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self._capacity

    def get(self, block: Block) -> Optional[PrefetchEntry]:
        return self._entries.get(block)

    def tag_count(self, tag: str) -> int:
        """Number of resident entries issued under ``tag``."""
        return self._tag_counts.get(tag, 0)

    def eviction_cost(
        self, entry: PrefetchEntry, current_period: int, s: float
    ) -> float:
        """Eq. 11 cost of ejecting ``entry`` right now.

        ``d_b`` is the remaining expected distance; due/overdue blocks use a
        distance of 1 with decayed probability, making mispredictions cheap.
        """
        depth = max(1, entry.remaining_depth(current_period))
        p = entry.effective_probability(current_period)
        refetch = self.refetch_distance
        if refetch is not None:
            refetch = min(refetch, depth - 1)
        return costbenefit.cost_prefetch_eviction(
            self.params, p, depth, s, refetch_distance=refetch
        )

    def _cost_fast(self, entry: PrefetchEntry, current_period: int,
                   horizon: int, compute: float) -> float:
        """Eq. 11 cost, inlined (equivalent to :meth:`eviction_cost`)."""
        params = self.params
        elapsed = current_period - entry.issue_period
        if elapsed < 0:
            elapsed = 0
        remaining = entry.depth - elapsed
        if remaining >= 1:
            p = entry.probability
            depth = remaining
        else:
            p = entry.probability * (OVERDUE_DECAY ** (elapsed - entry.depth))
            depth = 1
        x = depth - 1
        if x > horizon:
            x = horizon
        # bufferage = depth - x >= 1 by construction
        if x == 0:
            stall = params.t_disk
        else:
            stall = params.t_disk / x - compute
            if stall < 0.0:
                stall = 0.0
        return p * (params.t_driver + stall) / (depth - x)

    def _cost_context(self, s: float) -> Tuple[int, float]:
        if self.refetch_distance is None:
            horizon = costbenefit.prefetch_horizon(self.params, s)
        else:
            horizon = self.refetch_distance
        compute = self.params.t_cpu + self.params.t_hit + s * self.params.t_driver
        return horizon, compute

    #: Cheap-list length per rebuild; rescan when a period evicts more.
    _CHEAP_WIDTH = 32

    def _rebuild_cheap(self, current_period: int, s: float) -> None:
        horizon, compute = self._cheap_terms = self._cost_context(s)
        costs = [
            (self._cost_fast(e, current_period, horizon, compute), b)
            for b, e in self._entries.items()
        ]
        costs.sort()
        complete = len(costs) <= self._CHEAP_WIDTH
        if not complete:
            del costs[self._CHEAP_WIDTH :]
        self._cheap = costs
        self._cheap_key = (current_period, s)
        self._cheap_complete = complete

    def _cheap_remove(self, block: Block) -> None:
        if self._cheap_key is None:
            return
        for i, (_, b) in enumerate(self._cheap):
            if b == block:
                del self._cheap[i]
                return
        # Block was beyond the cached width: the list is still the true
        # k-cheapest, nothing to do.

    def _cheap_add(self, entry: PrefetchEntry) -> None:
        if self._cheap_key is None:
            return
        horizon, compute = self._cheap_terms
        cost = self._cost_fast(entry, self._cheap_key[0], horizon, compute)
        cheap = self._cheap
        if self._cheap_complete:
            bisect.insort(cheap, (cost, entry.block))
        elif cheap and cost <= cheap[-1][0]:
            # Entries off an incomplete list cost at least its last one, so
            # only an entry no costlier than that may join it.
            bisect.insort(cheap, (cost, entry.block))
            if len(cheap) > self._CHEAP_WIDTH:
                del cheap[self._CHEAP_WIDTH :]

    def min_cost_entry(
        self, current_period: int, s: float
    ) -> Optional[Tuple[PrefetchEntry, float]]:
        """The cheapest entry to evict and its cost, or ``None`` if empty.

        Exact, but amortised: within one access period (fixed ``s``) the
        Eq. 11 cost of each entry is deterministic, so the cache scans the
        population once per period, keeps the k-cheapest sorted, and
        maintains that list incrementally across inserts/removals/refreshes.
        A period that evicts more than k entries triggers a rescan.
        Equivalence with the per-entry :meth:`eviction_cost` is pinned by
        the unit tests.
        """
        if not self._entries:
            return None
        if self._cheap_key != (current_period, s) or not self._cheap:
            # A complete list is empty only with no entries (returned
            # above), so an empty list here is an exhausted incomplete one.
            self._rebuild_cheap(current_period, s)
        cost, block = self._cheap[0]
        return self._entries[block], cost

    # -------------------------------------------------------------- state

    def state(self) -> Dict[str, Any]:
        """JSON-ready form: the counters, plus one ``entries`` row per
        resident block in insertion order, which iteration observes."""
        return {
            "hits": self.hits,
            "inserted": self.inserted,
            "evicted_unreferenced": self.evicted_unreferenced,
            "entries": [
                [e.block, e.probability, e.depth, e.issue_period,
                 e.arrival_time, e.tag]
                for e in self._entries.values()
            ],
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state`; keeps the capacity.

        The cheap list is dropped, not carried: the next
        :meth:`min_cost_entry` rebuilds it, exactly as a continuous run
        does when its period moves on.  The block map is refilled in place:
        the buffer pool holds it.
        """
        self._entries.clear()
        self._tag_counts = {}
        for block, probability, depth, issue_period, arrival, tag in (
            state["entries"]
        ):
            self._entries[block] = PrefetchEntry(
                block, probability, depth, issue_period, arrival, tag
            )
            self._tag_counts[tag] = self._tag_counts.get(tag, 0) + 1
        self.hits = state["hits"]
        self.inserted = state["inserted"]
        self.evicted_unreferenced = state["evicted_unreferenced"]
        self._cheap = []
        self._cheap_key = None
        self._cheap_terms = (0, 0.0)
        self._cheap_complete = False

    # ----------------------------------------------------------- mutations

    def insert(self, entry: PrefetchEntry) -> None:
        """Add a prefetched block.  The caller must have reclaimed space.

        Raises if the cache is full or the block already resident; the buffer
        reclaim protocol (Figure 2) is the combined cache's responsibility.
        """
        if len(self._entries) >= self._capacity:
            raise RuntimeError("prefetch cache full; reclaim a buffer first")
        if entry.block in self._entries:
            raise ValueError(f"block {entry.block!r} already in prefetch cache")
        self._entries[entry.block] = entry
        self._tag_counts[entry.tag] = self._tag_counts.get(entry.tag, 0) + 1
        self.inserted += 1
        self._cheap_add(entry)

    def refresh(
        self, block: Block, probability: float, depth: int, current_period: int
    ) -> bool:
        """Update a resident block re-predicted by the tree this period.

        Keeps the metadata (and hence the Eq. 11 cost) in step with the
        tree's current view; returns whether the block was resident.
        """
        entry = self._entries.get(block)
        if entry is None:
            return False
        self._cheap_remove(block)
        entry.probability = probability
        entry.depth = depth
        entry.issue_period = current_period
        self._cheap_add(entry)
        return True

    def take(self, block: Block) -> PrefetchEntry:
        """Remove and return a referenced block (moves to the demand cache)."""
        entry = self._entries.pop(block)
        self._tag_counts[entry.tag] -= 1
        self.hits += 1
        self._cheap_remove(block)
        return entry

    def evict(self, block: Block) -> PrefetchEntry:
        """Remove an unreferenced block to reclaim its buffer."""
        entry = self._entries.pop(block)
        self._tag_counts[entry.tag] -= 1
        self.evicted_unreferenced += 1
        self._cheap_remove(block)
        return entry

    def resize(self, capacity: int) -> None:
        """Change the partition bound; never evicts (caller reclaims)."""
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        self._capacity = capacity

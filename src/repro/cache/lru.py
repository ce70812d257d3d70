"""An O(1) LRU cache used for the demand cache and the L1 trace filter.

The demand cache (Section 3) holds blocks that have been referenced at least
once and evicts in least-recently-used order.  Values are optional per-block
metadata; for the plain demand cache the block id itself is all that matters.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterator, Optional, Tuple

Block = Hashable


class LRUCache:
    """Fixed-capacity LRU set/map over block ids.

    ``capacity`` may be 0, giving an always-miss cache (useful when the whole
    buffer pool is loaned to the prefetch partition in tests).
    """

    __slots__ = ("_capacity", "_entries", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        self._capacity = capacity
        self._entries: "OrderedDict[Block, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------- queries

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block: Block) -> bool:
        """Membership test without touching recency or hit counters."""
        return block in self._entries

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self._capacity

    def lru_block(self) -> Optional[Block]:
        """The current eviction candidate (least recently used), if any."""
        if not self._entries:
            return None
        return next(iter(self._entries))

    def mru_block(self) -> Optional[Block]:
        if not self._entries:
            return None
        return next(reversed(self._entries))

    def blocks_lru_to_mru(self) -> Iterator[Block]:
        return iter(self._entries)

    def peek(self, block: Block) -> Any:
        """Metadata for ``block`` without touching recency; KeyError if absent."""
        return self._entries[block]

    # ----------------------------------------------------------- mutations

    def access(self, block: Block) -> bool:
        """Reference ``block``: count a hit (and refresh recency) or a miss.

        Does *not* insert on miss; the caller decides whether and when the
        fetched block enters the cache (the simulator inserts only after the
        fetch completes).
        """
        if block in self._entries:
            self._entries.move_to_end(block)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def touch(self, block: Block) -> bool:
        """Refresh recency without counting a hit or miss."""
        if block in self._entries:
            self._entries.move_to_end(block)
            return True
        return False

    def insert(self, block: Block, value: Any = None) -> Optional[Tuple[Block, Any]]:
        """Insert (or refresh) ``block`` as most recent.

        Returns the evicted ``(block, value)`` pair if the insertion pushed
        the cache over capacity, else ``None``.  A capacity of zero rejects
        the insert and reports no eviction.
        """
        if self._capacity == 0:
            return None
        if block in self._entries:
            self._entries[block] = value
            self._entries.move_to_end(block)
            return None
        self._entries[block] = value
        if len(self._entries) > self._capacity:
            victim = self._entries.popitem(last=False)
            self.evictions += 1
            return victim
        return None

    def remove(self, block: Block) -> Any:
        """Remove ``block``; KeyError if absent.  Not counted as an eviction."""
        return self._entries.pop(block)

    def discard(self, block: Block) -> bool:
        """Remove ``block`` if present; returns whether it was there."""
        if block in self._entries:
            del self._entries[block]
            return True
        return False

    def evict_lru(self) -> Optional[Tuple[Block, Any]]:
        """Explicitly evict the LRU entry (buffer reclaim, Figure 2)."""
        if not self._entries:
            return None
        victim = self._entries.popitem(last=False)
        self.evictions += 1
        return victim

    def resize(self, capacity: int) -> list:
        """Change capacity, evicting LRU entries as needed; returns victims."""
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        self._capacity = capacity
        victims = []
        while len(self._entries) > self._capacity:
            victims.append(self._entries.popitem(last=False))
            self.evictions += 1
        return victims

    # -------------------------------------------------------------- state

    def state(self) -> Dict[str, Any]:
        """JSON-ready form: the blocks from LRU to MRU, plus the counters.

        Per-block values are not carried; the demand cache stores none.
        """
        return {
            "blocks": list(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state`; keeps the capacity.

        Refills the block map in place: the buffer pool holds it.
        """
        self._entries.clear()
        self._entries.update((b, None) for b in state["blocks"])
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.evictions = state["evictions"]

    # ------------------------------------------------------------- metrics

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

"""LRU stack-distance profiling for the marginal hit rate ``H(n) - H(n-1)``.

Eq. 13 prices a demand-cache buffer by the hit rate lost if the cache shrank
by one block: ``C_dc(n) = (H(n) - H(n-1)) * (T_driver + T_disk)``.
``H(n) - H(n-1)`` equals the rate of hits landing exactly at LRU stack
position ``n`` (Section 6.2), so we maintain an extended LRU stack (the
cache's blocks plus a ghost tail of recently evicted ones) and record the
stack distance of every reference.

The stack distance of a hit is computed as a rank query over a Fenwick
(binary indexed) tree of "active" position slots: every touch assigns the
block a fresh, monotonically increasing position; the distance is the number
of active positions younger than the block's.  This keeps profiling at
O(log max_depth) per reference - the naive walk from the MRU end is O(n) and
dominates whole-trace simulations.

Two estimates are exposed:

* an exact lifetime histogram (used by tests and offline analysis), and
* an exponentially decayed rate (used online, so the Eq. 13 cost adapts as
  the workload's locality drifts).  Decay is applied lazily through a global
  scale factor, renormalised before it can overflow.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

Block = Hashable

_RENORM_THRESHOLD = 1e100


class _Fenwick:
    """Fixed-size Fenwick tree over ints with prefix-sum queries."""

    __slots__ = ("size", "_tree")

    def __init__(self, size: int) -> None:
        self.size = size
        self._tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        """Add ``delta`` at 0-based ``index``."""
        i = index + 1
        tree = self._tree
        while i <= self.size:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of entries at 0-based positions [0, index]."""
        i = index + 1
        total = 0
        tree = self._tree
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    def total(self) -> int:
        return self.prefix_sum(self.size - 1) if self.size else 0


class StackDistanceProfiler:
    """Records LRU stack distances of a reference stream.

    Parameters
    ----------
    max_depth:
        Stack positions are tracked up to this depth; deeper (or first-time)
        references count as "infinite" distance.  Set it a few times the
        cache size so the marginal rate at ``n = capacity`` is resolvable.
    decay:
        Per-reference decay of the recent-rate estimate; with decay ``g`` the
        estimate is an EWMA with time constant ``1 / (1 - g)`` references.
    """

    def __init__(self, max_depth: int, decay: float = 0.9995) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth!r}")
        if not (0.0 < decay < 1.0):
            raise ValueError(f"decay must be in (0, 1), got {decay!r}")
        self._max_depth = max_depth
        self._decay = decay
        # position bookkeeping: block -> slot in the Fenwick tree
        self._pos: Dict[Block, int] = {}
        self._slots = max(4 * max_depth, 64)
        self._fenwick = _Fenwick(self._slots)
        self._next_slot = 0
        self._order: List[Optional[Block]] = [None] * self._slots  # slot -> block
        self._scan_slot = 0  # eviction cursor; slots below it are dead
        self._hist: List[int] = [0] * (max_depth + 1)  # 1-indexed distances
        # Decayed histogram, stored scaled: true value = stored / _scale.
        self._recent: List[float] = [0.0] * (max_depth + 1)
        self._recent_weight = 0.0  # scaled, same convention
        self._scale = 1.0
        self.references = 0
        self.cold_references = 0

    @property
    def max_depth(self) -> int:
        return self._max_depth

    # ------------------------------------------------------------ internal

    def _place(self, live: Iterable[Tuple[int, Block]]) -> None:
        """Reset the slot bookkeeping to exactly the ``(slot, block)`` pairs."""
        self._pos = {}
        self._order = [None] * self._slots
        self._fenwick = _Fenwick(self._slots)
        for slot, block in live:
            self._pos[block] = slot
            self._order[slot] = block
            self._fenwick.add(slot, 1)

    def _compact(self) -> None:
        """Rebuild the Fenwick tree once the slot counter runs off the end."""
        live = sorted(self._pos.items(), key=lambda item: item[1])
        self._place(enumerate(block for block, _ in live))
        self._next_slot = len(live)
        self._scan_slot = 0

    def _evict_oldest(self) -> None:
        """Drop the stale end of the stack once it exceeds ``max_depth``.

        The oldest live block has the smallest slot, so a cursor sweeping
        upward from the low end finds victims; each slot is visited at most
        once between compactions, making eviction amortised O(1).
        """
        fenwick = self._fenwick
        order = self._order
        slot = self._scan_slot
        while len(self._pos) > self._max_depth:
            block = order[slot]
            if block is not None:
                del self._pos[block]
                order[slot] = None
                fenwick.add(slot, -1)
            slot += 1
        self._scan_slot = slot

    def _renormalise(self) -> None:
        inv = 1.0 / self._scale
        for i in range(len(self._recent)):
            self._recent[i] *= inv
        self._recent_weight *= inv
        self._scale = 1.0

    # -------------------------------------------------------------- state

    def state(self) -> Dict[str, Any]:
        """JSON-ready form: the live ``[slot, block]`` pairs oldest first,
        the cursors, both histograms, and the decay state.

        Floats are carried verbatim, and the lazily applied decay scale is
        written as it stands, not renormalised, so a restored profiler
        renormalises on the same reference a continuous one would.
        """
        live = sorted(self._pos.items(), key=lambda item: item[1])
        return {
            "live": [[slot, block] for block, slot in live],
            "next_slot": self._next_slot,
            "scan_slot": self._scan_slot,
            "hist": list(self._hist),
            "recent": list(self._recent),
            "recent_weight": self._recent_weight,
            "scale": self._scale,
            "references": self.references,
            "cold_references": self.cold_references,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state`; rebuilds the Fenwick tree of live slots."""
        self._place(state["live"])
        self._next_slot = state["next_slot"]
        self._scan_slot = state["scan_slot"]
        self._hist = list(state["hist"])
        self._recent = list(state["recent"])
        self._recent_weight = state["recent_weight"]
        self._scale = state["scale"]
        self.references = state["references"]
        self.cold_references = state["cold_references"]

    # ------------------------------------------------------------- record

    def record(self, block: Block) -> Optional[int]:
        """Record a reference; returns its stack distance (1-based) or None.

        ``None`` means a cold reference or one deeper than ``max_depth``.
        """
        self.references += 1
        self._scale /= self._decay
        if self._scale > _RENORM_THRESHOLD:
            self._renormalise()
        self._recent_weight += self._scale

        distance: Optional[int] = None
        old_slot = self._pos.get(block)
        if old_slot is not None:
            # Rank from the MRU end among active slots: blocks in strictly
            # younger slots, plus one for the block itself.
            total_active = len(self._pos)
            d = total_active - self._fenwick.prefix_sum(old_slot) + 1
            del self._pos[block]
            self._fenwick.add(old_slot, -1)
            self._order[old_slot] = None
            if d <= self._max_depth:
                distance = d
                self._hist[d] += 1
                self._recent[d] += self._scale
        if distance is None:
            self.cold_references += 1

        if self._next_slot >= self._slots:
            self._compact()
        slot = self._next_slot
        self._next_slot += 1
        self._pos[block] = slot
        self._order[slot] = block
        self._fenwick.add(slot, 1)
        if len(self._pos) > self._max_depth:
            self._evict_oldest()
        return distance

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._pos)

    def __contains__(self, block: Block) -> bool:
        return block in self._pos

    def hit_rate_at(self, n: int) -> float:
        """Lifetime rate of hits at stack position exactly ``n``.

        This is the exact ``H(n) - H(n-1)`` over the whole reference stream.
        """
        self._check_position(n)
        if self.references == 0:
            return 0.0
        return self._hist[n] / self.references

    def recent_hit_rate_at(self, n: int) -> float:
        """Decayed-rate estimate of ``H(n) - H(n-1)`` (the online cost input)."""
        self._check_position(n)
        if self._recent_weight <= 0.0:
            return 0.0
        return self._recent[n] / self._recent_weight

    def recent_marginal_rate(self, n: int, width: int = 8) -> float:
        """Decayed marginal rate averaged over a small band around ``n``.

        A single stack position is a noisy estimator; Eq. 13 only needs the
        *derivative* of H around the cache size, so averaging positions
        ``[n - width + 1, n]`` stabilises the cost without biasing it.
        """
        self._check_position(n)
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width!r}")
        lo = max(1, n - width + 1)
        if self._recent_weight <= 0.0:
            return 0.0
        band = sum(self._recent[lo : n + 1])
        return band / (self._recent_weight * (n - lo + 1))

    def cumulative_hit_rate(self, n: int) -> float:
        """Lifetime ``H(n)``: fraction of references hitting within depth n."""
        self._check_position(n)
        if self.references == 0:
            return 0.0
        return sum(self._hist[1 : n + 1]) / self.references

    def histogram(self) -> List[int]:
        """Copy of the lifetime stack-distance histogram (index = distance)."""
        return list(self._hist)

    def _check_position(self, n: int) -> None:
        if not (1 <= n <= self._max_depth):
            raise ValueError(
                f"stack position must be in [1, {self._max_depth}], got {n!r}"
            )

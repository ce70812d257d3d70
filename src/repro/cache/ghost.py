"""LRU stack-distance profiling for the marginal hit rate ``H(n) - H(n-1)``.

Eq. 13 prices a demand-cache buffer by the hit rate lost if the cache shrank
by one block: ``C_dc(n) = (H(n) - H(n-1)) * (T_driver + T_disk)``.
``H(n) - H(n-1)`` equals the rate of hits landing exactly at LRU stack
position ``n`` (Section 6.2), so we maintain an extended LRU stack (the
cache's blocks plus a ghost tail of recently evicted ones) and record the
stack distance of every reference.

The stack distance of a hit is computed as a rank query over a Fenwick
(binary indexed) tree of position slots: every touch assigns the block a
fresh, monotonically increasing position; the distance is the number of live
positions younger than the block's.  This keeps profiling at
O(log max_depth) per reference - the naive walk from the MRU end is O(n) and
dominates whole-trace simulations.  A block evicted off the stack's deep end
keeps its slot counted in the tree until the next compaction: it lies below
every live slot, so one count of such stale slots corrects every rank.

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
        self._slots = max(4 * max_depth, 64)
        # The Fenwick tree spans a power of two, so every update path ends
        # at its top node and any two paths meet.
        self._top = 1 << (self._slots - 1).bit_length()
        self._place(())
        self._next_slot = 0
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
        """Reset the slot bookkeeping to exactly the ``(slot, block)`` pairs.

        ``_pos`` maps block -> slot and ``_order`` slot -> block.  ``_tree``
        is a Fenwick (binary indexed) tree over the slots, 1-indexed, that
        counts the live slots plus ``_stale`` evicted ones; it is built here
        in linear time by folding each node into the next one covering it.
        """
        size = self._slots
        top = self._top
        pos: Dict[Block, int] = {}
        order: List[Optional[Block]] = [None] * size
        tree = [0] * (top + 1)
        for slot, block in live:
            pos[block] = slot
            order[slot] = block
            tree[slot + 1] = 1
        if pos:
            for i in range(1, top):
                tree[i + (i & -i)] += tree[i]
        self._pos = pos
        self._order = order
        self._tree = tree
        self._stale = 0

    def _compact(self) -> None:
        """Renumber the live slots from 0 once the slot counter runs off
        the end, dropping the stale ones."""
        live = sorted(self._pos.items(), key=lambda item: item[1])
        self._place(enumerate(block for block, _ in live))
        self._next_slot = len(live)
        self._scan_slot = 0

    def _evict_oldest(self) -> None:
        """Drop the stale end of the stack once it exceeds ``max_depth``.

        The oldest live block has the smallest slot, so a cursor sweeping
        upward from the low end finds victims; each slot is visited at most
        once between compactions, making eviction amortised O(1).  A
        victim's slot stays counted in the Fenwick tree, as a stale slot:
        it lies below the cursor, so below every live slot, and
        :meth:`record` takes the stale count off every prefix sum.
        """
        pos = self._pos
        order = self._order
        slot = self._scan_slot
        while len(pos) > self._max_depth:
            block = order[slot]
            if block is not None:
                del pos[block]
                order[slot] = None
                self._stale += 1
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
        """Inverse of :meth:`state`; rebuilds the Fenwick tree of live slots
        (the tree and its stale count are not carried)."""
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
        scale = self._scale
        self._recent_weight += scale

        pos = self._pos
        tree = self._tree
        top = self._top
        distance: Optional[int] = None
        old_slot = pos.get(block)
        if old_slot is not None:
            # Rank from the MRU end among live slots: blocks in strictly
            # younger slots, plus one for the block itself.  The prefix sum
            # through old_slot counts every stale slot, as they lie below it.
            below = 0
            i = old_slot + 1
            while i:
                below += tree[i]
                i &= i - 1
            d = len(pos) + self._stale - below + 1
            del pos[block]
            self._order[old_slot] = None
            if d <= self._max_depth:
                distance = d
                self._hist[d] += 1
                self._recent[d] += scale
        if distance is None:
            self.cold_references += 1

        slot = self._next_slot
        if slot >= self._slots:
            # The rebuilt tree no longer counts old_slot.
            self._compact()
            slot = self._next_slot
            pos = self._pos
            tree = self._tree
            old_slot = None
        self._next_slot = slot + 1
        pos[block] = slot
        self._order[slot] = block
        j = slot + 1
        if old_slot is None:
            while j <= top:
                tree[j] += 1
                j += j & -j
        else:
            # Move the count from old_slot to slot: walk both update paths
            # up to the node where they meet; above it -1 and +1 cancel.
            i = old_slot + 1
            while i != j:
                if i < j:
                    tree[i] -= 1
                    i += i & -i
                else:
                    tree[j] += 1
                    j += j & -j
        if len(pos) > self._max_depth:
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

"""Tree node for the LZ78-style prefetch tree.

Each node corresponds to one parse substring (equivalently, to the disk block
that ended that substring) and carries:

* ``block``  -- the disk block id this node represents (``None`` for the root),
* ``weight`` -- the number of times the node has been traversed during the
  parse; edge probability is ``child.weight / parent.weight`` (Section 2),
* ``children`` -- outgoing edges keyed by block id,
* ``max_child_weight`` -- an upper bound on the children's weights, so a
  candidate scan can tell that no child clears a probability floor
  without visiting any of them,
* ``last_visited_child`` -- the block of the child traversed on the most
  recent visit (Section 9.6's *last visited child*),
* intrusive LRU-list links (``lru_prev`` / ``lru_next``) used when the tree's
  node budget is capped (Section 9.3 / Figure 13),
* ``base`` -- for a copy-on-write overlay's node, the read-only node of the
  shared base tree it shadows.  Its ``children`` then hold only the edges
  the overlay has copied or created; every other edge is read from
  ``base.children`` (see :meth:`TreeNode.child_items`).  ``None`` on every
  node of a private tree, on base nodes and on overlay-new nodes, whose
  ``children`` are complete.

The paper reports 40 bytes per node in its C simulator; the Python node is
larger, but the *node count* is what Figure 13 sweeps, so we cap on count and
convert to the paper's bytes-per-node when reporting.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple


class TreeNode:
    """A single prefetch-tree node.  Mutable, identity-based."""

    __slots__ = (
        "block",
        "weight",
        "children",
        "max_child_weight",
        "parent",
        "last_visited_child",
        "lru_prev",
        "lru_next",
        "heavy",
        "heavy_rebuild_at",
        "base",
    )

    def __init__(self, block: Optional[int], parent: Optional["TreeNode"]) -> None:
        self.block = block
        self.weight = 1
        self.children: Dict[int, "TreeNode"] = {}
        # Never below any child's weight; exact unless a budget eviction
        # removed the heaviest child.  Overlay nodes bound their base
        # node's children too.
        self.max_child_weight = 0
        self.parent = parent
        self.last_visited_child: Optional[int] = None
        self.lru_prev: Optional["TreeNode"] = None
        self.lru_next: Optional["TreeNode"] = None
        # Lazily built index of children above the relevance floor; see
        # PrefetchTree.iter_relevant_children.  None = scan children directly.
        self.heavy: Optional[Dict[int, "TreeNode"]] = None
        self.heavy_rebuild_at: int = 0
        # The shared base node this overlay node shadows; see the module
        # docstring.  None = ``children`` is complete.
        self.base: Optional["TreeNode"] = None

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def is_leaf(self) -> bool:
        return not self.has_children()

    def has_children(self) -> bool:
        """True when the node has outgoing edges, base edges included.

        Overlay nodes (``base`` set) own only the copy-on-write children
        they have materialised; the unmodified rest live on the shadowed
        base node, so emptiness checks must consult both maps.
        """
        if self.children:
            return True
        return self.base is not None and bool(self.base.children)

    def child_probability(self, block: int) -> float:
        """Probability that ``block`` is accessed next from this node.

        ``weight(child) / weight(self)`` per Section 2; 0.0 if no such edge.
        Falls through to the shadowed base node for children an overlay has
        not materialised.
        """
        child = self.children.get(block)
        if child is None and self.base is not None:
            child = self.base.children.get(block)
        if child is None:
            return 0.0
        return child.weight / self.weight

    def child_items(self) -> Iterable[Tuple[int, "TreeNode"]]:
        """``(block, child)`` for every outgoing edge, base edges included.

        A node that shadows a base node yields the base's children in base
        insertion order, with the owned copies substituted, and then the
        children created since in creation order: the order a private
        copy restored from the base's snapshot observes (restored
        children first, new ones appended).
        """
        base = self.base
        if base is None:
            return self.children.items()
        if not self.children:
            return base.children.items()
        return _merged_items(self.children, base.children)

    def iter_descendants(self) -> Iterator["TreeNode"]:
        """Yield every node in this subtree (excluding ``self``), depth-first."""
        stack = list(self.children.values())
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def subtree_size(self) -> int:
        """Number of nodes in this subtree including ``self``."""
        return 1 + sum(1 for _ in self.iter_descendants())

    def depth(self) -> int:
        """Distance from the root (root has depth 0)."""
        d = 0
        node = self
        while node.parent is not None:
            node = node.parent
            d += 1
        return d

    def path_blocks(self) -> list:
        """Blocks along the root-to-self path (root excluded)."""
        blocks = []
        node = self
        while node.parent is not None:
            blocks.append(node.block)
            node = node.parent
        blocks.reverse()
        return blocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = "ROOT" if self.is_root else repr(self.block)
        return f"<TreeNode {label} w={self.weight} children={len(self.children)}>"


def _merged_items(children, base_children):
    for block, child in base_children.items():
        yield block, children.get(block, child)
    for block, child in children.items():
        if block not in base_children:
            yield block, child

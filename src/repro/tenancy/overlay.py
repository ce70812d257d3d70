"""Copy-on-write prefetch-tree overlays: one shared base, many sessions.

A worker serving thousands of sessions for one tenant should not hold
thousands of copies of the tenant's trained prefetch tree.  An
:class:`OverlayTree` references a shared, read-only *base*
:class:`~repro.core.tree.PrefetchTree` and materialises private copies of
nodes only along the paths a session actually walks.

The overlay runs :class:`~repro.core.tree.PrefetchTree`'s own parse step,
candidate enumeration (heavy index included), queries and node-record
snapshot format.  Each of them reads ``TreeNode.base``: an owned node that
shadows a base node holds only the children it has copied or created, and
every other edge is read from the base node.  What this module adds is
the overlay-specific part:

* **the frozen-base view** — the root starts as a copy of the base root,
  and the first traversal of a base edge copies that child into the
  overlay (weight, last-visited-child, heavy index, rebuild threshold,
  child-weight bound); all further mutation happens on the copy, and
  brand-new parse substrings create overlay-only nodes;
* **no recency** — overlays reject ``max_nodes`` budgets (LRU eviction
  would have to mutate shared state), so the LRU hooks do nothing; the
  tenancy manager falls back to private warm-starts for budgeted trees;
* **the base never changes** — base node weights, children maps and LRU
  state are frozen for the lifetime of the serving process, which is
  what makes sharing across sessions safe on one event loop.  Heavy-index
  rebuilds on base nodes are allowed: a frozen node's rebuilt index is a
  deterministic, idempotent function of frozen state.

Decision parity is the design constraint: a session running on an overlay
must produce **bit-identical advice** to a session whose policy restored a
private copy of the same base snapshot.  Copies take the base node's state
verbatim, and a shadowing node enumerates its children in the order a
restored private tree observes (see :meth:`TreeNode.child_items`).

Overlays serialise as ``tree-delta`` model states carrying only the owned
subtree plus a reference to their base; :func:`fold_overlays` merges one
or more session deltas back into a full ``tree`` state for offline
promotion to a new base version.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.node import TreeNode
from repro.core.tree import PrefetchTree, TreeStats
from repro.store.codec import SnapshotError

#: Model kind carried by overlay snapshots (vs the base tree's ``tree``).
DELTA_MODEL_KIND = "tree-delta"


class OverlayError(Exception):
    """The base tree cannot back an overlay (e.g. it carries a node budget)."""


class OverlayTree(PrefetchTree):
    """A session-private copy-on-write view over a shared base tree.

    Parameters
    ----------
    base:
        The shared, fully-restored :class:`PrefetchTree`.  Must be
        unbudgeted (``max_nodes is None``) and is treated as immutable
        (only idempotent heavy-index rebuilds ever touch it).
    base_ref:
        Opaque JSON-able identification of the base (tenant name, registry
        spec) embedded in delta snapshots so resume can re-bind the right
        base and fail loudly on a mismatch.
    """

    snapshot_kind = DELTA_MODEL_KIND

    def __init__(
        self,
        base: PrefetchTree,
        *,
        base_ref: Optional[Dict[str, Any]] = None,
    ) -> None:
        if base.max_nodes is not None:
            raise OverlayError(
                "overlays require an unbudgeted base tree (max_nodes=None); "
                "LRU eviction would mutate shared state"
            )
        super().__init__(max_nodes=None)
        self.base = base
        self.base_ref: Dict[str, Any] = dict(base_ref or {})
        self._reset_from_base()

    # ------------------------------------------------------ copy-on-write

    def _reset_from_base(self) -> None:
        """Initialise the overlay to a fresh view of the base."""
        base = self.base
        self.root = _shadow(base.root, None)
        self.stats = TreeStats(**asdict(base.stats))
        self._node_count = base.node_count
        self._materialized = 0
        # Mirror the base's parse position: materialise the root-to-current
        # path so the first accesses continue the parse exactly where the
        # base snapshot stopped — as a private restore would.
        cur = self.root
        for block in base.current.path_blocks():
            cur = self._materialize(cur, cur.base.children[block])
        self.current = cur

    def _materialize(self, parent: TreeNode, shadowed: TreeNode) -> TreeNode:
        """Copy one base child into the overlay under an owned parent."""
        node = _shadow(shadowed, parent)
        block = node.block
        parent.children[block] = node
        # The owned parent's heavy index may still point at the base child;
        # swap in the copy so future weight bumps are seen by enumeration.
        if parent.heavy is not None and block in parent.heavy:
            parent.heavy[block] = node
        self._materialized += 1
        return node

    def _lru_touch(self, node: TreeNode) -> None:
        """Overlays are unbudgeted and their deltas carry no recency."""

    _lru_push_front = _lru_touch

    def delta_items(self) -> int:
        """Owned (session-private) non-root nodes: the session's marginal
        model footprint, what per-session memory accounting charges.

        Materialised copies plus the nodes the overlay created.
        """
        return self._materialized + self._node_count - self.base.node_count

    # ----------------------------------------------------------- snapshots

    def snapshot_state(self) -> Tuple[Dict[str, Any], List[Any]]:
        """Serialise only the owned subtree (the session's delta).

        Same node records as the base tree's snapshot, but the id space
        covers owned nodes only and the meta carries the base reference
        plus the base's item count as a binding check.
        """
        ids, records, root_meta = self._node_records()
        meta = {
            "base": dict(self.base_ref),
            "base_items": self.base.memory_items(),
            "root": root_meta,
            "current": ids[id(self.current)],
            "stats": asdict(self.stats),
        }
        return meta, records

    def restore_state(self, meta: Dict[str, Any], items: List[Any]) -> None:
        """Rebuild the overlay from a delta snapshot, onto ``self.base``.

        The caller (the tenancy manager's model factory) must have
        constructed this overlay over the same base the snapshot was taken
        against; ``base_items`` guards against a silently swapped base.
        """
        if meta.get("base_items") != self.base.memory_items():
            raise SnapshotError(
                f"delta snapshot was taken against a base with "
                f"{meta.get('base_items')!r} nodes; bound base has "
                f"{self.base.memory_items()} (base ref: {meta.get('base')!r})"
            )
        # The delta carries the whole owned subtree, parse position included.
        self.root = _shadow(self.base.root, None)
        nodes = self._read_node_records(meta["root"], items)
        self._materialized = sum(
            1 for node in nodes.values() if node.base is not None
        ) - 1  # the root copy
        self._node_count = (
            self.base.node_count + len(items) - self._materialized
        )
        self.current = nodes[meta["current"]]
        self.stats = TreeStats(**meta["stats"])

    def check_invariants(self) -> None:
        """Overlay-specific structural invariants (the base-class LRU and
        count checks do not apply to a partial view).

        Every owned node's ``max_child_weight`` bounds its merged child
        view, base children included."""
        materialized = 0
        new = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            for _, child in node.child_items():
                assert child.weight <= node.max_child_weight, (
                    f"child weight above its parent's bound at {child!r}"
                )
            stack.extend(node.children.values())
            if node is self.root:
                continue
            assert node.parent is not None
            assert node.parent.children.get(node.block) is node
            if node.base is None:
                new += 1
                continue
            assert node.parent.base is not None, (
                "owned node shadows a base child under a parent with no base"
            )
            assert node.base.block == node.block
            assert node.weight >= node.base.weight, (
                f"overlay weight fell below base at {node!r}"
            )
            materialized += 1
        assert materialized == self._materialized, (
            materialized, self._materialized
        )
        assert self._node_count == self.base.node_count + new, (
            self._node_count, self.base.node_count, new
        )
        # The parse pointer must sit on an owned node (or the root copy).
        cur: Optional[TreeNode] = self.current
        while cur is not None and cur is not self.root:
            cur = cur.parent
        assert cur is self.root, "parse pointer escaped the owned subtree"


def _shadow(shadowed: TreeNode, parent: Optional[TreeNode]) -> TreeNode:
    """An owned copy of a base node that reads its other edges from it."""
    node = TreeNode(block=shadowed.block, parent=parent)
    node.weight = shadowed.weight
    node.last_visited_child = shadowed.last_visited_child
    node.heavy = None if shadowed.heavy is None else dict(shadowed.heavy)
    node.heavy_rebuild_at = shadowed.heavy_rebuild_at
    node.max_child_weight = shadowed.max_child_weight
    node.base = shadowed
    return node


# ------------------------------------------------------------------- fold


def fold_overlays(
    base: PrefetchTree, overlays: Sequence[OverlayTree]
) -> PrefetchTree:
    """Merge session deltas back into a full private tree (offline).

    Weight increments are summed per node across overlays (each overlay's
    contribution is its owned weight minus the base weight); overlay-new
    subtrees are grafted after the base children, merged recursively when
    several overlays created the same substring.  Last-visited-child marks
    take the last overlay's value, and heavy indexes are dropped — the new
    base rebuilds them lazily, which is valid for a *new* model version
    (parity only binds within one base generation).  Recency (LRU order)
    is not represented in deltas, so the folded tree's LRU is preorder;
    folding is for promoting trained state, not for resuming budgeted
    parses.
    """
    for overlay in overlays:
        if overlay.base is not base:
            raise OverlayError(
                "fold_overlays requires every overlay to share the given "
                "base tree instance"
            )
    items: List[Any] = []
    next_id = [1]

    def emit(parent_id, block, weight, lvc) -> int:
        nid = next_id[0]
        next_id[0] += 1
        items.append([nid, parent_id, block, weight, lvc, None, 0])
        return nid

    def walk(
        parent_id: int,
        base_node: Optional[TreeNode],
        shadows: List[TreeNode],
    ) -> None:
        shadow_children = [s.children for s in shadows]
        if base_node is not None:
            for blk, bchild in base_node.children.items():
                group = [sc[blk] for sc in shadow_children if blk in sc]
                weight = bchild.weight + sum(
                    s.weight - bchild.weight for s in group
                )
                lvc = (
                    group[-1].last_visited_child
                    if group else bchild.last_visited_child
                )
                walk(emit(parent_id, blk, weight, lvc), bchild, group)
        seen = set()
        for sc in shadow_children:
            for blk in sc:
                if base_node is not None and blk in base_node.children:
                    continue
                if blk in seen:
                    continue
                seen.add(blk)
                group = [c[blk] for c in shadow_children if blk in c]
                weight = sum(g.weight for g in group)
                lvc = group[-1].last_visited_child
                walk(emit(parent_id, blk, weight, lvc), None, group)

    roots = [o.root for o in overlays]
    walk(0, base.root, roots)
    root_weight = base.root.weight + sum(
        o.root.weight - base.root.weight for o in overlays
    )
    stats = asdict(base.stats)
    for overlay in overlays:
        ostats = asdict(overlay.stats)
        bstats = asdict(base.stats)
        for key in stats:
            stats[key] += ostats[key] - bstats[key]
    lvc = roots[-1].last_visited_child if roots else base.root.last_visited_child
    meta = {
        "max_nodes": None,
        "root": {
            "weight": root_weight,
            "lvc": lvc,
            "heavy": None,
            "rebuild_at": 0,
        },
        "current": 0,
        "lru": [record[0] for record in items],
        "stats": stats,
    }
    folded = PrefetchTree()
    folded.restore_state(meta, items)
    return folded

"""Copy-on-write prefetch-tree overlays: one shared base, many sessions.

A worker serving thousands of sessions for one tenant should not hold
thousands of copies of the tenant's trained prefetch tree.  An
:class:`OverlayTree` references a shared, read-only *base*
:class:`~repro.core.tree.PrefetchTree` and materialises private copies of
nodes only along the paths a session actually walks:

* **reads fall through** — candidate enumeration, predictability checks,
  and path probabilities consult the overlay's private nodes first and the
  base tree for everything the session has not touched;
* **writes copy** — the first traversal of a base edge copies that child
  into the overlay (weight, last-visited-child, heavy index, rebuild
  threshold) and all further mutation happens on the copy; brand-new
  parse substrings create overlay-only nodes;
* **the base never changes** — base node weights, children maps, and LRU
  state are frozen for the lifetime of the serving process, which is what
  makes sharing across sessions safe on one event loop.

Decision parity is the design constraint: a session running on an overlay
must produce **bit-identical advice** to a session whose policy restored a
private copy of the same base snapshot.  That pins several details:

* owned nodes copy ``weight``/``lvc``/``heavy``/``heavy_rebuild_at``
  verbatim at materialisation time, so probabilities and heavy-index
  membership match the private copy at every step;
* child enumeration yields base children in base insertion order
  (substituting owned copies) followed by overlay-new children in creation
  order — exactly the order a restored private tree observes (restored
  children first, created children appended);
* heavy-index rebuilds on *base* nodes are allowed: a base node's weight
  is frozen, so the rebuilt index is a deterministic, idempotent function
  of frozen state — every session (and a private copy) derives the same
  index in the same order.

The one divergence from a private tree is deliberate: overlays reject
``max_nodes`` budgets (LRU eviction would have to mutate shared state);
the tenancy manager falls back to private warm-starts for budgeted trees.

Overlays serialise as ``tree-delta`` model states carrying only the owned
subtree plus a reference to their base; :func:`fold_overlays` merges one
or more session deltas back into a full ``tree`` state for offline
promotion to a new base version.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.core.node import TreeNode
from repro.core.tree import (
    HEAVY_ACTIVATION,
    HEAVY_CHILD_DIVISOR,
    AccessOutcome,
    PrefetchTree,
    TreeStats,
)
from repro.store.codec import SnapshotError

Block = Hashable

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
        self._owned_count = 0
        self._reset_from_base()

    # ------------------------------------------------------------ plumbing

    def _reset_from_base(self) -> None:
        """(Re)initialise the overlay to a fresh view of the base."""
        base = self.base
        root = TreeNode(block=None, parent=None)
        root.weight = base.root.weight
        root.last_visited_child = base.root.last_visited_child
        root.heavy = None if base.root.heavy is None else dict(base.root.heavy)
        root.heavy_rebuild_at = base.root.heavy_rebuild_at
        root.max_child_weight = base.root.max_child_weight
        root.base = base.root
        self.root = root
        self.current = root
        self.stats = TreeStats(**asdict(base.stats))
        self._node_count = base.node_count
        self._owned_count = 0
        # Mirror the base's parse position: materialise the root-to-current
        # path so the first accesses continue the parse exactly where the
        # base snapshot stopped — as a private restore would.
        cur = root
        for block in base.current.path_blocks():
            assert cur.base is not None
            cur = self._materialize(cur, block, cur.base.children[block])
        self.current = cur

    def _materialize(
        self, parent: TreeNode, block: Block, base_child: TreeNode
    ) -> TreeNode:
        """Copy one base child into the overlay under an owned parent."""
        node = TreeNode(block=block, parent=parent)
        node.weight = base_child.weight
        node.last_visited_child = base_child.last_visited_child
        node.heavy = (
            None if base_child.heavy is None else dict(base_child.heavy)
        )
        node.heavy_rebuild_at = base_child.heavy_rebuild_at
        node.max_child_weight = base_child.max_child_weight
        node.base = base_child
        parent.children[block] = node
        # The owned parent's heavy index may still point at the base child;
        # swap in the copy so future weight bumps are seen by enumeration.
        if parent.heavy is not None and block in parent.heavy:
            parent.heavy[block] = node
        self._owned_count += 1
        return node

    def _iter_union(self, node: TreeNode):
        """Merged child view of an owned node shadowing a base node.

        Base children come first in base insertion order (owned copies
        substituted), then overlay-new children in creation order — the
        order a private restored tree would enumerate.
        """
        children = node.children
        assert node.base is not None
        bchildren = node.base.children
        for blk, bchild in bchildren.items():
            yield blk, children.get(blk, bchild)
        for blk, child in children.items():
            if blk not in bchildren:
                yield blk, child

    # ----------------------------------------------------------- recording

    def record_access(self, block: Block) -> AccessOutcome:
        """LZ parse step with copy-on-write materialisation.

        Mirrors :meth:`PrefetchTree.record_access` decision for decision;
        the only structural differences are the materialisation of base
        children on first traversal and the absence of LRU/budget work
        (overlays are unbudgeted by construction).
        """
        cur = self.current
        stats = self.stats
        stats.accesses += 1

        child = cur.children.get(block)
        if child is None and cur.base is not None:
            base_child = cur.base.children.get(block)
            if base_child is not None:
                child = self._materialize(cur, block, base_child)
        at_root = cur is self.root
        predictable = child is not None
        probability = (
            child.weight / cur.weight
            if (predictable and cur.weight > 0)
            else 0.0
        )
        lvc_available = cur.last_visited_child is not None
        lvc_repeat = lvc_available and cur.last_visited_child == block
        if predictable:
            stats.predictable += 1
        if lvc_available:
            stats.lvc_opportunities += 1
            if lvc_repeat:
                stats.lvc_repeats += 1
            if not at_root:
                stats.lvc_opportunities_nonroot += 1
                if lvc_repeat:
                    stats.lvc_repeats_nonroot += 1

        if at_root:
            self.root.weight += 1
            stats.substrings += 1

        created = False
        if child is not None:
            weight = child.weight + 1
            child.weight = weight
            if weight > cur.max_child_weight:
                cur.max_child_weight = weight
            heavy = cur.heavy
            if (
                heavy is not None
                and block not in heavy
                and weight * HEAVY_CHILD_DIVISOR >= cur.weight
            ):
                heavy[block] = child
            cur.last_visited_child = block
            self.current = child
        else:
            node = TreeNode(block, cur)
            cur.children[block] = node
            if not cur.max_child_weight:
                cur.max_child_weight = 1
            if cur.heavy is not None and HEAVY_CHILD_DIVISOR >= cur.weight:
                cur.heavy[block] = node
            cur.last_visited_child = block
            self._node_count += 1
            self._owned_count += 1
            stats.nodes_created += 1
            self.current = self.root
            created = True

        return AccessOutcome(block, predictable, probability, lvc_available,
                             lvc_repeat, at_root, created)

    # ------------------------------------------------------------- queries

    def delta_items(self) -> int:
        """Owned (session-private) non-root nodes: the session's marginal
        model footprint, what per-session memory accounting charges."""
        return self._owned_count

    def iter_relevant_children(self, node: TreeNode):
        """Overlay-aware relevant-children enumeration.

        Owned nodes that shadow a base node enumerate the merged child
        view; pure base nodes and overlay-new nodes have complete child
        maps and use the inherited logic unchanged (heavy rebuilds on
        frozen base nodes are deterministic and idempotent, hence safe to
        share).
        """
        if node.base is None:
            return super().iter_relevant_children(node)
        heavy = node.heavy
        if heavy is None:
            new_children = sum(
                1 for blk in node.children if blk not in node.base.children
            )
            if len(node.base.children) + new_children <= HEAVY_ACTIVATION:
                return list(self._iter_union(node))
        elif node.weight < node.heavy_rebuild_at:
            return heavy.items()
        rebuilt = {
            b: c
            for b, c in self._iter_union(node)
            if c.weight * HEAVY_CHILD_DIVISOR >= node.weight
        }
        node.heavy = rebuilt
        node.heavy_rebuild_at = max(2 * node.weight, 2)
        return rebuilt.items()

    def is_predictable(self, block: Block) -> bool:
        cur = self.current
        if block in cur.children:
            return True
        return cur.base is not None and block in cur.base.children

    def path_probability(self, blocks: List[Block]) -> float:
        node = self.current
        prob = 1.0
        for block in blocks:
            child = node.children.get(block)
            if child is None and node.base is not None:
                child = node.base.children.get(block)
            if child is None or node.weight <= 0:
                return 0.0
            prob *= child.weight / node.weight
            node = child
        return prob

    def iter_nodes(self) -> Iterator[TreeNode]:
        """All non-root nodes of the merged view, depth-first.

        Yields the owned copy where one exists, the base node otherwise.
        """
        stack: List[TreeNode] = [
            child for _, child in self._iter_union(self.root)
        ]
        while stack:
            node = stack.pop()
            yield node
            if node.base is not None:
                stack.extend(
                    child for _, child in self._iter_union(node)
                )
            else:
                stack.extend(node.children.values())

    # ----------------------------------------------------------- snapshots

    def snapshot_state(self) -> Tuple[Dict[str, Any], List[Any]]:
        """Serialise only the owned subtree (the session's delta).

        Same per-node record layout as the base tree's snapshot, but the
        id space covers owned nodes only and the meta carries the base
        reference plus the base's item count as a binding check.
        """
        ids: Dict[int, int] = {id(self.root): 0}
        records: List[Any] = []
        stack = list(reversed(list(self.root.children.values())))
        next_id = 1
        while stack:
            node = stack.pop()
            nid = next_id
            next_id += 1
            ids[id(node)] = nid
            assert node.parent is not None
            records.append([
                nid,
                ids[id(node.parent)],
                node.block,
                node.weight,
                node.last_visited_child,
                None if node.heavy is None else list(node.heavy.keys()),
                node.heavy_rebuild_at,
            ])
            stack.extend(reversed(list(node.children.values())))
        meta = {
            "base": dict(self.base_ref),
            "base_items": self.base.memory_items(),
            "root": {
                "weight": self.root.weight,
                "lvc": self.root.last_visited_child,
                "heavy": (None if self.root.heavy is None
                          else list(self.root.heavy.keys())),
                "rebuild_at": self.root.heavy_rebuild_at,
            },
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
        self._reset_from_base()
        # Discard the init-time path materialisation; the delta carries the
        # whole owned subtree, parse position included.
        self.root.children.clear()
        self._owned_count = 0
        self._node_count = self.base.node_count
        root_meta = meta["root"]
        self.root.weight = root_meta["weight"]
        self.root.last_visited_child = root_meta["lvc"]
        self.root.heavy_rebuild_at = root_meta["rebuild_at"]
        nodes: Dict[int, TreeNode] = {0: self.root}
        for nid, parent_id, block, weight, lvc, _heavy, rebuild_at in items:
            parent = nodes[parent_id]
            node = TreeNode(block=block, parent=parent)
            node.weight = weight
            node.last_visited_child = lvc
            node.heavy_rebuild_at = rebuild_at
            if parent.base is not None:
                node.base = parent.base.children.get(block)
            if node.base is not None:
                node.max_child_weight = node.base.max_child_weight
            parent.children[block] = node
            if weight > parent.max_child_weight:
                parent.max_child_weight = weight
            nodes[nid] = node
            self._owned_count += 1
            if node.base is None:
                self._node_count += 1
        # Heavy keys resolve against the merged child view, so a second
        # pass once every owned child exists.
        def _resolve(owner: TreeNode, keys: List[Any]) -> Dict[Any, TreeNode]:
            resolved: Dict[Any, TreeNode] = {}
            for b in keys:
                child = owner.children.get(b)
                if child is None and owner.base is not None:
                    child = owner.base.children.get(b)
                if child is None:
                    raise SnapshotError(
                        f"delta heavy index references unknown child {b!r}"
                    )
                resolved[b] = child
            return resolved

        for nid, _parent_id, _block, _weight, _lvc, heavy, _rebuild in items:
            if heavy is not None:
                nodes[nid].heavy = _resolve(nodes[nid], heavy)
        if root_meta["heavy"] is not None:
            self.root.heavy = _resolve(self.root, root_meta["heavy"])
        else:
            self.root.heavy = None
        self.current = nodes[meta["current"]]
        self.stats = TreeStats(**meta["stats"])

    def check_invariants(self) -> None:
        """Overlay-specific structural invariants (the base-class LRU and
        count checks do not apply to a partial view).

        Every owned node's ``max_child_weight`` bounds its merged child
        view, base children included."""
        owned = 0
        new = 0
        for _, child in self._iter_union(self.root):
            assert child.weight <= self.root.max_child_weight, (
                f"child weight above the root's bound at {child!r}"
            )
        stack = list(self.root.children.values())
        while stack:
            node = stack.pop()
            owned += 1
            view = (
                self._iter_union(node) if node.base is not None
                else node.children.items()
            )
            for _, child in view:
                assert child.weight <= node.max_child_weight, (
                    f"child weight above its parent's bound at {child!r}"
                )
            assert node.parent is not None
            assert node.parent.children.get(node.block) is node
            assert node.parent.base is not None or node.base is None, (
                "owned node shadows a base child under a parent with no base"
            )
            if node.base is not None:
                assert node.base.block == node.block
                assert node.weight >= node.base.weight, (
                    f"overlay weight fell below base at {node!r}"
                )
            else:
                new += 1
            stack.extend(node.children.values())
        assert owned == self._owned_count, (owned, self._owned_count)
        assert self._node_count == self.base.node_count + new, (
            self._node_count, self.base.node_count, new
        )
        # The parse pointer must sit on an owned node (or the root copy).
        node: Optional[TreeNode] = self.current
        while node is not None and node is not self.root:
            node = node.parent
        assert node is self.root, "parse pointer escaped the owned subtree"


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

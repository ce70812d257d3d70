"""The LZ78-style prefetch tree (Section 2).

The tree is built online from the stream of block accesses.  The access
stream is parsed into *substrings*, each consisting of a previously seen
substring plus one new access (the classic LZ78 parse of Vitter & Krishnan
[19] as used by Curewitz et al. [5]).

Parsing maintains a *current node* pointer:

* start at the root; the root's weight is incremented once per substring;
* on an access ``b``: if the current node has a child for ``b``, traverse the
  edge and increment the child's weight; otherwise create a new child with
  weight 1 (this completes a substring) and reset the pointer to the root.

Edge probability is ``weight(child)/weight(parent)``; the probability of a
candidate several levels below the current node is the product of the edge
probabilities along the path, and its *distance* ``d_b`` is the path length
(Figure 1).

Optional node budget (Section 9.3): nodes live on an intrusive LRU list,
touched whenever traversed; when the budget is exceeded the least recently
used node (with its - necessarily even older or equally old - subtree) is
discarded.  The root is never evicted.

Copy-on-write overlays (:class:`repro.tenancy.overlay.OverlayTree`) run
this same parse: their nodes may shadow nodes of a shared, read-only base
tree (``TreeNode.base``), and every step and query below reads the edges
an overlay has not copied from there.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import (
    Any, Dict, Hashable, Iterable, Iterator, List, NamedTuple, Optional, Tuple,
)

from repro.core.node import TreeNode

Block = Hashable


class AccessOutcome(NamedTuple):
    """What happened in the tree when one access was recorded.

    Captures the per-access signals that the paper's Section 9 metrics are
    built from, *measured against the tree state before the update*.
    """

    block: Block
    #: The accessed block was a child of the current node (Section 9.4).
    predictable: bool
    #: Edge probability of the accessed block from the current node (0.0
    #: when unpredictable).
    probability: float
    #: The current node had a last-visited-child recorded.
    lvc_available: bool
    #: The access repeated the current node's last-visited child (Table 3).
    lvc_repeat: bool
    #: The access was processed at the root (start of a substring).  Root
    #: opportunities almost never repeat their last visited child, so
    #: Table 3 is reported both over all nodes and over non-root nodes.
    at_root: bool
    #: A new node was created, i.e. a substring boundary was crossed.
    created_node: bool


@dataclass
class TreeStats:
    """Running counters over all recorded accesses."""

    accesses: int = 0
    predictable: int = 0
    lvc_opportunities: int = 0
    lvc_repeats: int = 0
    lvc_opportunities_nonroot: int = 0
    lvc_repeats_nonroot: int = 0
    nodes_created: int = 0
    nodes_evicted: int = 0
    substrings: int = 0

    @property
    def prediction_accuracy(self) -> float:
        """Fraction of accesses that were predictable (Table 2)."""
        if self.accesses == 0:
            return 0.0
        return self.predictable / self.accesses

    @property
    def lvc_repeat_rate(self) -> float:
        """Fraction of visits that repeated the last visited child (Table 3)."""
        if self.lvc_opportunities == 0:
            return 0.0
        return self.lvc_repeats / self.lvc_opportunities

    @property
    def lvc_repeat_rate_nonroot(self) -> float:
        """Table 3's rate restricted to non-root nodes.

        On traces much shorter than the paper's, parse restarts make root
        visits a large share of opportunities and the root's last child is
        essentially never repeated; the non-root rate recovers the mature
        per-node behaviour.
        """
        if self.lvc_opportunities_nonroot == 0:
            return 0.0
        return self.lvc_repeats_nonroot / self.lvc_opportunities_nonroot


#: Children at probability below ~1/HEAVY_CHILD_DIVISOR are never worth
#: prefetching (the depth-1 profitability floor with the paper's constants
#: is ~0.037, and the lowest Table 4 threshold is 0.001); nodes with many
#: children keep an index of the ones above this floor so candidate
#: enumeration does not scan thousands of cold edges at hub nodes.
HEAVY_CHILD_DIVISOR = 1024
#: Nodes with at most this many children are scanned directly.
HEAVY_ACTIVATION = 64

#: Paper's storage estimate per tree node, bytes (Section 9.3, Figure 13).
PAPER_NODE_BYTES = 40
#: Paper's compacted storage estimate (pointers replaced by short ints).
PAPER_NODE_BYTES_COMPACT = 26


class PrefetchTree:
    """Online LZ78 prefetch tree with optional LRU-bounded node budget.

    Parameters
    ----------
    max_nodes:
        Maximum number of non-root nodes to retain, or ``None`` for an
        unbounded tree.  When the budget would be exceeded, least recently
        traversed nodes are evicted (Section 9.3).
    """

    def __init__(self, max_nodes: Optional[int] = None) -> None:
        if max_nodes is not None and max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {max_nodes!r}")
        self.max_nodes = max_nodes
        self.root = TreeNode(block=None, parent=None)
        self.root.weight = 0  # incremented once per substring
        self.current: TreeNode = self.root
        self.stats = TreeStats()
        self._node_count = 0  # non-root nodes
        # Intrusive LRU list sentinels: head = most recent, tail = least.
        self._lru_head = TreeNode(block=None, parent=None)
        self._lru_tail = TreeNode(block=None, parent=None)
        self._lru_head.lru_next = self._lru_tail
        self._lru_tail.lru_prev = self._lru_head

    # ------------------------------------------------------------------ LRU

    def _lru_unlink(self, node: TreeNode) -> None:
        prev, nxt = node.lru_prev, node.lru_next
        if prev is not None:
            prev.lru_next = nxt
        if nxt is not None:
            nxt.lru_prev = prev
        node.lru_prev = node.lru_next = None

    def _lru_push_front(self, node: TreeNode) -> None:
        first = self._lru_head.lru_next
        node.lru_prev = self._lru_head
        node.lru_next = first
        self._lru_head.lru_next = node
        assert first is not None
        first.lru_prev = node

    def _lru_touch(self, node: TreeNode) -> None:
        """Move a listed node to the most-recent end (unlink + push front)."""
        head = self._lru_head
        first = head.lru_next
        if first is node:
            return
        prev, nxt = node.lru_prev, node.lru_next
        assert prev is not None and nxt is not None and first is not None
        prev.lru_next = nxt
        nxt.lru_prev = prev
        node.lru_prev = head
        node.lru_next = first
        head.lru_next = node
        first.lru_prev = node

    def _evict_lru(self) -> int:
        """Discard the least recently traversed node (and its subtree).

        Returns the number of nodes removed.  Subtree removal is required for
        structural integrity; a node's descendants were last traversed no
        later than one traversal after the node itself, so the collateral
        evictions are themselves stale.
        """
        victim = self._lru_tail.lru_prev
        if victim is None or victim is self._lru_head:
            return 0
        removed = 0
        # Unlink the whole subtree from the LRU list first.
        for node in victim.iter_descendants():
            self._lru_unlink(node)
            removed += 1
        self._lru_unlink(victim)
        removed += 1
        parent = victim.parent
        assert parent is not None  # root is never on the LRU list
        del parent.children[victim.block]
        if parent.heavy is not None:
            parent.heavy.pop(victim.block, None)
        if parent.last_visited_child == victim.block:
            parent.last_visited_child = None
        victim.parent = None
        # If the parse pointer sat inside the removed subtree, restart at root.
        node = self.current
        while node is not None:
            if node is victim:
                # Pointer reset; the next access will open a fresh substring.
                self.current = self.root
                break
            node = node.parent
        self._node_count -= removed
        self.stats.nodes_evicted += removed
        return removed

    def _enforce_budget(self) -> None:
        if self.max_nodes is None:
            return
        while self._node_count > self.max_nodes:
            if self._evict_lru() == 0:
                break

    def _materialize(self, parent: TreeNode, shadowed: TreeNode) -> TreeNode:
        """Copy ``parent``'s base edge to ``shadowed`` into this tree
        (copy-on-write overlays only: a private tree has no base nodes)."""
        raise NotImplementedError

    # ------------------------------------------------------------ recording

    def record_access(self, block: Block) -> AccessOutcome:
        """Advance the LZ parse by one access and update all counters.

        Returns an :class:`AccessOutcome` describing the tree's view of the
        access *before* the structural update, which is what the paper's
        predictability and last-visited-child statistics measure.
        """
        cur = self.current
        stats = self.stats
        stats.accesses += 1

        child = cur.children.get(block)
        if child is None and cur.base is not None:
            shadowed = cur.base.children.get(block)
            if shadowed is not None:
                child = self._materialize(cur, shadowed)
        at_root = cur is self.root
        predictable = child is not None
        probability = child.weight / cur.weight if (predictable and cur.weight > 0) else 0.0
        lvc = cur.last_visited_child
        lvc_available = lvc is not None
        lvc_repeat = lvc_available and lvc == block
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
            # Each substring begins with one (implicit) visit to the root.
            cur.weight += 1
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
            self._lru_touch(child)
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
            stats.nodes_created += 1
            self._lru_push_front(node)
            self.current = self.root
            created = True
            self._enforce_budget()

        return AccessOutcome(block, predictable, probability, lvc_available,
                             lvc_repeat, at_root, created)

    def record_all(self, blocks: Iterable[Block]) -> None:
        """Feed an entire access sequence through the parse."""
        for block in blocks:
            self.record_access(block)

    # ------------------------------------------------------------- queries

    @property
    def node_count(self) -> int:
        """Number of non-root nodes currently in the tree."""
        return self._node_count

    def memory_bytes(self, bytes_per_node: int = PAPER_NODE_BYTES) -> int:
        """Estimated tree memory using the paper's bytes-per-node figure."""
        return self._node_count * bytes_per_node

    def iter_relevant_children(self, node: TreeNode):
        """Children of ``node`` worth considering as prefetch candidates.

        Returns an iterable of ``(block, child)`` pairs guaranteed to cover
        every child whose edge probability is at least
        ``1 / HEAVY_CHILD_DIVISOR`` (it may include some below the floor).
        Small nodes are scanned directly; hub nodes (notably the root, which
        collects a child per distinct substring-starting block) maintain the
        lazily rebuilt ``heavy`` index so enumeration does not touch
        thousands of cold edges.  Rebuilds are amortised against weight
        doubling, and a node's child count never exceeds its weight.

        A node that shadows a base node scans its merged child view; the
        index of a frozen base node rebuilds identically for every overlay.
        """
        heavy = node.heavy
        if heavy is not None and node.weight < node.heavy_rebuild_at:
            return heavy.items()
        base = node.base
        if base is None:
            children = node.children.items()
            small = len(children) <= HEAVY_ACTIVATION
        else:
            children = node.child_items()
            own, inherited = node.children, base.children
            # Copied children sit in both maps; count them once only when
            # the plain sum does not already prove the node small.
            small = (
                len(own) + len(inherited) <= HEAVY_ACTIVATION
                or len(own.keys() | inherited.keys()) <= HEAVY_ACTIVATION
            )
        if heavy is None and small:
            return children
        rebuilt = {
            b: c
            for b, c in children
            if c.weight * HEAVY_CHILD_DIVISOR >= node.weight
        }
        node.heavy = rebuilt
        node.heavy_rebuild_at = max(2 * node.weight, 2)
        return rebuilt.items()

    def next_probabilities(self) -> List[Tuple[Block, float]]:
        """Children of the current node with their access probabilities.

        These are the depth-1 prefetch candidates; sorted most probable
        first.  Enumerates via the relevant-children index, so hub nodes
        (the root can hold tens of thousands of cold edges) cost only their
        above-floor children; edges below ~1/1024 probability are omitted -
        no caller (top-k selection, cost-gated candidates) can use them.
        """
        cur = self.current
        if cur.weight <= 0:
            return []
        items = [
            (b, n.weight / cur.weight)
            for b, n in self.iter_relevant_children(cur)
        ]
        items.sort(key=lambda item: (-item[1], str(item[0])))
        return items

    def is_predictable(self, block: Block) -> bool:
        """Would ``block`` be a predictable next access (Section 9.4)?"""
        cur = self.current
        if block in cur.children:
            return True
        return cur.base is not None and block in cur.base.children

    def last_visited_child(self) -> Optional[Block]:
        """The current node's last visited child, if any (Section 9.6)."""
        return self.current.last_visited_child

    def iter_nodes(self) -> Iterator[TreeNode]:
        """All non-root nodes, depth-first.

        Through base edges too: an overlay yields its copy where it owns
        one and the base node otherwise.
        """
        stack = [child for _, child in self.root.child_items()]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(child for _, child in node.child_items())

    def path_probability(self, blocks: List[Block]) -> float:
        """Cumulative probability of following ``blocks`` from the current node.

        Product of edge probabilities along the path (Section 2's
        ``5/6 * 1/5`` example); 0.0 if the path leaves the tree.
        """
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

    # ----------------------------------------------------------- snapshots

    #: Snapshot body kind (see :mod:`repro.store`).
    snapshot_kind = "tree"

    def memory_items(self) -> int:
        """Model size in retained items; mirrors ``Predictor.memory_items``."""
        return self._node_count

    def _node_records(self) -> Tuple[Dict[int, int], List[Any], Dict[str, Any]]:
        """Preorder records of the nodes the tree owns, plus the root's.

        Records are ``[id, parent_id, block, weight, last_visited_child,
        heavy_keys_or_null, heavy_rebuild_at]``, siblings in child-map
        insertion order — the order every traversal in this module
        observes, so a restored tree is behaviourally *identical* to the
        original, not merely isomorphic.  The lazily built ``heavy`` index
        and its rebuild threshold are captured verbatim for the same
        reason.  Returns ``(ids by id(node), records, root fields)``.
        """
        root = self.root
        ids: Dict[int, int] = {id(root): 0}
        records: List[Any] = []
        stack = list(reversed(root.children.values()))
        while stack:
            node = stack.pop()
            nid = ids[id(node)] = len(records) + 1
            records.append([
                nid,
                ids[id(node.parent)],
                node.block,
                node.weight,
                node.last_visited_child,
                None if node.heavy is None else list(node.heavy),
                node.heavy_rebuild_at,
            ])
            stack.extend(reversed(node.children.values()))
        root_meta = {
            "weight": root.weight,
            "lvc": root.last_visited_child,
            "heavy": None if root.heavy is None else list(root.heavy),
            "rebuild_at": root.heavy_rebuild_at,
        }
        return ids, records, root_meta

    def _read_node_records(
        self, root_meta: Dict[str, Any], items: List[Any]
    ) -> Dict[int, TreeNode]:
        """Rebuild :meth:`_node_records` output under ``self.root``; a
        record under a shadowing node shadows the base child of its block,
        if there is one.  Returns the nodes by record id."""
        root = self.root
        root.weight = root_meta["weight"]
        root.last_visited_child = root_meta["lvc"]
        root.heavy_rebuild_at = root_meta["rebuild_at"]
        nodes: Dict[int, TreeNode] = {0: root}
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
        # Heavy indexes need the children maps complete, so a second pass.
        for nid, _parent_id, _block, _weight, _lvc, heavy, _rebuild in items:
            if heavy is not None:
                nodes[nid].heavy = _resolve_heavy(nodes[nid], heavy)
        root.heavy = (
            None if root_meta["heavy"] is None
            else _resolve_heavy(root, root_meta["heavy"])
        )
        return nodes

    def snapshot_state(self) -> Tuple[Dict[str, Any], List[Any]]:
        """Serialize the tree to JSON-able ``(meta, items)``: the node
        records of :meth:`_node_records` plus budget, parse position, LRU
        order and counters."""
        ids, records, root_meta = self._node_records()
        lru: List[int] = []
        walker = self._lru_head.lru_next
        while walker is not self._lru_tail:
            assert walker is not None
            lru.append(ids[id(walker)])
            walker = walker.lru_next
        meta = {
            "max_nodes": self.max_nodes,
            "root": root_meta,
            "current": ids[id(self.current)],
            "lru": lru,
            "stats": asdict(self.stats),
        }
        return meta, records

    def restore_state(self, meta: Dict[str, Any], items: List[Any]) -> None:
        """Rebuild the tree from :meth:`snapshot_state` output in place."""
        self.max_nodes = meta["max_nodes"]
        self.root = TreeNode(block=None, parent=None)
        nodes = self._read_node_records(meta["root"], items)
        self._node_count = len(items)
        self.current = nodes[meta["current"]]
        self.stats = TreeStats(**meta["stats"])
        self._lru_head = TreeNode(block=None, parent=None)
        self._lru_tail = TreeNode(block=None, parent=None)
        prev = self._lru_head
        for nid in meta["lru"]:
            node = nodes[nid]
            prev.lru_next = node
            node.lru_prev = prev
            prev = node
        prev.lru_next = self._lru_tail
        self._lru_tail.lru_prev = prev

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if structural invariants are violated.

        Used by the property-based tests:

        * every non-root node's weight is >= 1 and <= its parent's weight;
        * no child's weight exceeds its parent's ``max_child_weight``;
        * the LRU list contains exactly the non-root nodes;
        * child maps and parent pointers agree.
        """
        seen = 0
        for node in self.root.iter_descendants():
            seen += 1
            assert node.parent is not None
            assert node.parent.children.get(node.block) is node
            assert 1 <= node.weight <= node.parent.weight, (
                f"weight inversion at {node!r}"
            )
            assert node.weight <= node.parent.max_child_weight, (
                f"child weight above its parent's bound at {node!r}"
            )
        assert seen == self._node_count, (seen, self._node_count)
        on_list = 0
        node = self._lru_head.lru_next
        while node is not self._lru_tail:
            assert node is not None
            on_list += 1
            node = node.lru_next
        assert on_list == self._node_count, (on_list, self._node_count)
        if self.max_nodes is not None:
            assert self._node_count <= self.max_nodes


def _resolve_heavy(node: TreeNode, keys: List[Block]) -> Dict[Block, TreeNode]:
    """A restored heavy index: ``keys`` looked up in the merged child view
    (``KeyError`` on a key the node has no child for)."""
    children = node.children if node.base is None else dict(node.child_items())
    return {b: children[b] for b in keys}

"""Overlay-tree parity: a shared-base session must be indistinguishable
from one that restored a private copy of the same base snapshot.

Parity here is *bit-identical*, not approximate: every AccessOutcome,
every candidate enumeration, every advice list.  That is what lets the
serving layer swap private models for copy-on-write overlays without a
behaviour flag.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import best_candidates
from repro.core.tree import PrefetchTree
from repro.service.session import PrefetchSession
from repro.store.codec import SnapshotError
from repro.store.models import model_snapshot
from repro.tenancy.overlay import (
    DELTA_MODEL_KIND,
    OverlayError,
    OverlayTree,
    fold_overlays,
)


def lcg_trace(n, seed=7, universe=120):
    x = seed
    out = []
    for _ in range(n):
        x = (x * 1103515245 + 12345) % (2 ** 31)
        out.append(x % universe)
    return out


def trained_base(n=4000, universe=60, seed=3):
    rng = random.Random(seed)
    base = PrefetchTree()
    base.record_all(rng.randrange(universe) for _ in range(n))
    return base


def private_copy(base):
    meta, items = base.snapshot_state()
    tree = PrefetchTree()
    tree.restore_state(meta, items)
    return tree


class TestTreeParity:
    def test_outcomes_and_candidates_match_private_copy(self):
        base = trained_base()
        priv = private_copy(base)
        overlay = OverlayTree(base, base_ref={"tenant": "t"})
        rng = random.Random(11)
        for _ in range(3000):
            block = rng.randrange(70)  # includes blocks the base never saw
            assert priv.record_access(block) == overlay.record_access(block)
            if rng.random() < 0.05:
                assert (best_candidates(priv, max_depth=4)
                        == best_candidates(overlay, max_depth=4))
        overlay.check_invariants()
        assert priv.next_probabilities() == overlay.next_probabilities()
        assert priv.node_count == overlay.node_count
        assert priv.memory_items() == overlay.memory_items()
        # The overlay owns strictly fewer nodes than the merged view.
        assert 0 < overlay.delta_items() < overlay.node_count

    def test_query_surface_matches(self):
        base = trained_base()
        priv = private_copy(base)
        overlay = OverlayTree(base)
        for tree in (priv, overlay):
            tree.record_all(lcg_trace(500, seed=9))
        assert priv.is_predictable(3) == overlay.is_predictable(3)
        for path in ([1], [2, 3], [4, 5, 6]):
            assert priv.path_probability(path) == overlay.path_probability(path)
        assert priv.last_visited_child() == overlay.last_visited_child()
        assert (sorted(n.block for n in priv.iter_nodes())
                == sorted(n.block for n in overlay.iter_nodes()))

    def test_base_structure_is_never_mutated(self):
        base = trained_base()
        want_items = base.memory_items()
        want_weights = {
            id(n): n.weight for n in base.root.iter_descendants()
        }
        overlay = OverlayTree(base)
        overlay.record_all(lcg_trace(2000, seed=5))
        best_candidates(overlay, max_depth=4)
        assert base.memory_items() == want_items
        for node in base.root.iter_descendants():
            assert node.weight == want_weights[id(node)]

    def test_overlays_are_isolated_from_each_other(self):
        base = trained_base()
        a = OverlayTree(base)
        b = OverlayTree(base)
        pa = private_copy(base)
        pb = private_copy(base)
        ra, rb = random.Random(1), random.Random(2)
        for _ in range(1500):
            ba, bb = ra.randrange(80), rb.randrange(80)
            assert a.record_access(ba) == pa.record_access(ba)
            assert b.record_access(bb) == pb.record_access(bb)
        assert best_candidates(a, max_depth=3) == best_candidates(pa, max_depth=3)
        assert best_candidates(b, max_depth=3) == best_candidates(pb, max_depth=3)
        a.check_invariants()
        b.check_invariants()

    def test_budgeted_base_is_rejected(self):
        base = PrefetchTree(max_nodes=64)
        base.record_all(lcg_trace(500))
        with pytest.raises(OverlayError, match="unbudgeted"):
            OverlayTree(base)


def assert_same_view(overlay, priv, path):
    assert (best_candidates(overlay, max_depth=4)
            == best_candidates(priv, max_depth=4))
    assert overlay.next_probabilities() == priv.next_probabilities()
    assert overlay.path_probability(path) == priv.path_probability(path)


@given(
    base_size=st.integers(min_value=0, max_value=1500),
    universe=st.integers(min_value=2, max_value=90),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    tail_size=st.integers(min_value=1, max_value=300),
    cut_at=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_restored_overlay_tracks_private_copy(base_size, universe, seed,
                                              tail_size, cut_at):
    """An overlay snapshotted at any point and restored onto a fresh
    overlay keeps answering exactly like a restored private copy."""
    rng = random.Random(seed)
    base = PrefetchTree()
    base.record_all(rng.randrange(universe) for _ in range(base_size))
    # The tail's wider universe holds blocks the base never saw.
    tail = [rng.randrange(universe + 30) for _ in range(tail_size)]
    cut = min(int(cut_at * tail_size), tail_size - 1)
    ref = {"tenant": "t", "model": "m@1"}
    priv = private_copy(base)
    unbroken = OverlayTree(base, base_ref=ref)
    overlay = OverlayTree(base, base_ref=ref)
    for index, block in enumerate(tail):
        if index == cut:
            meta, items = overlay.snapshot_state()
            overlay = OverlayTree(base, base_ref=ref)
            overlay.restore_state(meta, items)
        want = priv.record_access(block)
        assert overlay.record_access(block) == want
        assert unbroken.record_access(block) == want
        path = tail[index + 1:index + 4]
        assert_same_view(overlay, priv, path)
        assert_same_view(unbroken, priv, path)
    overlay.check_invariants()
    assert overlay.snapshot_state() == unbroken.snapshot_state()
    assert overlay.node_count == priv.node_count


#: SHA-256 of the ``tree-delta`` snapshot in
#: :func:`test_delta_snapshot_matches_pinned_digest`, generated before the
#: overlay shared its parse step and snapshot records with
#: :class:`PrefetchTree`.  Holds the delta format byte for byte.
PINNED_DELTA = (
    "ba7614d4667654d258c5571665c10f9123db223df564412c931a746d12ac0d4a"
)


def test_delta_snapshot_matches_pinned_digest():
    overlay = OverlayTree(trained_base(), base_ref={"tenant": "t",
                                                    "model": "m@1"})
    for index, block in enumerate(lcg_trace(1500, seed=61, universe=90)):
        overlay.record_access(block)
        if index % 50 == 0:
            best_candidates(overlay, max_depth=4)
    blob = json.dumps(overlay.snapshot_state(), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(blob.encode("ascii")).hexdigest() == PINNED_DELTA


class TestDeltaSnapshot:
    def test_round_trip_preserves_decisions(self):
        base = trained_base()
        priv = private_copy(base)
        overlay = OverlayTree(base, base_ref={"tenant": "t", "model": "m@1"})
        head = lcg_trace(1200, seed=21)
        for block in head:
            priv.record_access(block)
            overlay.record_access(block)

        meta, items = overlay.snapshot_state()
        assert meta["base"] == {"tenant": "t", "model": "m@1"}
        assert len(items) == overlay.delta_items()

        restored = OverlayTree(base, base_ref={"tenant": "t", "model": "m@1"})
        restored.restore_state(meta, items)
        restored.check_invariants()
        tail = lcg_trace(1200, seed=22)
        for block in tail:
            want = priv.record_access(block)
            assert overlay.record_access(block) == want
            assert restored.record_access(block) == want
        # Same call history => byte-identical delta snapshots ...
        assert overlay.snapshot_state() == restored.snapshot_state()
        # ... and enumeration (which may rebuild heavy indexes) agrees too.
        assert (best_candidates(restored, max_depth=4)
                == best_candidates(priv, max_depth=4))

    def test_snapshot_kind_is_delta(self):
        base = trained_base(n=200)
        overlay = OverlayTree(base)
        assert overlay.snapshot_kind == DELTA_MODEL_KIND
        snap = model_snapshot(overlay)
        assert snap.model == DELTA_MODEL_KIND

    def test_restore_rejects_wrong_base(self):
        base = trained_base(n=1000, seed=3)
        overlay = OverlayTree(base)
        overlay.record_all(lcg_trace(300))
        meta, items = overlay.snapshot_state()
        other = trained_base(n=500, seed=4)
        victim = OverlayTree(other)
        with pytest.raises(SnapshotError, match="base"):
            victim.restore_state(meta, items)


class TestFold:
    def test_single_overlay_fold_equals_private_continuation(self):
        base = trained_base()
        priv = private_copy(base)
        overlay = OverlayTree(base)
        for block in lcg_trace(2000, seed=31):
            priv.record_access(block)
            overlay.record_access(block)
        folded = fold_overlays(base, [overlay])
        folded.check_invariants()
        assert folded.node_count == priv.node_count
        weights = {
            tuple(n.path_blocks()): n.weight for n in priv.iter_nodes()
        }
        for node in folded.iter_nodes():
            assert weights[tuple(node.path_blocks())] == node.weight

    def test_multi_overlay_weights_sum(self):
        base = trained_base(n=1000)
        overlays = []
        for seed in (41, 42, 43):
            ov = OverlayTree(base)
            ov.record_all(lcg_trace(800, seed=seed))
            overlays.append(ov)
        folded = fold_overlays(base, overlays)
        folded.check_invariants()
        base_weight = {
            tuple(n.path_blocks()): n.weight for n in base.iter_nodes()
        }
        want = {}
        for ov in overlays:
            for node in ov.iter_nodes():
                path = tuple(node.path_blocks())
                want[path] = (want.get(path, 0)
                              + node.weight - base_weight.get(path, 0))
        for path, bw in base_weight.items():
            want[path] = want.get(path, 0) + bw
        got = {
            tuple(n.path_blocks()): n.weight for n in folded.iter_nodes()
        }
        assert got == want

    def test_fold_rejects_foreign_overlay(self):
        base = trained_base(n=300)
        other = trained_base(n=300, seed=9)
        with pytest.raises(OverlayError, match="share"):
            fold_overlays(base, [OverlayTree(other)])


#: Tree-backed policies spot-checked for end-to-end advice parity.
PARITY_POLICIES = [
    ("tree", {}),
    ("tree-lvc", {}),
    ("tree-threshold", {"threshold": 0.2}),
]


@pytest.mark.parametrize("policy,kwargs", PARITY_POLICIES,
                         ids=[n for n, _ in PARITY_POLICIES])
class TestSessionAdviceParity:
    def test_overlay_session_matches_private_warm_start(self, policy, kwargs):
        base = trained_base()
        snap = model_snapshot(base)
        refs = lcg_trace(600, seed=51)

        private = PrefetchSession(policy=policy, cache_size=64,
                                  policy_kwargs=kwargs or None,
                                  warm_start=snap)
        shared = PrefetchSession(policy=policy, cache_size=64,
                                 policy_kwargs=kwargs or None)
        shared.simulator.policy.replace_model(OverlayTree(base))

        want = [private.observe(b).as_dict() for b in refs]
        got = [shared.observe(b).as_dict() for b in refs]
        assert got == want
        assert shared.close() == private.close()

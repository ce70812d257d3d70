"""Model-kind snapshots: every predictor and the tree round-trip exactly.

"Exactly" is behavioural: a restored model must emit the same predictions
as the original on the same continuation, not merely look similar.
"""

import pytest

from repro.core.tree import PrefetchTree
from repro.predictors.graph import ProbabilityGraphPredictor
from repro.predictors.lz import LZPredictor
from repro.predictors.markov import LastSuccessorPredictor, MarkovPredictor
from repro.predictors.ppm import PPMPredictor
from repro.store.codec import SnapshotError, read_snapshot, write_snapshot
from repro.store.models import Snapshotable, model_snapshot, restore_model


def lcg_trace(n, seed=11, universe=60):
    x = seed
    out = []
    for _ in range(n):
        x = (x * 1103515245 + 12345) % (2 ** 31)
        out.append(x % universe)
    return out


PREDICTOR_FACTORIES = {
    "lz": lambda: LZPredictor(max_nodes=256),
    "ppm": lambda: PPMPredictor(),
    "markov": lambda: MarkovPredictor(),
    "prob-graph": lambda: ProbabilityGraphPredictor(),
    "last-successor": lambda: LastSuccessorPredictor(),
}


class TestPredictorRoundTrips:
    @pytest.mark.parametrize("kind", sorted(PREDICTOR_FACTORIES))
    def test_round_trip_through_file(self, kind, tmp_path):
        factory = PREDICTOR_FACTORIES[kind]
        trained = factory()
        trace = lcg_trace(500)
        for block in trace:
            trained.update(block)

        path = tmp_path / f"{kind}.snap"
        write_snapshot(model_snapshot(trained), path)
        restored = factory()
        restore_model(read_snapshot(path), restored)

        assert restored.memory_items() == trained.memory_items()
        # continuing both must stay in lockstep (state equality, not just
        # a one-shot prediction match)
        for block in lcg_trace(200, seed=99):
            trained.update(block)
            restored.update(block)
            assert restored.predictions() == trained.predictions()

    @pytest.mark.parametrize("kind", sorted(PREDICTOR_FACTORIES))
    def test_implements_snapshotable(self, kind):
        assert isinstance(PREDICTOR_FACTORIES[kind](), Snapshotable)

    def test_snapshot_kind_matches(self):
        for kind, factory in PREDICTOR_FACTORIES.items():
            assert factory().snapshot_kind == kind


class TestTreeRoundTrip:
    def test_tree_round_trip_through_file(self, tmp_path):
        trained = PrefetchTree(max_nodes=128)
        for block in lcg_trace(800):
            trained.record_access(block)

        path = tmp_path / "tree.snap"
        write_snapshot(model_snapshot(trained), path)
        restored = PrefetchTree(max_nodes=128)
        restore_model(read_snapshot(path), restored)

        assert restored.memory_items() == trained.memory_items()
        restored.check_invariants()
        for block in lcg_trace(300, seed=5):
            trained.record_access(block)
            restored.record_access(block)
        assert (
            [(c.block, c.weight) for c in restored.current.children.values()]
            == [(c.block, c.weight) for c in trained.current.children.values()]
        )
        restored.check_invariants()

    def test_eviction_state_survives(self, tmp_path):
        # a tight node budget exercises the LRU list and heavy-child index
        trained = PrefetchTree(max_nodes=40)
        for block in lcg_trace(2000, universe=30):
            trained.record_access(block)
        path = tmp_path / "tree.snap"
        write_snapshot(model_snapshot(trained), path)
        restored = PrefetchTree(max_nodes=40)
        restore_model(read_snapshot(path), restored)
        restored.check_invariants()
        # evictions after the restore must pick the same victims
        for block in lcg_trace(500, seed=77, universe=30):
            trained.record_access(block)
            restored.record_access(block)
        assert restored.stats.nodes_evicted == trained.stats.nodes_evicted


class TestMismatches:
    def test_kind_mismatch_rejected(self, tmp_path):
        snap = model_snapshot(MarkovPredictor())
        with pytest.raises(SnapshotError, match="mismatch"):
            restore_model(snap, PPMPredictor())

    def test_session_snapshot_rejected(self):
        from repro.service.session import PrefetchSession, snapshot_session

        session = PrefetchSession(policy="tree", cache_size=32)
        session.observe(1)
        snap = snapshot_session(session)
        with pytest.raises(SnapshotError, match="model snapshot"):
            restore_model(snap, PrefetchTree())

    def test_unsnapshotable_object_rejected(self):
        with pytest.raises(SnapshotError, match="not snapshotable"):
            model_snapshot(object())

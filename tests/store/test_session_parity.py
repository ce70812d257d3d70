"""The parity guarantee: snapshot + resume is invisible to the decisions.

For every online-capable policy, training on prefix A, snapshotting
through the real on-disk codec, restoring, and serving suffix B must
produce *bit-identical* advice to one continuous session over A + B —
including stall times, the cost-benefit ``s`` estimate, and the final
sealed statistics.  This is the property that makes ``train`` +
``serve --model`` trustworthy as a substitute for a long-running daemon.
"""

import pytest

from repro.service.session import (
    PrefetchSession,
    restore_session,
    snapshot_session,
)
from repro.store.codec import (
    SnapshotError,
    read_snapshot,
    write_snapshot,
)


def lcg_trace(n, seed=7, universe=200):
    x = seed
    out = []
    for _ in range(n):
        x = (x * 1103515245 + 12345) % (2 ** 31)
        out.append(x % universe)
    return out


REFS = lcg_trace(400)
SPLIT = len(REFS) // 2

#: Every online-capable policy (plus required kwargs) must pass parity.
POLICIES = [
    ("tree", {}),
    ("tree-lvc", {}),
    ("tree-filtered", {}),
    ("tree-next-limit", {}),
    ("tree-children", {"num_children": 2}),
    ("tree-threshold", {"threshold": 0.2}),
    ("next-limit", {}),
    ("no-prefetch", {}),
    ("file-prefetch", {}),
    ("cb-lz", {}),
    ("cb-ppm", {}),
    ("cb-markov", {}),
    ("cb-prob-graph", {}),
    ("cb-last-successor", {}),
]


def run_session(policy, kwargs, blocks, session=None):
    if session is None:
        session = PrefetchSession(policy=policy, cache_size=64,
                                  policy_kwargs=kwargs or None)
    return session, [session.observe(b).as_dict() for b in blocks]


@pytest.mark.parametrize("policy,kwargs", POLICIES,
                         ids=[name for name, _ in POLICIES])
class TestParity:
    def test_resume_is_bit_identical(self, policy, kwargs, tmp_path):
        continuous, want = run_session(policy, kwargs, REFS)

        prefix_session, prefix_out = run_session(policy, kwargs, REFS[:SPLIT])
        path = tmp_path / "mid.snap"
        write_snapshot(snapshot_session(prefix_session), path)
        resumed = restore_session(read_snapshot(path))
        _, suffix_out = run_session(policy, kwargs, REFS[SPLIT:],
                                    session=resumed)

        assert prefix_out + suffix_out == want
        assert resumed.close() == continuous.close()

    def test_save_load_save_is_byte_stable(self, policy, kwargs, tmp_path):
        session, _ = run_session(policy, kwargs, REFS[:SPLIT])
        path = tmp_path / "s.snap"
        write_snapshot(snapshot_session(session), path)
        first = path.read_bytes()
        write_snapshot(read_snapshot(path), path)
        assert path.read_bytes() == first


class TestSessionSnapshotEdges:
    def test_closed_session_cannot_be_snapshotted(self):
        session = PrefetchSession(policy="tree", cache_size=32)
        session.observe(1)
        session.close()
        with pytest.raises(SnapshotError, match="closed"):
            snapshot_session(session)

    def test_snapshot_records_config(self):
        session = PrefetchSession(policy="tree", cache_size=48)
        session.observe(1)
        snap = snapshot_session(session, provenance={"trace": "unit"})
        assert snap.config["policy"] == "tree"
        assert snap.config["cache_size"] == 48
        assert snap.provenance == {"trace": "unit"}
        assert snap.counts["references"] == 1

    def test_restore_rejects_model_snapshot(self):
        from repro.predictors.markov import MarkovPredictor
        from repro.store.models import model_snapshot

        snap = model_snapshot(MarkovPredictor())
        with pytest.raises(SnapshotError, match="session"):
            restore_session(snap)

    def test_fresh_session_round_trips(self, tmp_path):
        # zero observations: empty tree, empty caches, cold estimator
        session = PrefetchSession(policy="tree", cache_size=64)
        path = tmp_path / "fresh.snap"
        write_snapshot(snapshot_session(session), path)
        resumed = restore_session(read_snapshot(path))
        _, resumed_out = run_session("tree", {}, REFS, session=resumed)
        _, cold_out = run_session("tree", {}, REFS)
        assert resumed_out == cold_out


class TestWarmStart:
    def test_warm_start_carries_model_only(self):
        from repro.store.models import model_snapshot

        trained, _ = run_session("tree", {}, REFS)
        snap = model_snapshot(trained.simulator.policy.model())
        warm = PrefetchSession(policy="tree", cache_size=64, warm_start=snap)
        assert (warm.simulator.policy.model_items()
                == trained.simulator.policy.model_items())
        # engine state is cold: no periods served, estimator untouched
        assert warm.observations == 0

    def test_warm_start_kind_mismatch_is_session_error(self):
        from repro.service.session import SessionError
        from repro.store.models import model_snapshot

        trained, _ = run_session("tree", {}, REFS[:50])
        snap = model_snapshot(trained.simulator.policy.model())
        with pytest.raises(SessionError, match="warm start failed"):
            PrefetchSession(policy="cb-ppm", cache_size=64, warm_start=snap)

    def test_policy_without_model_rejects_warm_start(self):
        from repro.service.session import SessionError
        from repro.store.models import model_snapshot

        trained, _ = run_session("tree", {}, REFS[:50])
        snap = model_snapshot(trained.simulator.policy.model())
        with pytest.raises(SessionError, match="no model"):
            PrefetchSession(policy="no-prefetch", cache_size=64,
                            warm_start=snap)

    def test_stats_report_model_items(self):
        session, _ = run_session("tree", {}, REFS[:50])
        live = session.stats_snapshot()
        assert live["model_items"] == session.simulator.policy.model_items()
        assert live["model_items"] > 0
        final = session.close()
        assert final["model_items"] >= live["model_items"]

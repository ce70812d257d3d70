"""Tenant-aware serving: admission, quotas, budget eviction, resurrection.

These drive :class:`PrefetchService.handle` in process — no sockets —
because everything under test (quota arithmetic, eviction order,
checkpoint round-trips) is transport-independent.  The headline
invariant is satellite-grade: a session that gets budget-evicted to disk
and transparently resurrected mid-stream must emit advice bit-identical
to the same session served on a worker with no memory pressure at all.
"""

import random

import pytest

from repro.core.tree import PAPER_NODE_BYTES, PrefetchTree
from repro.service import protocol
from repro.service import server as server_mod
from repro.service.protocol import (
    CloseRequest,
    ErrorReply,
    ObserveRequest,
    OpenReply,
    OpenRequest,
    StatsRequest,
)
from repro.service.server import PrefetchService
from repro.store import ModelStore
from repro.store.models import model_snapshot
from repro.tenancy.config import parse_tenancy_config
from repro.tenancy.manager import TenancyManager

#: Tree-backed policies spot-checked for evict/resume advice parity
#: (3 of the registry's policies; the rest share the same model path).
PARITY_POLICIES = [
    ("tree", {}),
    ("tree-lvc", {}),
    ("tree-threshold", {"threshold": 0.2}),
]


def trained_base(n=3000, universe=40, seed=5):
    rng = random.Random(seed)
    tree = PrefetchTree()
    tree.record_all(rng.randrange(universe) for _ in range(n))
    return tree


def lcg_trace(n, seed=7, universe=48):
    x = seed
    out = []
    for _ in range(n):
        x = (x * 1103515245 + 12345) % (2 ** 31)
        out.append(x % universe)
    return out


@pytest.fixture()
def store(tmp_path):
    store = ModelStore(str(tmp_path / "store"))
    store.save("base", model_snapshot(trained_base(), base=True))
    return store


def make_service(store, tmp_path, *, budget=None, tenants=None):
    config = parse_tenancy_config({"tenants": tenants or {
        "acme": {"model": "base", "max_sessions": 3, "retry_after_s": 0.5},
        "globex": {"model": "base", "policy": "tree-lvc"},
    }})
    return PrefetchService(
        store=store,
        tenancy=TenancyManager(store, config),
        memory_budget_bytes=budget,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )


def open_tenant(service, owned, tenant, *, policy="tree", kwargs=None,
                request_id=1):
    return service.handle(
        OpenRequest(id=request_id, policy=policy, tenant=tenant,
                    cache_size=64, policy_kwargs=dict(kwargs or {})),
        owned,
    )


class TestAdmission:
    def test_quota_rejection_carries_retry_after(self, store, tmp_path):
        service = make_service(store, tmp_path)
        owned = set()
        for index in range(3):
            reply = open_tenant(service, owned, "acme", request_id=index)
            assert isinstance(reply, OpenReply)
        rejection = open_tenant(service, owned, "acme", request_id=9)
        assert isinstance(rejection, ErrorReply)
        assert rejection.error == protocol.E_QUOTA
        assert rejection.retry_after_s == 0.5
        assert service.metrics.tenants_rejected == 1
        assert service.metrics.per_tenant["acme"]["sessions_rejected"] == 1
        # Closing a session frees the slot again.
        sid = next(iter(owned))
        service.handle(CloseRequest(id=10, session=sid), owned)
        owned.discard(sid)
        assert isinstance(
            open_tenant(service, owned, "acme", request_id=11), OpenReply
        )

    def test_tenant_errors_are_bad_requests(self, store, tmp_path):
        owned = set()
        no_tenancy = PrefetchService(store=store)
        reply = open_tenant(no_tenancy, owned, "acme")
        assert isinstance(reply, ErrorReply)
        assert reply.error == protocol.E_BAD_REQUEST
        assert "--tenant-config" in reply.message

        service = make_service(store, tmp_path)
        unknown = open_tenant(service, owned, "umbrella")
        assert unknown.error == protocol.E_BAD_REQUEST
        both = service.handle(
            OpenRequest(id=2, tenant="acme", model="base"), owned
        )
        assert both.error == protocol.E_BAD_REQUEST
        assert "mutually exclusive" in both.message

    def test_byte_quota_counts_session_deltas(self, store, tmp_path):
        # Room above the shared base for a few delta nodes only: one
        # session's private growth must use up the tenant's byte quota.
        base_bytes = trained_base().memory_items() * PAPER_NODE_BYTES
        quota = base_bytes + 5 * PAPER_NODE_BYTES
        service = make_service(store, tmp_path, tenants={
            "acme": {"model": "base", "max_model_bytes": quota,
                     "retry_after_s": 0.75},
        })
        owned = set()
        first = open_tenant(service, owned, "acme", request_id=1)
        assert isinstance(first, OpenReply)
        for seq, block in enumerate(lcg_trace(60, seed=8, universe=90)):
            service.handle(
                ObserveRequest(id=10 + seq, session=first.session,
                               block=block, seq=seq),
                owned,
            )
        assert service.accounted_model_bytes() >= quota
        second = open_tenant(service, owned, "acme", request_id=2)
        assert isinstance(second, ErrorReply)
        assert second.error == protocol.E_QUOTA
        assert second.retry_after_s == 0.75
        assert "model-byte quota" in second.message
        assert service.metrics.per_tenant["acme"]["sessions_rejected"] == 1

    def test_spec_policy_wins_only_over_the_default(self, store, tmp_path):
        service = make_service(store, tmp_path)
        owned = set()
        defaulted = open_tenant(service, owned, "globex", request_id=1)
        assert defaulted.policy == "tree-lvc"
        explicit = open_tenant(service, owned, "globex",
                               policy="tree-threshold",
                               kwargs={"threshold": 0.2}, request_id=2)
        assert explicit.policy == "tree-threshold"


class TestStats:
    def test_server_stats_carry_tenant_gauges(self, store, tmp_path):
        service = make_service(store, tmp_path, budget=1 << 20)
        owned = set()
        reply = open_tenant(service, owned, "acme")
        for seq, block in enumerate(lcg_trace(40, seed=3)):
            service.handle(
                ObserveRequest(id=50 + seq, session=reply.session,
                               block=block, seq=seq),
                owned,
            )
        stats = service.handle(StatsRequest(id=99), owned).stats
        assert stats["memory_budget_bytes"] == 1 << 20
        assert stats["evicted_sessions"] == 0
        base_bytes = 0
        for state in service.tenancy._tenants.values():
            base_bytes += state.base_bytes()
        assert stats["model_bytes"] >= base_bytes > 0
        gauge = stats["tenants"]["acme"]
        assert gauge["sessions"] == 1
        assert gauge["model_bytes"] >= base_bytes
        assert service.metrics.per_tenant["acme"]["sessions_opened"] == 1


class TestEviction:
    def _tight_service(self, store, tmp_path):
        # Headroom above the shared base for only a handful of delta
        # nodes, so interleaved sessions keep evicting each other.
        base_items = trained_base().memory_items()
        budget = base_items * PAPER_NODE_BYTES + 12 * PAPER_NODE_BYTES
        return make_service(store, tmp_path, budget=budget)

    def test_evict_resurrect_cycle(self, store, tmp_path, monkeypatch):
        monkeypatch.setattr(server_mod, "_BUDGET_CHECK_INTERVAL", 1)
        service = self._tight_service(store, tmp_path)
        owned = set()
        sid_a = open_tenant(service, owned, "acme", request_id=1).session
        sid_b = open_tenant(service, owned, "acme", request_id=2).session
        trace = lcg_trace(120, seed=11)
        seqs = {sid_a: 0, sid_b: 0}
        for index, block in enumerate(trace):
            sid = sid_a if index % 2 == 0 else sid_b
            reply = service.handle(
                ObserveRequest(id=100 + index, session=sid, block=block,
                               seq=seqs[sid]),
                owned,
            )
            assert not isinstance(reply, ErrorReply), reply
            seqs[sid] += 1
        assert service.metrics.sessions_evicted > 0
        assert service.metrics.sessions_resurrected > 0
        assert service.metrics.per_tenant["acme"]["sessions_evicted"] > 0
        # Both sessions saw their full streams despite the churn.
        for sid in (sid_a, sid_b):
            stats = service.handle(
                StatsRequest(id=300, session=sid), owned
            ).stats
            assert stats["period"] == seqs[sid]
            close = service.handle(CloseRequest(id=301, session=sid), owned)
            assert not isinstance(close, ErrorReply)
        assert service.metrics.live_sessions == 0
        assert not service.evicted

    def test_explicit_resume_of_evicted_session(self, store, tmp_path):
        service = self._tight_service(store, tmp_path)
        owned = set()
        sid = open_tenant(service, owned, "acme", request_id=1).session
        for seq, block in enumerate(lcg_trace(30, seed=4)):
            service.handle(
                ObserveRequest(id=10 + seq, session=sid, block=block,
                               seq=seq),
                owned,
            )
        assert service._evict_one(sid)
        assert sid in service.evicted
        resumed = service.handle(
            OpenRequest(id=90, resume=sid), owned
        )
        assert isinstance(resumed, OpenReply)
        assert resumed.resumed and resumed.period == 30
        # The resume supersedes the eviction record even though the
        # restored session got a fresh id ...
        assert sid not in service.evicted
        # ... and the tenant binding survived the disk round-trip.
        assert service.tenancy.tenant_of(resumed.session) == "acme"

    def test_dropped_connection_forgets_evicted_sessions(
        self, store, tmp_path
    ):
        service = self._tight_service(store, tmp_path)
        owned = set()
        sid = open_tenant(service, owned, "acme", request_id=1).session
        for seq, block in enumerate(lcg_trace(20, seed=6)):
            service.handle(
                ObserveRequest(id=10 + seq, session=sid, block=block,
                               seq=seq),
                owned,
            )
        assert service._evict_one(sid)
        closed_before = service.metrics.sessions_closed
        service.drop_connection_sessions(owned)
        assert sid not in service.evicted
        assert service.metrics.sessions_closed == closed_before + 1
        assert service.metrics.live_sessions == 0


class TestResumeBindsTenant:
    """A resume that names no tenant still counts against its tenant."""

    TENANTS = {"acme": {"model": "base", "max_sessions": 1}}

    def _served(self, store, tmp_path):
        service = make_service(store, tmp_path, tenants=self.TENANTS)
        owned = set()
        sid = open_tenant(service, owned, "acme").session
        for seq, block in enumerate(lcg_trace(200, seed=9)):
            service.handle(
                ObserveRequest(id=10 + seq, session=sid, block=block,
                               seq=seq),
                owned,
            )
        return service, owned, sid

    def _assert_resume_is_bound(self, service, sid):
        owned = set()
        reply = service.handle(OpenRequest(id=500, resume=sid), owned)
        assert isinstance(reply, OpenReply), reply
        assert reply.resumed and reply.period == 200
        assert service.tenancy.tenant_of(reply.session) == "acme"
        stats = service.handle(StatsRequest(id=501), owned).stats
        assert stats["tenants"]["acme"]["sessions"] == 1
        second = open_tenant(service, owned, "acme", request_id=502)
        assert isinstance(second, ErrorReply)
        assert second.error == protocol.E_QUOTA

    def test_resume_from_the_detached_table(self, store, tmp_path):
        service, owned, sid = self._served(store, tmp_path)
        service.drop_connection_sessions(owned)
        assert sid in service.detached
        self._assert_resume_is_bound(service, sid)

    def test_resume_from_a_checkpoint_after_restart(self, store, tmp_path):
        service, _, sid = self._served(store, tmp_path)
        assert service.checkpoint_sessions(service.checkpoint_dir) == 1
        restarted = make_service(store, tmp_path, tenants=self.TENANTS)
        self._assert_resume_is_bound(restarted, sid)

    def test_resume_past_the_quota_is_refused_and_kept(self, store, tmp_path):
        """The tenant a resume infers is admitted like a named one: with
        the quota's one slot taken meanwhile, the resume is refused and
        the detached state kept for a later try."""
        service, owned, sid = self._served(store, tmp_path)
        service.drop_connection_sessions(owned)
        other = set()
        taken = open_tenant(service, other, "acme", request_id=300)
        assert isinstance(taken, OpenReply)
        refusal = service.handle(OpenRequest(id=301, resume=sid), set())
        assert isinstance(refusal, ErrorReply), refusal
        assert refusal.error == protocol.E_QUOTA
        assert refusal.retry_after_s == 1.0
        gauges = service.handle(StatsRequest(id=302), other).stats["tenants"]
        assert gauges["acme"]["sessions"] == 1
        assert sid in service.detached
        service.handle(CloseRequest(id=303, session=taken.session), other)
        self._assert_resume_is_bound(service, sid)

    def test_resume_of_a_budgeted_base_session_after_restart(
        self, tmp_path
    ):
        """A base with a node budget is served as private copies, which
        carry no base ref; the checkpoint's provenance still names the
        tenant, so the resume binds to it and counts against its quota."""
        store = ModelStore(str(tmp_path / "capped-store"))
        tree = PrefetchTree(max_nodes=100000)
        tree.record_all(lcg_trace(3000, seed=5, universe=40))
        store.save("capped", model_snapshot(tree, base=True))
        tenants = {"tiny": {"model": "capped", "max_sessions": 1}}
        service = make_service(store, tmp_path, tenants=tenants)
        owned = set()
        sid = open_tenant(service, owned, "tiny").session
        for seq, block in enumerate(lcg_trace(100, seed=9)):
            service.handle(
                ObserveRequest(id=10 + seq, session=sid, block=block,
                               seq=seq),
                owned,
            )
        assert service.checkpoint_sessions(service.checkpoint_dir) == 1
        restarted = make_service(store, tmp_path, tenants=tenants)
        owned = set()
        reply = restarted.handle(OpenRequest(id=500, resume=sid), owned)
        assert isinstance(reply, OpenReply), reply
        assert reply.resumed and reply.period == 100
        assert restarted.tenancy.tenant_of(reply.session) == "tiny"
        stats = restarted.handle(StatsRequest(id=501), owned).stats
        assert stats["tenants"]["tiny"]["sessions"] == 1
        second = open_tenant(restarted, owned, "tiny", request_id=502)
        assert isinstance(second, ErrorReply)
        assert second.error == protocol.E_QUOTA


@pytest.mark.parametrize("policy,kwargs", PARITY_POLICIES,
                         ids=[name for name, _ in PARITY_POLICIES])
class TestEvictResumeParity:
    def test_advice_identical_to_unpressured_worker(
        self, store, tmp_path, monkeypatch, policy, kwargs
    ):
        """Evict→resurrect round-trips must be decision-invisible."""
        monkeypatch.setattr(server_mod, "_BUDGET_CHECK_INTERVAL", 1)
        base_items = trained_base().memory_items()
        budget = base_items * PAPER_NODE_BYTES + 12 * PAPER_NODE_BYTES
        pressured = make_service(store, tmp_path / "tight", budget=budget)
        relaxed = make_service(store, tmp_path / "roomy")
        trace = lcg_trace(240, seed=23)

        def run(service):
            owned = set()
            sids = [
                open_tenant(service, owned, "acme", policy=policy,
                            kwargs=kwargs, request_id=index).session
                for index in range(2)
            ]
            advice = {sid: [] for sid in sids}
            seqs = {sid: 0 for sid in sids}
            for index, block in enumerate(trace):
                sid = sids[index % 2]
                reply = service.handle(
                    ObserveRequest(id=100 + index, session=sid,
                                   block=block, seq=seqs[sid]),
                    owned,
                )
                assert not isinstance(reply, ErrorReply), reply
                advice[sid].append(reply.advice.as_dict())
                seqs[sid] += 1
            finals = [
                service.handle(
                    CloseRequest(id=900 + i, session=sid), owned
                ).stats
                for i, sid in enumerate(sids)
            ]
            return list(advice.values()), finals

        want_advice, want_finals = run(relaxed)
        got_advice, got_finals = run(pressured)
        assert pressured.metrics.sessions_evicted > 0, (
            "budget never forced an eviction; the parity check is vacuous"
        )
        assert relaxed.metrics.sessions_evicted == 0
        assert got_advice == want_advice
        assert got_finals == want_finals

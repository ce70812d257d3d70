"""Gateway behavior with in-process workers: parity, routing, failover.

Workers here are :class:`BackgroundServer` instances registered in a
:class:`StaticWorkerDirectory`, so death and recovery are driven
explicitly — the subprocess supervisor has its own tests in
``test_fleet.py``.
"""

import asyncio

import pytest

from repro.cluster import AdvisoryGateway, StaticWorkerDirectory
from repro.service import protocol
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.faults import ChaosProxy, FaultPlan
from repro.service.server import BackgroundServer, PrefetchService
from repro.service.session import PrefetchSession
from repro.traces.synthetic import make_trace

CACHE = 64


def _blocks(refs, name="cad", seed=1999):
    return make_trace(name, num_references=refs, seed=seed).as_list()


def _fault_free_advice(blocks):
    session = PrefetchSession(policy="tree", cache_size=CACHE)
    return [session.observe(block).as_dict() for block in blocks]


class _Fleet:
    """N BackgroundServer workers + a gateway, wired synchronously."""

    def __init__(self, count, checkpoint_dir=None, **gateway_kwargs):
        self.checkpoint_dir = checkpoint_dir
        self.directory = StaticWorkerDirectory()
        self.workers = {}
        for i in range(count):
            worker_id = f"w{i}"
            server = BackgroundServer(service=PrefetchService(
                identity=worker_id, checkpoint_dir=checkpoint_dir,
            )).start().wait_ready()
            self.workers[worker_id] = server
            self.directory.register(worker_id, "127.0.0.1", server.port)
        self.gateway = AdvisoryGateway(
            self.directory, request_timeout_s=5.0,
            checkpoint_dir=checkpoint_dir, **gateway_kwargs
        )

    async def __aenter__(self):
        await self.gateway.endpoint.start(port=0)
        return self

    async def __aexit__(self, *exc_info):
        await self.gateway.aclose()
        for server in self.workers.values():
            await asyncio.to_thread(server.stop)

    def kill(self, worker_id, *, checkpoint_first=False):
        server = self.workers[worker_id]
        if checkpoint_first:
            assert self.checkpoint_dir is not None
            server.service.checkpoint_sessions(self.checkpoint_dir)
        server.stop()
        self.directory.mark_down(worker_id)


class TestParity:
    def test_gateway_advice_is_bit_identical_to_bare_server(self):
        """The acceptance criterion: same trace, same advice bytes."""
        blocks = _blocks(400)

        async def through_gateway():
            async with _Fleet(3) as fleet:
                client = await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                )
                assert client.hello.server == "repro.gateway"
                async with client:
                    sid = await client.open(policy="tree", cache_size=CACHE)
                    got = [
                        (await client.observe(sid, block)).as_dict()
                        for block in blocks
                    ]
                    final = await client.close_session(sid)
                return got, final

        got, final = asyncio.run(through_gateway())
        assert got == _fault_free_advice(blocks)
        assert final["accesses"] == len(blocks)

    def test_sessions_spread_across_workers(self):
        async def scenario():
            async with _Fleet(3) as fleet:
                async with await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                ) as client:
                    for _ in range(24):
                        await client.open(policy="no-prefetch", cache_size=8)
                    placed = {
                        session.worker_id
                        for session in fleet.gateway.sessions.values()
                    }
                return placed

        assert len(asyncio.run(scenario())) > 1

    def test_replay_load_generator_works_unchanged(self):
        """The stock replay client needs zero changes to use a fleet."""
        from repro.service.replay import replay_async

        blocks = _blocks(300)

        async def scenario():
            async with _Fleet(2) as fleet:
                return await replay_async(
                    blocks, port=fleet.gateway.endpoint.port, clients=3,
                    policy="tree", cache_size=CACHE,
                )

        report = asyncio.run(scenario())
        assert report.requests == 3 * len(blocks)
        assert report.clients == 3


class TestFailover:
    def test_worker_death_resumes_from_checkpoint_on_successor(
        self, tmp_path
    ):
        """Advice parity across a mid-stream worker kill."""
        blocks = _blocks(400)
        ckpt = str(tmp_path / "ckpt")

        async def scenario():
            async with _Fleet(2, checkpoint_dir=ckpt) as fleet:
                async with await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                ) as client:
                    sid = await client.open(policy="tree", cache_size=CACHE)
                    got = [
                        (await client.observe(sid, block)).as_dict()
                        for block in blocks[:250]
                    ]
                    victim = fleet.gateway.sessions[sid].worker_id
                    fleet.kill(victim, checkpoint_first=True)
                    # keep observing straight through the failover
                    got += [
                        (await client.observe(sid, block)).as_dict()
                        for block in blocks[250:]
                    ]
                    final = await client.close_session(sid)
                    moved_to = victim  # session record is gone post-close
                    stats = fleet.gateway.stats
                    return got, final, victim, moved_to, stats

        got, final, victim, _, stats = asyncio.run(scenario())
        assert got == _fault_free_advice(blocks)
        assert final["accesses"] == len(blocks)
        assert stats.failovers_resumed == 1
        assert stats.failovers_degraded == 0
        assert stats.sessions_lost == 0

    def test_stale_checkpoint_tail_is_replayed_from_journal(self, tmp_path):
        """Checkpoint early, keep folding, then kill: the journal must
        replay the un-checkpointed tail decision-identically."""
        blocks = _blocks(300)
        ckpt = str(tmp_path / "ckpt")

        async def scenario():
            async with _Fleet(2, checkpoint_dir=ckpt) as fleet:
                async with await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                ) as client:
                    sid = await client.open(policy="tree", cache_size=CACHE)
                    got = []
                    for i, block in enumerate(blocks):
                        if i == 100:
                            victim = fleet.gateway.sessions[sid].worker_id
                            fleet.workers[victim].service.\
                                checkpoint_sessions(ckpt)
                        if i == 200:
                            fleet.kill(victim)
                        got.append(
                            (await client.observe(sid, block)).as_dict()
                        )
                    await client.close_session(sid)
                    return got, fleet.gateway.stats

        got, stats = asyncio.run(scenario())
        assert got == _fault_free_advice(blocks)
        assert stats.failovers_resumed == 1
        assert stats.sessions_lost == 0

    def test_no_checkpoint_falls_back_to_degraded(self):
        """Without a checkpoint dir the session survives as a degraded
        no-prefetch session rebuilt from the gateway journal — advice
        stops, the session does not error."""
        blocks = _blocks(200)

        async def scenario():
            async with _Fleet(2) as fleet:  # no checkpoint_dir
                async with await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                ) as client:
                    sid = await client.open(policy="tree", cache_size=CACHE)
                    for block in blocks[:100]:
                        await client.observe(sid, block)
                    fleet.kill(fleet.gateway.sessions[sid].worker_id)
                    advice = [
                        await client.observe(sid, block)
                        for block in blocks[100:]
                    ]
                    stats_snapshot = await client.stats(sid)
                    final = await client.close_session(sid)
                    return advice, stats_snapshot, final, \
                        fleet.gateway.stats

        advice, snapshot, final, stats = asyncio.run(scenario())
        assert stats.failovers_degraded == 1
        assert stats.sessions_lost == 0
        assert snapshot["policy"] == "no-prefetch"
        assert snapshot["degraded"]
        # the rebuilt session kept the full history
        assert final["accesses"] == len(blocks)
        assert all(not a.prefetch for a in advice)

    def test_eager_failover_moves_idle_sessions(self, tmp_path):
        """A session idle at kill time is moved by the membership event,
        not by its next request."""
        ckpt = str(tmp_path / "ckpt")

        async def scenario():
            async with _Fleet(2, checkpoint_dir=ckpt) as fleet:
                async with await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                ) as client:
                    sid = await client.open(policy="tree", cache_size=CACHE)
                    for block in _blocks(50):
                        await client.observe(sid, block)
                    victim = fleet.gateway.sessions[sid].worker_id
                    fleet.kill(victim, checkpoint_first=True)
                    for _ in range(100):  # idle: no requests in flight
                        await asyncio.sleep(0.02)
                        if fleet.gateway.sessions[sid].worker_id != victim:
                            break
                    return victim, fleet.gateway.sessions[sid].worker_id

        victim, now_on = asyncio.run(scenario())
        assert now_on != victim

    def test_session_with_no_state_anywhere_is_lost_cleanly(self):
        """Kill every checkpointless path: the client gets a one-line
        error, the gateway stays up, other sessions are unaffected."""

        async def scenario():
            async with _Fleet(2) as fleet:
                async with await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                ) as client:
                    sid = await client.open(policy="tree", cache_size=CACHE)
                    for block in _blocks(30):
                        await client.observe(sid, block)
                    victim = fleet.gateway.sessions[sid].worker_id
                    # Sabotage the degraded path too: kill BOTH workers,
                    # then bring only a fresh one up for later traffic.
                    for worker_id in list(fleet.workers):
                        fleet.kill(worker_id)
                    with pytest.raises((ServiceError, ConnectionError)):
                        await client.observe(sid, 1)
                    return fleet.gateway.stats

        stats = asyncio.run(scenario())
        assert stats.sessions_lost == 1


class TestReattach:
    def test_dropped_client_resumes_its_session(self):
        """Client vanishes without CLOSE; a new connection resumes the
        orphaned session by id and continues where it left off."""
        blocks = _blocks(200)

        async def scenario():
            async with _Fleet(2) as fleet:
                client1 = await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                )
                sid = await client1.open(policy="tree", cache_size=CACHE)
                got = [
                    (await client1.observe(sid, block)).as_dict()
                    for block in blocks[:120]
                ]
                client1._writer.transport.abort()  # vanish
                for _ in range(100):
                    await asyncio.sleep(0.02)
                    if fleet.gateway.stats.sessions_orphaned:
                        break
                client2 = await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                )
                resumed = await client2.open_session(resume=sid)
                assert resumed.resumed
                assert resumed.period == 120
                got += [
                    (await client2.observe(sid, block)).as_dict()
                    for block in blocks[120:]
                ]
                await client2.close_session(sid)
                await client2.aclose()
                return got, fleet.gateway.stats

        got, stats = asyncio.run(scenario())
        assert got == _fault_free_advice(blocks)
        assert stats.sessions_reattached == 1

    def test_resume_of_attached_session_is_rejected(self):
        async def scenario():
            async with _Fleet(1) as fleet:
                async with await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                ) as client:
                    sid = await client.open(policy="no-prefetch", cache_size=8)
                    with pytest.raises(ServiceError) as excinfo:
                        await client.open_session(resume=sid)
                    return excinfo.value.code

        assert asyncio.run(scenario()) == protocol.E_SESSION_ERROR


class TestChaosBetweenGatewayAndWorker:
    def test_faulty_worker_link_fails_over_not_out(self, tmp_path):
        """A ChaosProxy in front of one worker corrupts the gateway's
        upstream replies; the gateway must absorb the faults via
        failover while the client sees only clean protocol."""
        blocks = _blocks(300)
        ckpt = str(tmp_path / "ckpt")

        async def scenario():
            async with _Fleet(2, checkpoint_dir=ckpt) as fleet:
                # Re-register w0 behind a reply-corrupting proxy.
                behind = fleet.workers["w0"].port
                plan = FaultPlan(reset_every=40)
                async with ChaosProxy(port=behind, plan=plan) as proxy:
                    fleet.directory.register("w0", "127.0.0.1", proxy.port)
                    fleet.gateway._links.pop("w0", None)
                    async with await AsyncServiceClient.connect(
                        port=fleet.gateway.endpoint.port
                    ) as client:
                        sids = [
                            await client.open(
                                policy="tree", cache_size=CACHE
                            )
                            for _ in range(4)
                        ]
                        got = {sid: [] for sid in sids}
                        for block in blocks:
                            for sid in sids:
                                advice = await client.observe(sid, block)
                                got[sid].append(advice.as_dict())
                        for sid in sids:
                            await client.close_session(sid)
                    return got, proxy.stats, fleet.gateway.stats

        got, proxy_stats, gateway_stats = asyncio.run(scenario())
        want = _fault_free_advice(blocks)
        for sid, advice in got.items():
            assert advice == want, f"{sid} diverged"
        assert proxy_stats.resets_injected > 0  # chaos actually fired
        assert gateway_stats.sessions_lost == 0


class TestFleetStats:
    def test_server_level_stats_aggregates_workers(self):
        async def scenario():
            async with _Fleet(3) as fleet:
                async with await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                ) as client:
                    sids = [
                        await client.open(policy="no-prefetch", cache_size=8)
                        for _ in range(9)
                    ]
                    for sid in sids:
                        await client.observe(sid, 1)
                    stats = await client.server_stats()
                return stats

        stats = asyncio.run(scenario())
        assert stats["server"] == "repro.gateway"
        assert stats["workers"] == 3
        assert stats["fleet"]["sessions_opened"] == 9
        assert stats["fleet"]["advice_issued"] == 9
        per_worker = stats["per_worker"]
        assert set(per_worker) == {"w0", "w1", "w2"}
        assert sum(w["sessions_opened"] for w in per_worker.values()) == 9
        assert stats["gateway"]["sessions_opened"] == 9

    def test_worker_identity_in_direct_stats(self):
        async def scenario():
            async with _Fleet(1) as fleet:
                worker_port = fleet.workers["w0"].port
                async with await AsyncServiceClient.connect(
                    port=worker_port
                ) as client:
                    return await client.server_stats()

        stats = asyncio.run(scenario())
        assert stats["server"] == "repro.service"
        assert stats["worker"] == "w0"
        assert "metrics_state" in stats


class TestJournalCompaction:
    def test_journal_is_bounded_by_durable_checkpoints(self, tmp_path):
        """Once a checkpoint has proven a prefix durable, the gateway
        drops that prefix from the per-session journal — and a later
        failover still replays the tail decision-identically from the
        compacted journal."""
        blocks = _blocks(400)
        ckpt = str(tmp_path / "ckpt")

        async def scenario():
            async with _Fleet(
                2, checkpoint_dir=ckpt, journal_compact_after=64
            ) as fleet:
                async with await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                ) as client:
                    sid = await client.open(policy="tree", cache_size=CACHE)
                    got = [
                        (await client.observe(sid, block)).as_dict()
                        for block in blocks[:200]
                    ]
                    victim = fleet.gateway.sessions[sid].worker_id
                    # the periodic checkpoint tick, fired by hand
                    fleet.workers[victim].service.checkpoint_sessions(ckpt)
                    got += [
                        (await client.observe(sid, block)).as_dict()
                        for block in blocks[200:300]
                    ]
                    session = fleet.gateway.sessions[sid]
                    offset = session.journal_offset
                    kept = len(session.journal)
                    compactions = fleet.gateway.stats.journal_compactions
                    # Failover must work from the compacted journal: no
                    # fresh checkpoint, so the tail comes from it alone.
                    fleet.kill(victim)
                    got += [
                        (await client.observe(sid, block)).as_dict()
                        for block in blocks[300:]
                    ]
                    final = await client.close_session(sid)
                    stats = fleet.gateway.stats
                return got, final, offset, kept, compactions, stats

        got, final, offset, kept, compactions, stats = asyncio.run(scenario())
        assert got == _fault_free_advice(blocks)
        assert final["accesses"] == len(blocks)
        # The checkpoint covered periods [0, 200): exactly that prefix
        # was dropped, and only once — re-reads of the same snapshot are
        # no-ops.
        assert offset == 200
        assert kept == 100
        assert compactions == 1
        assert stats.failovers_resumed == 1
        assert stats.sessions_lost == 0

    def test_uncheckpointed_journal_is_never_compacted(self):
        """No checkpoint dir: the journal may grow past the threshold
        but nothing is dropped — every entry might still be needed."""

        async def scenario():
            async with _Fleet(2, journal_compact_after=16) as fleet:
                async with await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                ) as client:
                    sid = await client.open(policy="no-prefetch",
                                            cache_size=8)
                    for block in range(40):
                        await client.observe(sid, block)
                    session = fleet.gateway.sessions[sid]
                    return (session.journal_offset, len(session.journal),
                            fleet.gateway.stats.journal_compactions)

        offset, kept, compactions = asyncio.run(scenario())
        assert offset == 0
        assert kept == 40
        assert compactions == 0

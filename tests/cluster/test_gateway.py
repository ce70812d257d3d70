"""Gateway behavior with in-process workers: parity, routing, failover.

Workers here are :class:`BackgroundServer` instances registered in a
:class:`StaticWorkerDirectory`, so death and recovery are driven
explicitly — the subprocess supervisor has its own tests in
``test_fleet.py``.
"""

import asyncio
import json

import pytest

from repro.cluster import AdvisoryGateway, StaticWorkerDirectory
from repro.cluster.gateway import _WorkerLink
from repro.service import protocol
from repro.service.client import (
    AsyncServiceClient,
    ServiceClient,
    ServiceError,
)
from repro.service.faults import ChaosProxy, FaultPlan
from repro.service.server import BackgroundServer, PrefetchService
from repro.service.session import PrefetchSession
from repro.store import ModelStore, model_snapshot
from repro.tenancy.config import TenancyConfig, TenantSpec
from repro.traces.synthetic import make_trace

CACHE = 64


def _blocks(refs, name="cad", seed=1999):
    return make_trace(name, num_references=refs, seed=seed).as_list()


def _fault_free_advice(blocks, **session_kwargs):
    session = PrefetchSession(policy="tree", cache_size=CACHE,
                              **session_kwargs)
    return [session.observe(block).as_dict() for block in blocks]


def _save_trained_model(store, seed):
    """Save a tree model trained on 300 cad refs as the next ``warm``."""
    trained = PrefetchSession(policy="tree", cache_size=CACHE)
    for block in _blocks(300, seed=seed):
        trained.observe(block)
    return store.save("warm", model_snapshot(trained.simulator.policy.model()))


class _Fleet:
    """N BackgroundServer workers + a gateway, wired synchronously."""

    def __init__(self, count, checkpoint_dir=None, store=None,
                 **gateway_kwargs):
        self.checkpoint_dir = checkpoint_dir
        self.directory = StaticWorkerDirectory()
        self.workers = {}
        for i in range(count):
            worker_id = f"w{i}"
            server = BackgroundServer(service=PrefetchService(
                identity=worker_id, checkpoint_dir=checkpoint_dir,
                store=store,
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
        assert stats.failovers_rebuilt == 0
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

    def test_no_checkpoint_rebuilds_exactly_from_the_journal(self):
        """Without a checkpoint dir the successor re-runs the original
        OPEN and replays the whole gateway journal: the advice goes on
        exactly as in a fault-free run."""
        blocks = _blocks(200)

        async def scenario():
            async with _Fleet(2) as fleet:  # no checkpoint_dir
                async with await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                ) as client:
                    sid = await client.open(policy="tree", cache_size=CACHE)
                    got = [
                        (await client.observe(sid, block)).as_dict()
                        for block in blocks[:100]
                    ]
                    fleet.kill(fleet.gateway.sessions[sid].worker_id)
                    got += [
                        (await client.observe(sid, block)).as_dict()
                        for block in blocks[100:]
                    ]
                    final = await client.close_session(sid)
                    return got, final, fleet.gateway.stats

        got, final, stats = asyncio.run(scenario())
        assert got == _fault_free_advice(blocks)
        assert stats.failovers_rebuilt == 1
        assert stats.sessions_lost == 0
        assert final["accesses"] == len(blocks)

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


class TestRebuildNeedsAPinnedModel:
    """A rebuild re-resolves the OPEN's model, so the gateway rebuilds
    only an OPEN whose model is pinned as NAME@VERSION."""

    def _kill_after_newer_model(self, tmp_path, model):
        """Open on ``model`` with ``warm@1`` saved, fold 100 refs, save
        ``warm@2`` and kill the owner (no checkpoints), fold 100 more."""
        store = ModelStore(tmp_path / "models")
        assert _save_trained_model(store, seed=7) == 1
        blocks = _blocks(200)

        async def scenario():
            async with _Fleet(2, store=store) as fleet:
                async with await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                ) as client:
                    sid = await client.open(
                        policy="tree", cache_size=CACHE, model=model
                    )
                    got = [
                        (await client.observe(sid, block)).as_dict()
                        for block in blocks[:100]
                    ]
                    # A bare name now means version 2.
                    assert _save_trained_model(store, seed=8) == 2
                    fleet.kill(fleet.gateway.sessions[sid].worker_id)
                    try:
                        for block in blocks[100:]:
                            got.append(
                                (await client.observe(sid, block)).as_dict()
                            )
                    except ServiceError:
                        pass
                    return got, fleet.gateway.stats

        got, stats = asyncio.run(scenario())
        want = _fault_free_advice(blocks, warm_start=store.load("warm@1"))
        return got, want, stats

    def test_pinned_model_is_rebuilt_with_parity(self, tmp_path):
        got, want, stats = self._kill_after_newer_model(tmp_path, "warm@1")
        assert got == want
        assert stats.failovers_rebuilt == 1
        assert stats.sessions_lost == 0

    def test_unpinned_model_is_lost_not_served_from_another_version(
        self, tmp_path
    ):
        got, want, stats = self._kill_after_newer_model(tmp_path, "warm")
        assert got == want[:100]  # nothing served after the kill
        assert stats.failovers_rebuilt == 0
        assert stats.sessions_lost == 1

    @pytest.mark.parametrize("open_kwargs, tenant_model, rebuild", [
        ({}, None, True),
        ({"model": "warm@1"}, None, True),
        ({"model": "warm"}, None, False),
        ({"tenant": "acme"}, "base@2", True),
        ({"tenant": "acme"}, "base", False),
        ({"tenant": "acme"}, None, False),  # gateway has no tenant config
        ({"resume": "g1"}, None, False),  # adopted: no original OPEN
    ])
    def test_rebuild_rule(self, open_kwargs, tenant_model, rebuild):
        config = None
        if tenant_model is not None:
            config = TenancyConfig(tenants={
                "acme": TenantSpec(name="acme", model=tenant_model),
            })
        gateway = AdvisoryGateway(
            StaticWorkerDirectory(), tenant_config=config
        )
        request = protocol.OpenRequest(id=0, **open_kwargs)
        assert gateway._rebuildable(request) is rebuild


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
                client1._upstream.transport.abort()  # vanish
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

    def test_reattach_reports_the_workers_degraded_flag(self, tmp_path):
        """cb-ppm cannot load a tree model, so the worker serves the
        session degraded; a reattach must still say so."""
        store = ModelStore(tmp_path / "models")
        _save_trained_model(store, seed=7)

        async def scenario():
            async with _Fleet(1, store=store) as fleet:
                client1 = await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                )
                opened = await client1.open_session(
                    policy="cb-ppm", model="warm"
                )
                stats = await client1.stats(opened.session)
                client1._upstream.transport.abort()  # vanish
                for _ in range(100):
                    await asyncio.sleep(0.02)
                    if fleet.gateway.stats.sessions_orphaned:
                        break
                async with await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                ) as client2:
                    resumed = await client2.open_session(
                        resume=opened.session
                    )
                    await client2.close_session(opened.session)
                return opened, stats, resumed, fleet.gateway.stats

        opened, stats, resumed, gateway_stats = asyncio.run(scenario())
        assert opened.degraded
        assert stats["degraded"] is True
        assert gateway_stats.sessions_reattached == 1
        assert resumed.resumed
        assert resumed.degraded


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

    @pytest.mark.parametrize("fault", ["garbage_every", "truncate_every"])
    def test_garbage_or_cut_reply_fails_over(self, fault):
        """A worker reply that does not parse, or is cut mid-line, on the
        OBSERVE relay tears the link down, counts a breaker failure
        and fails the session over; the client sees clean advice."""
        blocks = _blocks(120)

        async def scenario():
            async with _Fleet(2) as fleet:
                gateway = fleet.gateway
                owner = gateway.ring.owner("g1")
                # Lines from the owner: HELLO, the OPEN reply, then
                # OBSERVE replies; the 30th line is the faulty one.
                plan = FaultPlan(**{fault: 30})
                behind = fleet.workers[owner].port
                async with ChaosProxy(port=behind, plan=plan) as proxy:
                    fleet.directory.register(owner, "127.0.0.1", proxy.port)
                    async with await AsyncServiceClient.connect(
                        port=gateway.endpoint.port
                    ) as client:
                        sid = await client.open(
                            policy="tree", cache_size=CACHE
                        )
                        got = [
                            (await client.observe(sid, block)).as_dict()
                            for block in blocks
                        ]
                moved_to = gateway.sessions[sid].worker_id
                failures = gateway._breaker(owner).failures
                return got, owner, moved_to, failures, proxy.stats, (
                    gateway.stats
                )

        got, owner, moved_to, failures, proxy, stats = asyncio.run(
            scenario()
        )
        assert got == _fault_free_advice(blocks)
        assert proxy.garbage_injected + proxy.truncations_injected == 1
        assert failures == 1
        assert moved_to != owner
        assert stats.failovers_rebuilt == 1
        assert stats.sessions_lost == 0


class TestSharedSession:
    def test_concurrent_observes_on_one_session_fold_once_each(self):
        """Four connections OBSERVE one session at once, so an OBSERVE
        that finds the session busy waits for the lock's handover, then
        relays: every request folds exactly once, with its own seq, and
        the journal records each block at the period the worker folded
        it."""

        async def scenario():
            async with _Fleet(1) as fleet:
                port = fleet.gateway.endpoint.port
                clients = [
                    await AsyncServiceClient.connect(port=port)
                    for _ in range(4)
                ]
                sid = await clients[0].open(policy="tree", cache_size=CACHE)

                async def stream(client, offset):
                    return [
                        await client.observe(sid, offset * 1000 + i)
                        for i in range(50)
                    ]

                try:
                    replies = await asyncio.wait_for(asyncio.gather(*(
                        stream(client, k) for k, client in enumerate(clients)
                    )), 30.0)
                finally:
                    for client in clients:
                        await client.aclose()
                session = fleet.gateway.sessions[sid]
                folded = fleet.workers["w0"].service.sessions[sid]
                return (
                    [a for per_client in replies for a in per_client],
                    session.journal_offset, list(session.journal),
                    folded.observations,
                )

        advice, offset, journal, folded = asyncio.run(scenario())
        assert folded == len(journal) == len(advice) == 200
        periods = sorted(a.period for a in advice)
        assert periods == list(range(periods[0], periods[0] + 200))
        for a in advice:
            assert journal[a.period - periods[0]] == a.block
        assert offset == 0


class TestClientIsolation:
    def test_a_line_that_raises_ends_only_its_own_connection(
        self, monkeypatch
    ):
        """A line the decoder cannot handle (a marker line, on which a
        wrapped decoder raises TypeError), held behind a client's
        OBSERVE, is served as the worker's reply is relayed, inside the
        worker link's callback.  It ends that client's connection alone:
        another client streaming on the same worker keeps its worker and
        clean advice, and the breaker counts no failure."""
        blocks = _blocks(300)
        marker = b'{"v":3,"cmd":"raise","id":3}'
        decode = protocol.decode_request

        def raising(line):
            if line == marker:
                raise TypeError("injected decoder failure")
            return decode(line)

        monkeypatch.setattr(protocol, "decode_request", raising)

        async def scenario():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda _, context: reported.append(
                (context["message"], type(context.get("exception")))
            ))
            async with _Fleet(2) as fleet:
                gateway = fleet.gateway
                port = gateway.endpoint.port
                streamer = await AsyncServiceClient.connect(port=port)
                sid = await streamer.open(policy="tree", cache_size=CACHE)
                worker = gateway.sessions[sid].worker_id
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                await reader.readline()  # HELLO
                other = None
                while other is None or (
                    gateway.sessions[other].worker_id != worker
                ):
                    writer.write(protocol.encode_request(
                        protocol.OpenRequest(id=1, policy="no-prefetch")
                    ))
                    other = json.loads(await reader.readline())["session"]

                async def stream():
                    return [
                        (await streamer.observe(sid, block)).as_dict()
                        for block in blocks
                    ]

                streaming = asyncio.ensure_future(stream())
                while gateway.sessions[sid].next_seq < 50:
                    await asyncio.sleep(0.001)
                writer.write(protocol.encode_request(
                    protocol.ObserveRequest(id=2, session=other, block=7)
                ) + marker + b"\n")
                lines = []
                try:
                    while line := await asyncio.wait_for(
                        reader.readline(), 10.0
                    ):
                        lines.append(json.loads(line))
                except ConnectionResetError:
                    pass
                except asyncio.TimeoutError:
                    lines.append("still open")
                writer.close()
                try:
                    got = await asyncio.wait_for(streaming, 30.0)
                finally:
                    await streamer.aclose()
                return (
                    got, lines, worker, gateway.sessions[sid].worker_id,
                    gateway._breaker(worker).failures, gateway.stats,
                    reported,
                )

        got, lines, worker, now_on, failures, stats, reported = asyncio.run(
            scenario()
        )
        assert now_on == worker
        assert failures == 0
        assert stats.failovers_resumed + stats.failovers_rebuilt == 0
        assert got == _fault_free_advice(blocks)
        assert "still open" not in lines
        assert [line["cmd"] for line in lines] in ([], ["observe"])
        assert reported == [("error serving a request line", TypeError)]


class TestWorkerLink:
    def test_worker_closing_right_after_hello_fails_each_request(self):
        """A worker that greets and closes at once (a draining one, say)
        fails every request with ConnectionError: the link never keeps a
        connection that is already gone, so no request waits on it for
        good."""
        hello = protocol.encode_reply(protocol.HelloReply(id=0))

        async def scenario():
            async def greet_and_close(reader, writer):
                writer.write(hello)
                writer.close()

            server = await asyncio.start_server(
                greet_and_close, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            link = _WorkerLink(
                "w0", lambda: ("127.0.0.1", port), timeout_s=0.5
            )
            request = protocol.encode_request(protocol.StatsRequest(id=1))
            outcomes = []
            try:
                for _ in range(5):
                    try:
                        await asyncio.wait_for(link.request(request), 3.0)
                        outcomes.append("reply")
                    except ConnectionError:
                        outcomes.append("lost")
                    except asyncio.TimeoutError:
                        outcomes.append("hung")
                connected = link.connected
            finally:
                await link.aclose()
                server.close()
                await server.wait_closed()
            return outcomes, connected

        outcomes, connected = asyncio.run(scenario())
        assert outcomes == ["lost"] * 5
        assert not connected


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


class TestServingPathCost:
    """The idle, drain and worker-reply bounds and the serving path
    itself cost nothing per request: 200 OBSERVEs arm no timer and make
    no task or future each (counted, not timed).  A blocking client on
    another thread drives them, so the event loop counts only server
    work."""

    NAMES = ("call_at", "create_task", "create_future")

    def _check(self, flavor):
        blocks = _blocks(200)

        async def scenario():
            loop = asyncio.get_running_loop()
            counts = dict.fromkeys(self.NAMES, 0)

            def counting(name):
                real = getattr(loop, name)

                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return real(*args, **kwargs)

                setattr(loop, name, wrapper)

            worker = PrefetchService(identity="w0")
            await worker.endpoint.start("127.0.0.1", 0)
            front = worker
            if flavor == "gateway":
                directory = StaticWorkerDirectory()
                directory.register("w0", "127.0.0.1", worker.endpoint.port)
                front = AdvisoryGateway(directory)
                await front.endpoint.start(port=0)
            client = await asyncio.to_thread(
                ServiceClient.connect, port=front.endpoint.port
            )
            try:
                session = await asyncio.to_thread(
                    client.open, policy="tree", cache_size=CACHE
                )

                def observe_all():
                    return [client.observe(session, b) for b in blocks]

                for name in self.NAMES:  # call_later arms through call_at,
                    counting(name)       # ensure_future through create_task
                try:
                    advice = await asyncio.to_thread(observe_all)
                finally:
                    for name in self.NAMES:
                        delattr(loop, name)
            finally:
                client.close()
                if front is not worker:
                    await front.aclose()
                await worker.aclose()
            return counts, advice

        counts, advice = asyncio.run(scenario())
        assert [a.as_dict() for a in advice] == _fault_free_advice(blocks)
        for name in self.NAMES:
            assert counts[name] <= 10, counts

    def test_requests_arm_no_timer_and_start_no_task(self):
        """Through a gateway and its worker on one event loop."""
        self._check("gateway")

    def test_bare_worker_requests_arm_no_timer_and_start_no_task(self):
        self._check("bare")


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


class TestCompactionAttempts:
    def test_a_missing_checkpoint_is_looked_for_once_per_bound(
        self, tmp_path, monkeypatch
    ):
        """With a checkpoint directory but no checkpoint covering the
        journal, the gateway looks again only once the journal has grown
        by another ``journal_compact_after`` entries, not on every
        OBSERVE past the bound: attempts at 64, 128 and 192 entries."""
        from repro.cluster import gateway as gateway_module

        reads = []
        real = gateway_module.read_snapshot

        def counted(path):
            reads.append(path)
            return real(path)

        monkeypatch.setattr(gateway_module, "read_snapshot", counted)
        blocks = _blocks(200)

        async def scenario():
            async with _Fleet(
                1, checkpoint_dir=str(tmp_path / "ckpt"),
                journal_compact_after=64,
            ) as fleet:
                async with await AsyncServiceClient.connect(
                    port=fleet.gateway.endpoint.port
                ) as client:
                    sid = await client.open(policy="tree", cache_size=CACHE)
                    got = [
                        (await client.observe(sid, block)).as_dict()
                        for block in blocks
                    ]
                    session = fleet.gateway.sessions[sid]
                    return got, len(session.journal), fleet.gateway.stats

        got, kept, stats = asyncio.run(scenario())
        assert got == _fault_free_advice(blocks)
        assert 1 <= len(reads) <= 3
        assert kept == 200
        assert stats.journal_compactions == 0

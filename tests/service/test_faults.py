"""Resilience under injected faults: chaos proxy, resume, drain, degrade.

The central claim of the resilience layer is *decision parity*: whatever
the network does — resets, delays, truncated or garbage reply lines, even
a server kill and restart — a resilient client's advice stream is
bit-identical to a fault-free run.  Session determinism makes that
checkable, so every test here checks it.
"""

import asyncio
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys

import pytest

from repro.cluster import AdvisoryGateway, StaticWorkerDirectory
from repro.params import PAPER_PARAMS
from repro.service import protocol
from repro.service.client import (
    AsyncServiceClient,
    ResilientAsyncClient,
    ResumeParityError,
    RetryPolicy,
    ServiceClient,
)
from repro.service.faults import ChaosProxy, ChaosStats, FaultPlan
from repro.service.server import (
    BackgroundServer,
    PrefetchService,
    ServiceLimits,
    drain_service,
)
from repro.service.session import PrefetchSession
from repro.store import ModelStore, model_snapshot
from repro.traces.synthetic import make_trace

CACHE = 64


def _blocks(refs, name="cad", seed=1999):
    return make_trace(name, num_references=refs, seed=seed).as_list()


def _fault_free_advice(blocks):
    """Ground truth: the offline session's advice stream, as dicts."""
    session = PrefetchSession(policy="tree", cache_size=CACHE)
    return [session.observe(block).as_dict() for block in blocks]


def _retry(**overrides):
    """A fast, deterministic retry policy for loopback tests."""
    defaults = dict(max_attempts=10, base_delay_s=0.01, max_delay_s=0.1,
                    per_rpc_timeout_s=5.0, overall_deadline_s=30.0, seed=7)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


async def _with_server(coro, **service_kwargs):
    service = PrefetchService(**service_kwargs)
    await service.endpoint.start("127.0.0.1", 0)
    try:
        return await coro(service, service.endpoint.port)
    finally:
        await service.aclose()


@contextlib.asynccontextmanager
async def _front(flavor, *, idle_timeout_s=300.0, request_timeout_s=60.0):
    """A client-facing endpoint with the given bounds: a bare worker, or
    a gateway (those bounds) fronting a worker (default bounds).

    Yields ``(port, counters)``; ``counters`` is the front's live metrics
    object, final once the block exits and every connection is torn down.
    """
    limits = ServiceLimits(
        idle_timeout_s=idle_timeout_s, request_timeout_s=request_timeout_s,
    )
    worker = front = PrefetchService(
        limits=limits if flavor == "bare" else ServiceLimits()
    )
    await worker.endpoint.start("127.0.0.1", 0)
    if flavor == "gateway":
        directory = StaticWorkerDirectory()
        directory.register("w0", "127.0.0.1", worker.endpoint.port)
        front = AdvisoryGateway(
            directory, idle_timeout_s=idle_timeout_s,
            request_timeout_s=request_timeout_s,
        )
        await front.endpoint.start(port=0)
    try:
        yield front.endpoint.port, (
            front.stats if flavor == "gateway" else front.metrics
        )
    finally:
        if flavor == "gateway":
            await front.aclose()
        await worker.aclose()


class TestFaultPlan:
    def test_rejects_nonpositive_intervals(self):
        with pytest.raises(ValueError, match="reset_every"):
            FaultPlan(reset_every=0)
        with pytest.raises(ValueError, match="delay_s"):
            FaultPlan(delay_s=-1.0)

    def test_injects_anything(self):
        assert not FaultPlan().injects_anything
        assert FaultPlan(garbage_every=3).injects_anything

    def test_drops_counts_resets_and_truncations(self):
        stats = ChaosStats(resets_injected=2, truncations_injected=3)
        assert stats.drops_injected == 5
        assert stats.as_dict()["drops_injected"] == 5


class TestChaosParity:
    """Resets + delays + corrupt lines; the advice stream must not care."""

    def test_resets_resume_decision_identically(self):
        blocks = _blocks(400)
        want = _fault_free_advice(blocks)

        async def scenario(service, port):
            plan = FaultPlan(reset_every=45, delay_every=17, delay_s=0.005)
            async with ChaosProxy(port=port, plan=plan) as proxy:
                client = ResilientAsyncClient(port=proxy.port, retry=_retry())
                async with client:
                    await client.open(policy="tree", cache_size=CACHE)
                    got = [
                        (await client.observe(block)).as_dict()
                        for block in blocks
                    ]
                    final = await client.close_session()
                return got, final, proxy.stats, client

        got, final, stats, client = asyncio.run(_with_server(scenario))
        assert got == want
        assert final["accesses"] == len(blocks)
        # the run actually exercised the fault path
        assert stats.resets_injected > 0
        assert client.retries > 0
        assert client.resumes > 0

    def test_garbage_and_truncated_lines_are_survived(self):
        blocks = _blocks(300)
        want = _fault_free_advice(blocks)

        async def scenario(service, port):
            plan = FaultPlan(garbage_every=31, truncate_every=53)
            async with ChaosProxy(port=port, plan=plan) as proxy:
                client = ResilientAsyncClient(port=proxy.port, retry=_retry())
                async with client:
                    await client.open(policy="tree", cache_size=CACHE)
                    got = [
                        (await client.observe(block)).as_dict()
                        for block in blocks
                    ]
                    await client.close_session()
                return got, proxy.stats, service.metrics.as_dict()

        got, stats, metrics = asyncio.run(_with_server(scenario))
        assert got == want
        assert stats.garbage_injected > 0
        assert stats.truncations_injected > 0
        assert metrics["sessions_resumed"] > 0

    def test_duplicate_observe_is_served_from_cache(self):
        """A retried duplicate of the last OBSERVE must not fold twice."""

        async def scenario(service, port):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", port
            ) as client:
                session = await client.open(policy="tree", cache_size=CACHE)
                first = await client.observe(session, 42, seq=0)
                again = await client.observe(session, 42, seq=0)
                period = service.sessions[session].observations
                return first, again, period, service.metrics.as_dict()

        first, again, period, metrics = asyncio.run(_with_server(scenario))
        assert first == again
        assert period == 1  # the duplicate did not advance the session
        assert metrics["duplicates_served"] == 1

    def test_seq_gap_is_rejected(self):
        async def scenario(service, port):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", port
            ) as client:
                session = await client.open(policy="tree", cache_size=CACHE)
                await client.observe(session, 1, seq=0)
                from repro.service.client import ServiceError
                with pytest.raises(ServiceError) as excinfo:
                    await client.observe(session, 3, seq=5)
                return excinfo.value.code

        assert asyncio.run(_with_server(scenario)) == protocol.E_SEQ


class TestServerKillResume:
    def test_mid_replay_kill_resumes_from_checkpoint(self, tmp_path):
        """Kill the server mid-replay; a restarted server on the same port
        with the same checkpoint directory continues the session with
        bit-identical advice, including the stale tail replayed from the
        client's journal."""
        blocks = _blocks(500)
        want = _fault_free_advice(blocks)
        ckpt = str(tmp_path / "ckpts")

        service1 = PrefetchService(checkpoint_dir=ckpt)
        server1 = BackgroundServer(service=service1).start().wait_ready()
        port = server1.port

        async def scenario():
            client = ResilientAsyncClient(port=port, retry=_retry())
            got = []
            async with client:
                await client.open(policy="tree", cache_size=CACHE)
                for block in blocks[:300]:
                    got.append((await client.observe(block)).as_dict())
                # checkpoint now, then keep going so the checkpoint is
                # stale when the server dies: resume must replay the tail
                assert service1.checkpoint_sessions(ckpt) == 1
                for block in blocks[300:350]:
                    got.append((await client.observe(block)).as_dict())
                await asyncio.to_thread(server1.stop)
                service2 = PrefetchService(checkpoint_dir=ckpt)
                # wait_ready closes the restart race: the rebind on a
                # fixed port can lag the old socket's teardown, and the
                # client reconnects the instant start() returns.
                server2 = await asyncio.to_thread(
                    lambda: BackgroundServer(
                        service=service2, port=port
                    ).start().wait_ready()
                )
                try:
                    for block in blocks[350:]:
                        got.append((await client.observe(block)).as_dict())
                    final = await client.close_session()
                finally:
                    await asyncio.to_thread(server2.stop)
            return got, final, client, service2.metrics.as_dict()

        got, final, client, metrics2 = asyncio.run(scenario())
        assert got == want
        assert final["accesses"] == len(blocks)
        assert client.retries > 0
        assert metrics2["sessions_resumed"] == 1

    def test_detached_session_resumes_without_checkpoint_dir(self):
        """An abrupt disconnect parks the session in the in-memory
        detached table; a plain reconnect + resume picks it up."""
        blocks = _blocks(200)
        want = _fault_free_advice(blocks)

        async def scenario(service, port):
            client1 = await AsyncServiceClient.connect("127.0.0.1", port)
            reply = await client1.open_session(policy="tree",
                                               cache_size=CACHE)
            got = [
                (await client1.observe(reply.session, block)).as_dict()
                for block in blocks[:120]
            ]
            # vanish without CLOSE
            client1._upstream.transport.abort()
            await asyncio.sleep(0.05)
            assert service.metrics.sessions_detached == 1

            client2 = await AsyncServiceClient.connect("127.0.0.1", port)
            resumed = await client2.open_session(resume=reply.session)
            assert resumed.resumed
            assert resumed.period == 120
            got += [
                (await client2.observe(resumed.session, block)).as_dict()
                for block in blocks[120:]
            ]
            await client2.aclose()
            return got

        assert asyncio.run(_with_server(scenario)) == want

    def test_resume_of_unknown_session_is_clean_error(self):
        async def scenario(service, port):
            from repro.service.client import ServiceError
            async with await AsyncServiceClient.connect(
                "127.0.0.1", port
            ) as client:
                with pytest.raises(ServiceError, match="no detached session"):
                    await client.open_session(resume="s999")
            return True

        assert asyncio.run(_with_server(scenario))


async def _drop_connection(client, service):
    """Abort a resilient client's connection; return once the server
    has detached the session."""
    detached = service.metrics.sessions_detached
    client._client._upstream.transport.abort()
    for _ in range(200):
        if service.metrics.sessions_detached > detached:
            return
        await asyncio.sleep(0.01)
    raise AssertionError("server never detached the session")


class TestRecoveryContract:
    """What the resilient client does when the server's state is not the
    one its journal describes."""

    def _run(self, blocks, disturb, **service_kwargs):
        """Observe ``blocks[:150]``, ``await disturb(client, service)``,
        then observe the rest; return the advice and the client."""

        async def scenario(service, port):
            client = ResilientAsyncClient(port=port, retry=_retry())
            async with client:
                await client.open(policy="tree", cache_size=CACHE)
                got = [
                    (await client.observe(block)).as_dict()
                    for block in blocks[:150]
                ]
                await disturb(client, service)
                for block in blocks[150:]:
                    got.append((await client.observe(block)).as_dict())
            return got, client

        return asyncio.run(_with_server(scenario, **service_kwargs))

    def test_lost_state_rebuilds_with_parity(self):
        blocks = _blocks(300)

        async def lose_state(client, service):
            await _drop_connection(client, service)
            service.detached.clear()

        got, client = self._run(blocks, lose_state)
        assert got == _fault_free_advice(blocks)
        assert client.cold_restarts == 1
        assert client.resumes == 0

    def test_divergent_rebuild_raises(self):
        """A server restarted with other parameters rebuilds a session
        whose advice differs: that must raise, not be served."""
        blocks = _blocks(400)

        async def scenario():
            service1 = PrefetchService()
            await service1.endpoint.start("127.0.0.1", 0)
            port = service1.endpoint.port
            client = ResilientAsyncClient(port=port, retry=_retry())
            async with client:
                await client.open(policy="tree", cache_size=CACHE)
                for block in blocks[:200]:
                    await client.observe(block)
                await service1.aclose()
                service2 = PrefetchService(
                    default_params=PAPER_PARAMS.with_t_cpu(2.0)
                )
                await service2.endpoint.start("127.0.0.1", port)
                try:
                    with pytest.raises(ResumeParityError,
                                       match="replayed observation"):
                        await client.observe(blocks[200])
                finally:
                    await service2.aclose()
            return client, service2.metrics.as_dict()

        client, metrics = asyncio.run(scenario())
        assert client.cold_restarts == 1
        assert metrics["sessions_opened"] == 1  # no second attempt

    def test_resume_past_the_journal_raises(self):
        blocks = _blocks(300)

        async def fold_extra_then_drop(client, service):
            for block in (10**6, 10**6 + 1):
                service.sessions[client.session_id].observe(block)
            await _drop_connection(client, service)

        with pytest.raises(ResumeParityError, match="period 152"):
            self._run(blocks, fold_extra_then_drop)

    def test_seq_error_forces_a_rebuild(self):
        blocks = _blocks(300)

        async def fold_extra(client, service):
            service.sessions[client.session_id].observe(10**6)

        got, client = self._run(blocks, fold_extra)
        assert got == _fault_free_advice(blocks)
        assert client.cold_restarts == 1

    def test_shed_rebuild_is_retried_on_a_new_connection(self):
        """The rebuild's OPEN is shed once; the client backs off and
        recovers on a new connection instead of keeping one that holds
        no session."""
        blocks = _blocks(300)

        async def lose_state_and_shed_once(client, service):
            await _drop_connection(client, service)
            service.detached.clear()
            shed = iter([True])
            service.overload.shed_open = lambda: next(shed, False)

        got, client = self._run(blocks, lose_state_and_shed_once)
        assert got == _fault_free_advice(blocks)
        assert client.overload_backoffs == 1
        assert client.cold_restarts == 1


class TestDegradedMode:
    def test_bad_model_degrades_instead_of_rejecting(self, tmp_path):
        registry = ModelStore(tmp_path / "models")
        trained = PrefetchSession(policy="tree", cache_size=CACHE)
        for block in _blocks(100):
            trained.observe(block)
        registry.save("warm", model_snapshot(trained.simulator.policy.model()))

        async def scenario(service, port):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", port
            ) as client:
                # cb-ppm's model kind does not match the stored tree model,
                # so the warm start fails -> degraded no-prefetch session
                reply = await client.open_session(policy="cb-ppm",
                                                  model="warm")
                advice = await client.observe(reply.session, 7)
                stats = await client.stats(reply.session)
                return reply, advice, stats, service.metrics.as_dict()

        reply, advice, stats, metrics = asyncio.run(
            _with_server(scenario, store=ModelStore(tmp_path / "models"))
        )
        assert reply.degraded
        assert reply.policy == "no-prefetch"
        assert advice.prefetch == ()
        assert stats["degraded"] is True
        assert metrics["degraded_sessions"] == 1
        assert metrics["sessions_rejected"] == 0


class TestDrain:
    def test_drain_checkpoints_every_open_session(self, tmp_path):
        ckpt = tmp_path / "drain"

        async def scenario(service, port):
            await service.endpoint.start("127.0.0.1", 0)
            clients = []
            for offset in range(3):
                client = await AsyncServiceClient.connect(
                    "127.0.0.1", service.endpoint.port
                )
                session = await client.open(policy="tree", cache_size=CACHE)
                for block in _blocks(50, seed=offset + 1):
                    await client.observe(session, block)
                clients.append((client, session))
            drained = await drain_service(service, checkpoint_dir=str(ckpt))
            # drained connections read EOF, not a hang
            for client, _ in clients:
                assert await client._upstream.closed is None
            return drained, service.metrics.as_dict()

        service = PrefetchService()
        drained, metrics = asyncio.run(scenario(service, 0))
        assert drained == 3
        assert metrics["drained_sessions"] == 3
        assert len(list(ckpt.glob("*.snap"))) == 3

    def test_sigterm_drains_the_real_daemon(self, tmp_path):
        """End-to-end: ``repro serve`` under SIGTERM checkpoints every open
        session and says so before exiting."""
        ckpt = tmp_path / "ckpts"
        repo = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--checkpoint-dir", str(ckpt), "--checkpoint-every-s", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner
            port = int(banner.split(":")[-1].split()[0])
            client = ServiceClient.connect(port=port, timeout=10.0)
            session = client.open(policy="tree", cache_size=CACHE)
            for block in _blocks(40):
                client.observe(session, block)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=20)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "drained 1 session(s)" in out
        assert (ckpt / f"{session}.snap").exists()


class TestTimeouts:
    @pytest.mark.parametrize("flavor", ["bare", "gateway"])
    def test_idle_connection_is_reaped(self, flavor):
        async def scenario():
            # Only the front times out: behind a gateway, the worker's
            # link must stay up.
            worker = front = PrefetchService(limits=ServiceLimits(
                idle_timeout_s=0.2 if flavor == "bare" else 300.0
            ))
            await worker.endpoint.start("127.0.0.1", 0)
            if flavor == "gateway":
                directory = StaticWorkerDirectory()
                directory.register("w0", "127.0.0.1", worker.endpoint.port)
                front = AdvisoryGateway(directory, idle_timeout_s=0.2)
                await front.endpoint.start(port=0)
            try:
                client = await AsyncServiceClient.connect(
                    "127.0.0.1", front.endpoint.port
                )
                session = await client.open(policy="tree", cache_size=CACHE)
                assert session
                # send nothing; the front must hang up on its own
                eof = await asyncio.wait_for(client._upstream.closed, 5.0)
                await client.aclose()
            finally:
                if flavor == "gateway":
                    await front.aclose()
                await worker.aclose()
            counters = front.stats if flavor == "gateway" else front.metrics
            return eof, counters.as_dict()

        eof, counters = asyncio.run(scenario())
        assert eof is None  # a clean close, not a reset
        assert counters["timeouts"] == 1
        if flavor == "bare":
            assert counters["live_sessions"] == 0  # reaped, not leaked
        else:
            assert counters["sessions_orphaned"] == 1  # kept resumable

    @pytest.mark.parametrize("flavor", ["bare", "gateway"])
    def test_idle_deadline_counts_from_the_last_read(self, flavor):
        """Steady traffic outlives the idle timeout many times over; the
        deadline runs only while a read waits."""

        async def scenario():
            async with _front(flavor, idle_timeout_s=0.3) as (port, counters):
                client = await AsyncServiceClient.connect("127.0.0.1", port)
                session = await client.open(
                    policy="no-prefetch", cache_size=CACHE
                )
                loop = asyncio.get_running_loop()
                busy_until = loop.time() + 1.2
                sent = 0
                while loop.time() < busy_until:
                    await client.observe(session, sent)
                    sent += 1
                    await asyncio.sleep(0.1)
                busy_timeouts = counters.timeouts
                # now go silent: the front must hang up on its own
                eof = await asyncio.wait_for(client._upstream.closed, 5.0)
                await client.aclose()
            return sent, busy_timeouts, eof, counters.as_dict()

        sent, busy_timeouts, eof, counters = asyncio.run(scenario())
        assert sent >= 10
        assert busy_timeouts == 0
        assert eof is None  # a clean close, not a reset
        assert counters["timeouts"] == 1
        if flavor == "bare":
            assert counters["live_sessions"] == 0
        else:
            assert counters["sessions_orphaned"] == 1

    @pytest.mark.parametrize("flavor", ["bare", "gateway"])
    def test_unread_replies_hit_the_drain_bound(self, flavor):
        """A client that pipelines requests and never reads is dropped
        once a reply cannot drain within the drain bound."""

        async def scenario():
            async with _front(
                flavor, request_timeout_s=0.5
            ) as (port, counters):
                loop = asyncio.get_running_loop()
                sock = socket.socket()
                # A small receive window, and a stream that stops reading
                # once 2 KiB are buffered, back replies up into the
                # front's transport, past its 64 KiB high-water mark.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.setblocking(False)
                await loop.sock_connect(sock, ("127.0.0.1", port))
                reader, writer = await asyncio.open_connection(
                    sock=sock, limit=1024
                )
                try:
                    await asyncio.wait_for(reader.readline(), 5.0)  # HELLO
                    # 4-5 KB replies: ~10 MB the client never reads, more
                    # than the front's socket buffers can take (<= 4 MB
                    # send buffer under Linux's default tcp_wmem).
                    stats = protocol.encode_request(protocol.StatsRequest(
                        id=1, session=None, format="prometheus",
                    ))
                    writer.write(stats * 2000)
                    give_up = loop.time() + 30.0
                    while counters.timeouts == 0 and loop.time() < give_up:
                        await asyncio.sleep(0.05)
                finally:
                    writer.transport.abort()
            return counters.as_dict()

        counters = asyncio.run(scenario())
        assert counters["timeouts"] == 1
        assert counters["connections_closed"] == 1

    def test_overdue_worker_reply_fails_over(self):
        """A worker reply later than the gateway's request timeout tears
        the link down, and the session fails over to the other worker;
        the client just gets its answer."""

        async def scenario():
            workers = [PrefetchService(identity=f"w{i}") for i in range(2)]
            directory = StaticWorkerDirectory()
            for i, worker in enumerate(workers):
                await worker.endpoint.start("127.0.0.1", 0)
                directory.register(f"w{i}", "127.0.0.1", worker.endpoint.port)
            gateway = AdvisoryGateway(directory, request_timeout_s=0.5)
            owner = gateway.ring.owner("g1")
            # Lines from the owner: HELLO, the OPEN reply, then the first
            # OBSERVE reply, which is held back far past the deadline.
            proxy = ChaosProxy(
                port=directory.endpoints()[owner][1],
                plan=FaultPlan(delay_every=3, delay_s=5.0),
            )
            await proxy.start()
            directory.register(owner, "127.0.0.1", proxy.port)
            await gateway.endpoint.start(port=0)
            try:
                async with await AsyncServiceClient.connect(
                    port=gateway.endpoint.port
                ) as client:
                    session = await client.open(
                        policy="tree", cache_size=CACHE
                    )
                    advice = await asyncio.wait_for(
                        client.observe(session, 42), 4.0
                    )
            finally:
                await gateway.aclose()
                await proxy.aclose()
                for worker in workers:
                    await worker.aclose()
            return session, advice, gateway.stats, proxy.stats

        session, advice, stats, proxy_stats = asyncio.run(scenario())
        assert session == "g1"
        assert proxy_stats.delays_injected == 1
        want = PrefetchSession(policy="tree", cache_size=CACHE).observe(42)
        assert advice.as_dict() == want.as_dict()
        # nothing was folded yet, so the reopen on the successor is clean
        assert stats.failovers_resumed == 1
        assert stats.sessions_lost == 0

    def test_sync_client_surfaces_read_timeout(self):
        """A listener that accepts but never speaks must raise a clean
        TimeoutError, not hang the caller."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            with pytest.raises(TimeoutError):
                ServiceClient.connect(
                    port=listener.getsockname()[1], timeout=0.3
                )
        finally:
            listener.close()


class TestBadLines:
    @pytest.mark.parametrize("flavor", ["bare", "gateway"])
    def test_lines_that_once_raised_get_an_error_line_each(self, flavor):
        """A non-string ``cmd`` and an infinite number where an integer
        belongs are bad requests like any other: one ``bad_request``
        line each, and the connection stays open."""
        bad = [
            b'{"v":3,"cmd":[1],"id":1}',
            b'{"v":3,"cmd":"observe","id":1,"session":"s1","block":1e999}',
            b'{"v":3,"cmd":"observe","id":1e999,"session":"s1","block":1}',
            b'{"v":3,"cmd":"open","id":1,"cache_size":1e999}',
        ]
        open_line = protocol.encode_request(protocol.OpenRequest(
            id=7, policy="no-prefetch", cache_size=8,
        ))

        async def scenario():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(
                lambda _, context: reported.append(context["message"])
            )
            async with _front(flavor) as (port, counters):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                try:
                    await reader.readline()  # HELLO
                    writer.write(b"\n".join(bad) + b"\n" + open_line)
                    replies = [
                        json.loads(await asyncio.wait_for(
                            reader.readline(), 5.0
                        ))
                        for _ in range(len(bad) + 1)
                    ]
                finally:
                    writer.close()
                return replies, counters.errors, reported

        replies, errors, reported = asyncio.run(scenario())
        assert [r.get("error") for r in replies[:-1]] == (
            [protocol.E_BAD_REQUEST] * len(bad)
        )
        assert replies[-1]["cmd"] == "open" and replies[-1]["ok"] is True
        assert errors == len(bad)
        assert reported == []


class TestClientDeadline:
    def test_overdue_reply_reconnects_and_resumes(self):
        """A reply held back past ``per_rpc_timeout_s`` ends the attempt:
        the resilient client reconnects, resumes the session and goes
        on with the same advice as a fault-free run."""
        blocks = _blocks(300)
        want = _fault_free_advice(blocks)

        async def scenario(service, port):
            plan = FaultPlan(delay_every=100, delay_s=1.0)
            async with ChaosProxy(port=port, plan=plan) as proxy:
                client = ResilientAsyncClient(
                    port=proxy.port, retry=_retry(per_rpc_timeout_s=0.2)
                )
                async with client:
                    await client.open(policy="tree", cache_size=CACHE)
                    got = [
                        (await client.observe(block)).as_dict()
                        for block in blocks
                    ]
                    await client.close_session()
                return got, proxy.stats, client

        got, stats, client = asyncio.run(_with_server(scenario))
        assert got == want
        assert stats.delays_injected > 0
        assert client.retries >= 1


class TestClientCost:
    """The clients' own cost per request: 200 OBSERVEs arm no timer and
    start no task, and make about one future each (counted, not timed).
    The server runs on another thread, so the event loop counts only
    client work."""

    NAMES = ("call_at", "create_task", "create_future")

    def _count(self, flavor):
        blocks = _blocks(200)

        async def scenario(port):
            loop = asyncio.get_running_loop()
            counts = dict.fromkeys(self.NAMES, 0)

            def counting(name):
                real = getattr(loop, name)

                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return real(*args, **kwargs)

                setattr(loop, name, wrapper)

            if flavor == "plain":
                client = await AsyncServiceClient.connect(
                    "127.0.0.1", port, timeout=5.0
                )
                sid = await client.open(policy="tree", cache_size=CACHE)

                async def observe(block):
                    return await client.observe(sid, block)
            else:
                client = ResilientAsyncClient(port=port, retry=_retry())
                await client.open(policy="tree", cache_size=CACHE)
                observe = client.observe
            try:
                for name in self.NAMES:  # call_later arms through call_at,
                    counting(name)       # ensure_future through create_task
                try:
                    advice = [(await observe(b)).as_dict() for b in blocks]
                finally:
                    for name in self.NAMES:
                        delattr(loop, name)
            finally:
                await client.aclose()
            return counts, advice

        with BackgroundServer() as server:
            counts, advice = asyncio.run(scenario(server.port))
        assert advice == _fault_free_advice(blocks)
        assert counts["call_at"] <= 10, counts
        assert counts["create_task"] <= 10, counts
        assert counts["create_future"] <= 210, counts

    def test_plain_client(self):
        self._count("plain")

    def test_resilient_client(self):
        """Its per-RPC deadline is the connection's, not a timer each."""
        self._count("resilient")


class TestBackgroundServerStop:
    def test_stop_raises_when_thread_refuses_to_die(self):
        server = BackgroundServer().start()
        real_thread = server._thread

        class WedgedThread:
            def join(self, timeout=None):
                pass

            def is_alive(self):
                return True

        server._thread = WedgedThread()
        try:
            with pytest.raises(RuntimeError, match="did not stop"):
                server.stop()
        finally:
            server._thread = real_thread
            server.stop()
        assert not real_thread.is_alive()


class TestChaosCLI:
    def test_chaos_subcommand_reports_zero_lost_sessions(self, capsys):
        with BackgroundServer() as server:
            from repro.cli import main

            rc = main([
                "chaos", "--trace", "cad", "--refs", "300",
                "--port", str(server.port), "--clients", "1",
                "--cache", str(CACHE), "--reset-every", "40",
            ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sessions_lost=0" in out
        chaos_line = next(
            line for line in out.splitlines() if line.startswith("chaos:")
        )
        drops = int(chaos_line.split("drops_injected=")[1].split()[0])
        retries = int(chaos_line.split("retries=")[1].split()[0])
        assert drops > 0
        assert retries > 0

"""Server integration tests: concurrency, isolation, limits, metrics.

Async tests drive the real asyncio server over loopback TCP via
``asyncio.run``; blocking-client tests use :class:`BackgroundServer`, the
same daemon-thread harness the examples and benchmarks use.
"""

import asyncio
import json

import pytest

from repro.params import PAPER_PARAMS
from repro.policies.registry import make_policy
from repro.service import protocol
from repro.service.client import (
    AsyncServiceClient,
    ServiceClient,
    ServiceError,
)
from repro.service.replay import replay, replay_async
from repro.service.server import (
    BackgroundServer,
    PrefetchService,
    ServiceLimits,
)
from repro.sim.engine import Simulator
from repro.traces.synthetic import make_trace

CACHE = 128


def _blocks(name="cad", refs=1200, seed=1999):
    return make_trace(name, num_references=refs, seed=seed).as_list()


async def _with_server(coro, **service_kwargs):
    """Run ``coro(service, port)`` against a live loopback server."""
    service = PrefetchService(**service_kwargs)
    await service.endpoint.start("127.0.0.1", 0)
    try:
        return await coro(service, service.endpoint.port)
    finally:
        await service.aclose()


class TestConcurrentSessions:
    def test_isolated_trees_and_deterministic_advice(self):
        """N clients replaying different seeded traces against one server
        get advice identical to N independent offline simulators."""
        traces = {
            name: _blocks(name, refs=800, seed=11 + index)
            for index, name in enumerate(("cad", "snake", "sitar", "cello"))
        }

        async def scenario(service, port):
            async def one_client(blocks):
                async with await AsyncServiceClient.connect(
                    "127.0.0.1", port
                ) as client:
                    session = await client.open(policy="tree",
                                                cache_size=CACHE)
                    decisions = []
                    for block in blocks:
                        advice = await client.observe(session, block)
                        decisions.extend(advice.prefetch)
                    final = await client.close_session(session)
                    return decisions, final

            results = await asyncio.gather(*(
                one_client(blocks) for blocks in traces.values()
            ))
            return dict(zip(traces, results))

        online = asyncio.run(_with_server(scenario))

        for name, blocks in traces.items():
            offline = Simulator(PAPER_PARAMS, make_policy("tree"), CACHE,
                                record_decisions=True)
            offline_stats = offline.run(blocks)
            decisions, final = online[name]
            assert tuple(decisions) == tuple(offline.decision_log), name
            assert final["miss_rate"] == offline_stats.miss_rate, name
            assert final["accesses"] == len(blocks), name

    def test_sessions_share_nothing(self):
        """Two sessions fed the same stream evolve identical, independent
        state; a third fed garbage does not perturb them."""

        async def scenario(service, port):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", port
            ) as client:
                a = await client.open(policy="tree", cache_size=CACHE)
                b = await client.open(policy="tree", cache_size=CACHE)
                noise = await client.open(policy="tree", cache_size=CACHE)
                stream = _blocks(refs=400)
                advice_a, advice_b = [], []
                for index, block in enumerate(stream):
                    advice_a.append(await client.observe(a, block))
                    await client.observe(noise, 7_000_000 + index)
                    advice_b.append(await client.observe(b, block))
                return advice_a, advice_b

        advice_a, advice_b = asyncio.run(_with_server(scenario))
        assert advice_a == advice_b

    def test_multiple_sessions_per_connection_counted(self):
        async def scenario(service, port):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", port
            ) as client:
                for _ in range(3):
                    await client.open(policy="tree", cache_size=32)
                return service.metrics.live_sessions

        assert asyncio.run(_with_server(scenario)) == 3


class TestLimitsAndErrors:
    def test_server_session_limit(self):
        limits = ServiceLimits(max_sessions=2)

        async def scenario(service, port):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", port
            ) as client:
                await client.open(cache_size=32)
                await client.open(cache_size=32)
                with pytest.raises(ServiceError) as excinfo:
                    await client.open(cache_size=32)
                return excinfo.value.code, service.metrics.sessions_rejected

        code, rejected = asyncio.run(_with_server(scenario, limits=limits))
        assert code == protocol.E_LIMIT
        assert rejected == 1

    def test_per_connection_session_limit(self):
        limits = ServiceLimits(max_sessions_per_connection=1)

        async def scenario(service, port):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", port
            ) as client:
                await client.open(cache_size=32)
                with pytest.raises(ServiceError) as excinfo:
                    await client.open(cache_size=32)
                return excinfo.value.code

        assert asyncio.run(_with_server(scenario, limits=limits)) == (
            protocol.E_LIMIT
        )

    def test_unknown_session_and_bad_policy(self):
        async def scenario(service, port):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", port
            ) as client:
                with pytest.raises(ServiceError) as unknown:
                    await client.observe("s999", 1)
                with pytest.raises(ServiceError) as offline_only:
                    await client.open(policy="perfect-selector")
                with pytest.raises(ServiceError) as bad_param:
                    await client.open(params={"warp_speed": 9})
                return (unknown.value.code, offline_only.value.code,
                        bad_param.value.code)

        codes = asyncio.run(_with_server(scenario))
        assert codes == (protocol.E_UNKNOWN_SESSION,
                         protocol.E_SESSION_ERROR,
                         protocol.E_BAD_REQUEST)

    def test_malformed_line_keeps_connection_alive(self):
        async def scenario(service, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await reader.readline()  # hello
            writer.write(b"{not json\n")
            await writer.drain()
            error = json.loads(await reader.readline())
            # The connection survives and still serves valid requests.
            writer.write(protocol.encode_request(
                protocol.OpenRequest(id=7, cache_size=32)
            ))
            await writer.drain()
            opened = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return error, opened

        error, opened = asyncio.run(_with_server(scenario))
        assert error["ok"] is False
        assert error["error"] == protocol.E_BAD_REQUEST
        assert opened["ok"] is True and opened["id"] == 7

    def test_disconnect_reaps_sessions(self):
        async def scenario(service, port):
            client = await AsyncServiceClient.connect("127.0.0.1", port)
            await client.open(cache_size=32)
            await client.open(cache_size=32)
            assert service.metrics.live_sessions == 2
            await client.aclose()
            # Let the server observe EOF and clean up.
            for _ in range(50):
                if service.metrics.live_sessions == 0:
                    break
                await asyncio.sleep(0.01)
            return service.metrics.live_sessions, len(service.sessions)

        live, table = asyncio.run(_with_server(scenario))
        assert live == 0
        assert table == 0


class TestParityThroughWire:
    def test_server_advice_equals_offline_decisions(self):
        blocks = _blocks(refs=1000)
        offline = Simulator(PAPER_PARAMS, make_policy("tree"), CACHE,
                            record_decisions=True)
        offline.run(blocks)

        async def scenario(service, port):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", port
            ) as client:
                session = await client.open(policy="tree", cache_size=CACHE)
                streamed = []
                for block in blocks:
                    advice = await client.observe(session, block)
                    streamed.extend(advice.prefetch)
                return streamed

        streamed = asyncio.run(_with_server(scenario))
        assert tuple(streamed) == tuple(offline.decision_log)


class TestBlockingClientAndMetrics:
    def test_blocking_client_full_lifecycle(self):
        with BackgroundServer() as server:
            with ServiceClient.connect(port=server.port) as client:
                assert client.hello.protocol == protocol.PROTOCOL_VERSION
                session = client.open(policy="tree", cache_size=64)
                outcomes = [client.observe(session, block).outcome
                            for block in (1, 2, 3, 1, 2)]
                snapshot = client.stats(session)
                final = client.close_session(session)
            assert outcomes[0] == "miss"
            assert "demand_hit" in outcomes  # 1 and 2 recur
            assert snapshot["accesses"] == 5
            assert final["accesses"] == 5
            metrics = server.metrics_snapshot()
            assert metrics["sessions_opened"] == 1
            assert metrics["advice_issued"] == 5
            assert metrics["command_latency"]["observe"]["count"] == 5
            assert metrics["command_latency"]["observe"]["p99_ms"] > 0.0

    def test_metrics_track_advice_accuracy(self):
        blocks = _blocks(refs=600)
        with BackgroundServer() as server:
            replay(blocks, port=server.port, clients=2, cache_size=CACHE)
            metrics = server.metrics_snapshot()
        outcomes = metrics["outcomes"]
        assert sum(outcomes.values()) == metrics["advice_issued"] == 1200
        resolved = outcomes["prefetch_hit"] + outcomes["miss"]
        if resolved:
            assert metrics["advice_accuracy"] == pytest.approx(
                outcomes["prefetch_hit"] / resolved, abs=1e-3
            )
        assert metrics["live_sessions"] == 0  # replay closes its sessions


class TestReplayHarness:
    def test_replay_reports_throughput_and_percentiles(self):
        blocks = _blocks(refs=300)

        async def scenario(service, port):
            return await replay_async(
                blocks, port=port, clients=4, cache_size=CACHE,
            )

        report = asyncio.run(_with_server(scenario))
        assert report.requests == 4 * len(blocks)
        assert report.advice_per_second > 0
        latency = report.latency
        assert 0 < latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
        # identical streams -> identical per-session results
        assert len(set(report.per_client_miss_rate)) == 1

    def test_replay_disjoint_streams(self):
        blocks = _blocks(refs=200)

        async def scenario(service, port):
            return await replay_async(
                blocks, port=port, clients=3, cache_size=CACHE, disjoint=True,
            )

        report = asyncio.run(_with_server(scenario))
        assert report.requests == 3 * len(blocks)
        # disjoint offsets change the ids, not the stream shape, so the
        # per-client miss rates still agree
        assert len(set(report.per_client_miss_rate)) == 1

    def test_replay_rejects_bad_input(self):
        with pytest.raises(ValueError, match="clients"):
            replay([1, 2, 3], clients=0)
        with pytest.raises(ValueError, match="empty"):
            replay([], clients=1)

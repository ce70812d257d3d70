"""Server-level STATS observability: identity satellites, Prometheus.

The server-level snapshot is the single source for ``repro top``, the
``repro metrics`` scrape, and the greppable serve/fleet summary lines,
so its identity fields (``uptime_s``/``proto_version``/``pid``) and the
``format="prometheus"`` exposition are contract, not decoration.
"""

import asyncio
import os

import pytest

from repro.cluster import AdvisoryGateway, StaticWorkerDirectory
from repro.obs.trace import Tracer
from repro.service import protocol
from repro.service.client import (
    AsyncServiceClient, ServiceClient, ServiceError,
)
from repro.service.server import BackgroundServer, PrefetchService
from repro.traces.synthetic import make_trace

REQUIRED_FAMILIES = (
    "advice_latency",
    "overload_rejections",
    "brownout_level",
)


class TestIdentitySatellites:
    def test_server_stats_carries_uptime_proto_pid(self):
        with BackgroundServer() as server:
            with ServiceClient.connect(port=server.port) as client:
                stats = client.server_stats()
        assert stats["proto_version"] == protocol.PROTOCOL_VERSION
        assert stats["pid"] == os.getpid()  # in-process server
        assert isinstance(stats["uptime_s"], float)
        assert stats["uptime_s"] >= 0.0

    def test_uptime_advances(self):
        with BackgroundServer() as server:
            with ServiceClient.connect(port=server.port) as client:
                first = client.server_stats()["uptime_s"]
                import time
                time.sleep(0.05)
                second = client.server_stats()["uptime_s"]
        assert second > first


class TestProfiledService:
    """``serve --profile`` is a ring-only tracer on the service: it times
    the same stages and must not change a single piece of advice."""

    @staticmethod
    def _advice(service, blocks):
        with BackgroundServer(service=service) as server:
            with ServiceClient.connect(port=server.port) as client:
                sid = client.open(policy="tree", cache_size=64)
                advice = [client.observe(sid, b).as_dict() for b in blocks]
                client.close_session(sid)
        return advice

    def test_ring_tracer_does_not_perturb_advice(self):
        blocks = make_trace("cad", num_references=300, seed=1).as_list()
        tracer = Tracer("worker")
        profiled = self._advice(PrefetchService(tracer=tracer), blocks)
        assert profiled == self._advice(PrefetchService(), blocks)
        stages = tracer.stages()
        assert stages["worker.open"]["calls"] == 1
        assert stages["worker.predictor_step"]["calls"] == len(blocks)
        assert tracer.path is None  # nothing was written


class TestPrometheusStats:
    def _scrape(self, *, traffic=True):
        with BackgroundServer() as server:
            with ServiceClient.connect(port=server.port) as client:
                if traffic:
                    sid = client.open(policy="tree", cache_size=64)
                    for block in range(20):
                        client.observe(sid, block)
                    client.close_session(sid)
                return client.server_stats(format="prometheus")

    def test_exposition_present_with_required_families(self):
        stats = self._scrape()
        exposition = stats["exposition"]
        for family in REQUIRED_FAMILIES:
            assert f"# TYPE {family} " in exposition, family
        assert "# TYPE advice_latency histogram" in exposition
        assert 'advice_latency_bucket{le="+Inf"} 20' in exposition
        assert "advice_latency_count 20" in exposition
        assert exposition.endswith("\n")

    def test_exposition_carries_liveness_gauges(self):
        exposition = self._scrape()["exposition"]
        for gauge in ("uptime_s", "inflight", "live_sessions",
                      "model_bytes"):
            assert f"# TYPE {gauge} gauge" in exposition, gauge

    def test_plain_stats_has_no_exposition(self):
        stats = self._scrape(traffic=False)
        assert "exposition" in stats
        with BackgroundServer() as server:
            with ServiceClient.connect(port=server.port) as client:
                assert "exposition" not in client.server_stats()

    def test_unknown_format_is_a_bad_request(self):
        with BackgroundServer() as server:
            with ServiceClient.connect(port=server.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.server_stats(format="openmetrics2")
        assert excinfo.value.code == protocol.E_BAD_REQUEST


class TestFleetPrometheus:
    def test_gateway_exposition_merges_fleet_and_labels_workers(self):
        async def scenario():
            directory = StaticWorkerDirectory()
            workers = []
            for i in range(2):
                server = BackgroundServer(service=PrefetchService(
                    identity=f"w{i}",
                )).start().wait_ready()
                workers.append(server)
                directory.register(f"w{i}", "127.0.0.1", server.port)
            gateway = AdvisoryGateway(directory, request_timeout_s=5.0)
            await gateway.endpoint.start(port=0)
            try:
                async with await AsyncServiceClient.connect(
                    port=gateway.endpoint.port
                ) as client:
                    sid = await client.open(policy="tree", cache_size=64)
                    for block in range(15):
                        await client.observe(sid, block)
                    stats = await client.server_stats(format="prometheus")
            finally:
                await gateway.aclose()
                for server in workers:
                    await asyncio.to_thread(server.stop)
            return stats

        stats = asyncio.run(scenario())
        exposition = stats["exposition"]
        for family in REQUIRED_FAMILIES + ("breakers_opened",):
            assert f"# TYPE {family} " in exposition, family
        assert "advice_latency_count 15" in exposition
        assert "workers_live 2" in exposition
        # per-worker gauges carry the worker label
        for worker in ("w0", "w1"):
            assert f'live_sessions{{worker="{worker}"}}' in exposition
            assert f'breaker_open{{worker="{worker}"}} 0' in exposition
        # colliding gateway counters are prefixed, so the bare family
        # stays the fleet-summed number
        assert "# TYPE gateway_sessions_opened counter" in exposition

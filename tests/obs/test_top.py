"""``repro top`` rendering: bare-server and fleet frames, rates, liveness."""

from repro.obs.top import render_top, run_top
from repro.service.server import BackgroundServer


def _server_stats(advice=120, uptime=61.0):
    return {
        "server": "repro.service",
        "worker": "w0",
        "pid": 4242,
        "proto_version": 3,
        "uptime_s": uptime,
        "live_sessions": 5,
        "evicted_sessions": 1,
        "model_bytes": 2048,
        "brownout_level": 2,
        "inflight": 3,
        "metrics": {
            "advice_issued": advice,
            "advice_accuracy": 0.42,
            "errors": 1,
            "overload_rejections": 7,
            "tenants_rejected": 0,
            "command_latency": {
                "observe": {"count": advice, "p50_ms": 0.21, "p99_ms": 1.5},
            },
        },
        "tenants": {"acme": {"sessions": 2, "model_bytes": 1024}},
    }


def _fleet_stats():
    return {
        "server": "repro.gateway",
        "pid": 999,
        "proto_version": 3,
        "uptime_s": 10.0,
        "workers": 2,
        "fleet": {
            "advice_issued": 300,
            "advice_accuracy": None,
            "command_latency": {},
        },
        "gateway": {
            "failovers_resumed": 1,
            "failovers_rebuilt": 0,
            "sessions_lost": 0,
            "breakers_opened": 2,
            "overload_rejections": 5,
        },
        "per_worker": {
            "w0": {"live_sessions": 4, "advice_issued": 200, "errors": 0},
            "w1": None,  # unreachable
        },
    }


class TestServerFrame:
    def test_header_and_gauges(self):
        frame = render_top(_server_stats())
        assert "pid=4242" in frame
        assert "proto=v3" in frame
        assert "up=61s" in frame
        assert "worker=w0" in frame
        assert "brownout=2" in frame
        assert "inflight=3" in frame
        assert "overload_rejections=7" in frame
        assert "accuracy=42.0%" in frame
        assert "p50=0.21ms" in frame
        assert "tenant acme" in frame

    def test_first_frame_has_no_rates(self):
        assert "(-)" in render_top(_server_stats())

    def test_rates_come_from_counter_deltas(self):
        prev = _server_stats(advice=100)
        frame = render_top(
            _server_stats(advice=150), prev=prev, interval_s=2.0
        )
        assert "(25.0/s)" in frame


class TestFleetFrame:
    def test_fleet_header_and_worker_table(self):
        frame = render_top(_fleet_stats())
        assert "workers=2" in frame
        assert "failovers=1+0r" in frame
        assert "breakers=2" in frame
        assert "shed=5" in frame
        assert "w0" in frame
        assert "(unreachable)" in frame


class TestLive:
    def test_run_top_polls_a_real_server(self):
        frames = []
        with BackgroundServer() as server:
            run_top(
                "127.0.0.1", server.port,
                interval_s=0.01, iterations=2, echo=frames.append,
            )
        # two frames, each followed by a blank separator line
        assert frames.count("") == 2
        rendered = [frame for frame in frames if frame]
        assert len(rendered) == 2
        assert all("proto=v3" in frame for frame in rendered)
        assert all("pid=" in frame for frame in rendered)

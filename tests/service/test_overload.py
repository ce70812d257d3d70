"""Overload protection units + shed-under-flood fuzz.

Layered like the module itself: pure-logic units (admission guard,
brownout hysteresis, circuit breaker under a fake clock), one event-loop
test for the lag watchdog, and a raw-socket flood mirroring
``test_fuzz.py`` — every flooded OPEN must draw either a clean
``OpenReply`` or a clean ``E_OVERLOAD`` carrying ``retry_after_s``, and
the server must serve normally the moment pressure lifts.
"""

import asyncio
import json
import time

import pytest

from repro.cluster import AdvisoryGateway, StaticWorkerDirectory
from repro.service import protocol
from repro.service.overload import (
    TIER_CAP_PREFETCH,
    TIER_DROP_LOGS,
    TIER_NORMAL,
    TIER_SHED,
    TIER_WIDEN_CHECKPOINTS,
    AdmissionGuard,
    BreakerPolicy,
    BrownoutController,
    CircuitBreaker,
    LoopLagWatchdog,
    OverloadPolicy,
)
from repro.service.server import BackgroundServer, PrefetchService


class TestProtocol:
    def test_overload_error_round_trips_with_retry_hint(self):
        reply = protocol.ErrorReply(
            id=9, error=protocol.E_OVERLOAD,
            message="server overloaded; retry in 0.5s",
            retry_after_s=0.5,
        )
        wire = protocol.encode_reply(reply)
        doc = json.loads(wire)
        assert doc["error"] == "overloaded"
        assert doc["retry_after_s"] == 0.5
        decoded = protocol.decode_reply(wire)
        assert decoded == reply

    def test_retry_hint_is_omitted_when_absent(self):
        reply = protocol.ErrorReply(
            id=1, error=protocol.E_OVERLOAD, message="x"
        )
        doc = json.loads(protocol.encode_reply(reply))
        assert "retry_after_s" not in doc
        assert protocol.decode_reply(
            protocol.encode_reply(reply)
        ).retry_after_s is None


class TestAdmissionGuard:
    def test_no_watermark_never_sheds(self):
        guard = AdmissionGuard()
        for _ in range(100):
            guard.begin()
        assert not guard.shed_open()
        assert guard.peak_inflight == 100

    def test_sheds_at_watermark_and_recovers_below_it(self):
        guard = AdmissionGuard(OverloadPolicy(max_inflight=2))
        assert not guard.shed_open()
        guard.begin()
        assert not guard.shed_open()
        guard.begin()
        assert guard.shed_open()  # at the watermark: shed new OPENs
        guard.end()
        assert not guard.shed_open()

    def test_brownout_shed_tier_overrides_watermark(self):
        guard = AdmissionGuard(OverloadPolicy(max_inflight=1000))
        guard.brownout.level = TIER_SHED
        assert guard.shed_open()

    def test_degradations_follow_the_tier(self):
        policy = OverloadPolicy(prefetch_cap=3, checkpoint_widen=4.0)
        guard = AdmissionGuard(policy)
        assert guard.prefetch_cap is None
        assert not guard.drop_logs
        assert guard.checkpoint_interval(1.0) == 1.0
        guard.brownout.level = TIER_CAP_PREFETCH
        assert guard.prefetch_cap == 3
        guard.brownout.level = TIER_DROP_LOGS
        assert guard.drop_logs
        guard.brownout.level = TIER_WIDEN_CHECKPOINTS
        assert guard.checkpoint_interval(1.0) == 4.0


class TestBrownoutHysteresis:
    POLICY = OverloadPolicy(
        lag_enter_s=0.05, lag_exit_s=0.02,
        enter_consecutive=3, exit_consecutive=4,
    )

    def test_steps_up_only_after_consecutive_hot_samples(self):
        ctl = BrownoutController(self.POLICY)
        assert ctl.observe(0.1) is None
        assert ctl.observe(0.1) is None
        assert ctl.observe(0.1) == TIER_CAP_PREFETCH
        assert ctl.level == TIER_CAP_PREFETCH
        assert ctl.transitions == 1

    def test_cool_sample_resets_the_hot_streak(self):
        ctl = BrownoutController(self.POLICY)
        ctl.observe(0.1)
        ctl.observe(0.1)
        ctl.observe(0.0)  # streak broken
        assert ctl.observe(0.1) is None
        assert ctl.observe(0.1) is None
        assert ctl.observe(0.1) == TIER_CAP_PREFETCH

    def test_dead_band_freezes_both_streaks(self):
        ctl = BrownoutController(self.POLICY)
        ctl.observe(0.1)
        ctl.observe(0.1)
        for _ in range(50):  # between exit and enter: no movement
            assert ctl.observe(0.03) is None
        assert ctl.level == TIER_NORMAL

    def test_steps_down_after_consecutive_cool_samples(self):
        ctl = BrownoutController(self.POLICY)
        for _ in range(3):
            ctl.observe(0.1)
        assert ctl.level == TIER_CAP_PREFETCH
        for _ in range(3):
            assert ctl.observe(0.0) is None
        assert ctl.observe(0.0) == TIER_NORMAL
        assert ctl.level == TIER_NORMAL
        assert ctl.transitions == 2

    def test_level_saturates_at_shed_and_normal(self):
        ctl = BrownoutController(self.POLICY)
        for _ in range(100):
            ctl.observe(0.1)
        assert ctl.level == TIER_SHED
        for _ in range(100):
            ctl.observe(0.0)
        assert ctl.level == TIER_NORMAL


class TestWatchdog:
    def test_watchdog_measures_loop_lag_and_steps_the_guard(self):
        """Block the loop with a synchronous sleep: the probe wakes late,
        the guard's brownout level rises."""
        policy = OverloadPolicy(
            brownout=True, probe_interval_s=0.01,
            lag_enter_s=0.03, lag_exit_s=0.005, enter_consecutive=1,
        )
        guard = AdmissionGuard(policy)
        transitions = []
        watchdog = LoopLagWatchdog(
            guard, on_transition=lambda lvl, lag: transitions.append(lvl)
        )

        async def scenario():
            task = asyncio.create_task(watchdog.run())
            try:
                for _ in range(3):
                    await asyncio.sleep(0)  # let the probe go to sleep
                    time.sleep(0.08)  # hold the loop hostage
                    await asyncio.sleep(0.02)  # let the probe fire
            finally:
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task

        asyncio.run(scenario())
        assert watchdog.probes >= 1
        assert watchdog.last_lag_s >= 0.0
        assert guard.level >= TIER_CAP_PREFETCH
        assert transitions and transitions[0] == TIER_CAP_PREFETCH


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            BreakerPolicy(**kwargs), clock=lambda: clock["now"]
        )
        return breaker, clock

    def test_trips_after_consecutive_failures_only(self):
        breaker, _ = self._breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # streak broken
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.record_failure() is True  # third consecutive
        assert breaker.state == "open"
        assert breaker.times_opened == 1

    def test_open_fast_fails_until_cooldown_then_probes_once(self):
        breaker, clock = self._breaker(failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure()
        assert breaker.blocked
        assert not breaker.allow()
        clock["now"] = 4.9
        assert not breaker.allow()
        clock["now"] = 5.0
        assert not breaker.blocked
        assert breaker.allow()  # the half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # only one probe at a time
        assert breaker.record_success() is True
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens_immediately(self):
        breaker, clock = self._breaker(failure_threshold=1, cooldown_s=1.0)
        breaker.record_failure()
        clock["now"] = 1.0
        assert breaker.allow()
        assert breaker.record_failure() is True  # probe failed: reopen
        assert breaker.state == "open"
        assert breaker.opened_at == 1.0
        assert breaker.times_opened == 2
        assert not breaker.allow()

    def test_blocked_consumes_no_probe_slot(self):
        breaker, clock = self._breaker(failure_threshold=1, cooldown_s=1.0)
        breaker.record_failure()
        clock["now"] = 1.0
        for _ in range(10):
            assert not breaker.blocked  # cooled down: placement may retry
        assert breaker.state == "open"  # ...without starting the probe
        assert breaker.allow()
        assert not breaker.allow()


OPEN_LINE = (
    b'{"v": 3, "id": %d, "cmd": "open",'
    b' "policy": "no-prefetch", "cache_size": 8}\n'
)


async def _raw_connect(port):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    hello = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
    assert hello["ok"] and hello["cmd"] == "hello"
    return reader, writer


class TestShedUnderFlood:
    @pytest.mark.parametrize("flavor", ["bare", "gateway"])
    def test_flooded_opens_get_clean_overload_replies(self, flavor):
        """Pin the guard at its watermark and flood OPENs: every one is
        refused with a parseable E_OVERLOAD + retry_after_s, nothing
        wedges, and service resumes the moment pressure lifts."""
        policy = OverloadPolicy(max_inflight=1, shed_retry_after_s=0.25)
        server = BackgroundServer(service=PrefetchService(
            identity="w0", overload=policy if flavor == "bare" else None,
        )).start().wait_ready()
        front, counters = server.service, server.service.metrics
        if flavor == "gateway":
            directory = StaticWorkerDirectory()
            directory.register("w0", "127.0.0.1", server.port)
            front = AdvisoryGateway(directory, overload=policy)
            counters = front.stats

        async def flood_one(port, request_id):
            reader, writer = await _raw_connect(port)
            try:
                writer.write(OPEN_LINE % request_id)
                await writer.drain()
                return json.loads(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
            finally:
                writer.close()
                await writer.wait_closed()

        async def scenario():
            if flavor == "gateway":
                await front.endpoint.start(port=0)
            port = front.endpoint.port
            try:
                # Hold the front at the watermark so the flood outcome is
                # deterministic: an int bump is safe across the loop
                # thread.
                front.overload.begin()
                try:
                    replies = await asyncio.gather(*[
                        flood_one(port, i) for i in range(32)
                    ])
                finally:
                    front.overload.end()
                # Pressure lifted: a fresh OPEN must succeed on the spot.
                after = await flood_one(port, 99)
            finally:
                if flavor == "gateway":
                    await front.aclose()
            return replies, after

        try:
            replies, after = asyncio.run(scenario())
        finally:
            server.stop()

        for reply in replies:
            assert reply["ok"] is False
            assert reply["error"] == protocol.E_OVERLOAD
            assert reply["retry_after_s"] == 0.25
            assert "Traceback" not in reply["message"]
        assert after["ok"] is True and after["cmd"] == "open"
        assert counters.overload_rejections == 32
        assert counters.errors == 0  # backoff, not fault

    def test_shed_spares_resumes_and_admitted_sessions(self):
        """Only brand-new OPENs are sheddable: observes on an admitted
        session flow at full service while the watermark refuses OPENs."""
        service = PrefetchService(
            identity="w0", overload=OverloadPolicy(max_inflight=1)
        )
        service.overload.begin()
        try:
            shed = service.endpoint.shed_reply(protocol.OpenRequest(id=1))
            assert shed is not None
            assert shed.error == protocol.E_OVERLOAD
            assert shed.retry_after_s == service.overload.policy.shed_retry_after_s
            resume = protocol.OpenRequest(id=2, resume="s-live")
            assert service.endpoint.shed_reply(resume) is None
            observe = protocol.ObserveRequest(id=3, session="s", block=7)
            assert service.endpoint.shed_reply(observe) is None
        finally:
            service.overload.end()

    def test_concurrent_open_flood_is_answered_consistently(self):
        """No pinning: under a real race the books must still balance —
        every reply is a clean open or a clean shed, and the shed count
        matches the metric exactly."""
        server = BackgroundServer(service=PrefetchService(
            identity="w0", overload=OverloadPolicy(max_inflight=2),
        )).start().wait_ready()

        async def one(request_id):
            reader, writer = await _raw_connect(server.port)
            try:
                writer.write(OPEN_LINE % request_id)
                await writer.drain()
                return json.loads(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
            finally:
                writer.close()
                await writer.wait_closed()

        async def scenario():
            return await asyncio.gather(*[one(i) for i in range(48)])

        try:
            replies = asyncio.run(scenario())
        finally:
            server.stop()

        accepted = [r for r in replies if r["ok"]]
        rejected = [r for r in replies if not r["ok"]]
        assert len(accepted) + len(rejected) == 48
        for reply in rejected:
            assert reply["error"] == protocol.E_OVERLOAD
            assert reply["retry_after_s"] > 0
        assert (
            server.service.metrics.overload_rejections == len(rejected)
        )
        assert server.service.overload.inflight == 0  # books balanced

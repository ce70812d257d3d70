"""Per-worker circuit breakers at the gateway: trip, route around, close.

Workers are :class:`BackgroundServer` instances behind a
:class:`StaticWorkerDirectory`, mirroring ``test_gateway.py`` — but here
the directory is deliberately *not* told about deaths: the breaker is
the detection path under test.
"""

import asyncio

from repro.cluster import AdvisoryGateway, StaticWorkerDirectory
from repro.service.client import AsyncServiceClient
from repro.service.overload import BreakerPolicy
from repro.service.replay import replay_async
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
    """Two workers + a gateway; deaths are never reported to the
    directory, so only the breaker can notice them."""

    def __init__(self, checkpoint_dir=None, **gateway_kwargs):
        self.checkpoint_dir = checkpoint_dir
        self.directory = StaticWorkerDirectory()
        self.workers = {}
        for i in range(2):
            worker_id = f"w{i}"
            server = BackgroundServer(service=PrefetchService(
                identity=worker_id, checkpoint_dir=checkpoint_dir,
            )).start().wait_ready()
            self.workers[worker_id] = server
            self.directory.register(worker_id, "127.0.0.1", server.port)
        self.gateway = AdvisoryGateway(
            self.directory, request_timeout_s=5.0, **gateway_kwargs
        )

    async def __aenter__(self):
        await self.gateway.endpoint.start(port=0)
        return self

    async def __aexit__(self, *exc_info):
        await self.gateway.aclose()
        for server in self.workers.values():
            await asyncio.to_thread(server.stop)

    def silent_kill(self, worker_id, *, checkpoint_first=True):
        """Stop a worker without telling the directory."""
        server = self.workers[worker_id]
        if checkpoint_first:
            assert self.checkpoint_dir is not None
            server.service.checkpoint_sessions(self.checkpoint_dir)
        server.stop()


def test_dead_worker_trips_breaker_and_sessions_resume_on_successor(
    tmp_path,
):
    """Kill a worker silently: the first failed call trips its breaker,
    every session it held fails over to the ring successor from the
    checkpoint, and new OPENs route around the open breaker."""
    blocks = _blocks(300)
    ckpt = str(tmp_path / "ckpt")

    async def scenario():
        async with _Fleet(
            checkpoint_dir=ckpt,
            breaker=BreakerPolicy(failure_threshold=1, cooldown_s=30.0),
        ) as fleet:
            async with await AsyncServiceClient.connect(
                port=fleet.gateway.endpoint.port
            ) as client:
                sid = await client.open(policy="tree", cache_size=CACHE)
                got = [
                    (await client.observe(sid, block)).as_dict()
                    for block in blocks[:150]
                ]
                victim = fleet.gateway.sessions[sid].worker_id
                fleet.silent_kill(victim)
                got += [
                    (await client.observe(sid, block)).as_dict()
                    for block in blocks[150:]
                ]
                # With the breaker open, a fresh OPEN must avoid the
                # dead worker without waiting out a connect failure.
                sid2 = await client.open(policy="no-prefetch", cache_size=8)
                placed = fleet.gateway.sessions[sid2].worker_id
                final = await client.close_session(sid)
                stats = fleet.gateway.stats
                breaker = fleet.gateway._breaker(victim)
                return got, final, victim, placed, stats, breaker.state

    got, final, victim, placed, stats, state = asyncio.run(scenario())
    assert got == _fault_free_advice(blocks)
    assert final["accesses"] == len(blocks)
    assert placed != victim
    assert state == "open"
    assert stats.breakers_opened == 1
    assert stats.failovers_resumed >= 1
    assert stats.sessions_lost == 0


def test_kill_mid_replay_with_breaker_open_is_lossless(tmp_path):
    """The acceptance scenario: a worker dies mid-replay, its breaker
    opens, and every session still lands on the ring successor — zero
    lost sessions, zero client-visible errors."""
    blocks = _blocks(500)
    ckpt = str(tmp_path / "ckpt")

    async def scenario():
        async with _Fleet(
            checkpoint_dir=ckpt,
            breaker=BreakerPolicy(failure_threshold=1, cooldown_s=30.0),
        ) as fleet:
            async def assassin():
                await asyncio.sleep(0.3)
                fleet.silent_kill("w0")

            report, _ = await asyncio.gather(
                replay_async(
                    blocks, port=fleet.gateway.endpoint.port, clients=4,
                    policy="tree", cache_size=CACHE,
                ),
                assassin(),
            )
            return report, fleet.gateway.stats

    report, stats = asyncio.run(scenario())
    assert report.requests == 4 * len(blocks)
    assert stats.sessions_lost == 0
    assert stats.failovers_rebuilt == 0
    # Deterministic sessions: per-client advice matches the fault-free
    # stream, so the aggregate outcome counts do too.
    expected = {"demand_hit": 0, "prefetch_hit": 0, "miss": 0}
    for advice in _fault_free_advice(blocks):
        expected[advice["outcome"]] += 4
    assert report.outcomes == expected


def test_breaker_closes_after_successful_half_open_probe():
    """Fake clock drives the full cycle inside the gateway: trip by
    hand, cool down, and the next real call is the probe that closes."""
    clock = {"now": 0.0}

    async def scenario():
        async with _Fleet(
            breaker=BreakerPolicy(failure_threshold=2, cooldown_s=10.0),
            breaker_clock=lambda: clock["now"],
        ) as fleet:
            async with await AsyncServiceClient.connect(
                port=fleet.gateway.endpoint.port
            ) as client:
                sid = await client.open(policy="no-prefetch", cache_size=8)
                worker_id = fleet.gateway.sessions[sid].worker_id
                breaker = fleet.gateway._breaker(worker_id)
                # Trip it by hand: the worker is healthy, we only want
                # the state machine exercised through the live call path.
                breaker.record_failure()
                breaker.record_failure()
                assert breaker.state == "open"
                clock["now"] = 10.0  # cooldown elapses
                advice = await client.observe(sid, 7)  # the probe
                assert advice is not None
                stats = fleet.gateway.stats
                return breaker.state, stats.breakers_closed

    state, closed = asyncio.run(scenario())
    assert state == "closed"
    assert closed == 1

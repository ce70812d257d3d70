"""Full-stack fleet tests: real ``repro serve`` subprocesses under a
WorkerSupervisor, fronted by an AdvisoryGateway.

These are the slowest tests in the tree (each spawns interpreters), so
the scenarios are few and each one earns its keep: supervisor restart
mechanics, and the headline acceptance run — a replay that SIGKILLs a
worker mid-stream and still loses zero sessions.
"""

import asyncio
import os
import signal

import pytest

from repro.cluster import AdvisoryGateway, WorkerSupervisor
from repro.cluster.fleet import start_fleet
from repro.service.client import AsyncServiceClient
from repro.service.session import PrefetchSession
from repro.store import ModelStore, model_snapshot
from repro.traces.synthetic import make_trace

CACHE = 64


def _blocks(refs, name="cad", seed=1999):
    return make_trace(name, num_references=refs, seed=seed).as_list()


def _fault_free_advice(blocks):
    session = PrefetchSession(policy="tree", cache_size=CACHE)
    return [session.observe(block).as_dict() for block in blocks]


def _fast_supervisor(**kwargs):
    kwargs.setdefault("probe_interval_s", 0.2)
    kwargs.setdefault("restart_backoff_s", 0.05)
    return WorkerSupervisor(kwargs.pop("count", 2), **kwargs)


async def _wait_for(predicate, *, timeout_s=30.0, interval_s=0.05):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        if asyncio.get_running_loop().time() >= deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval_s)


class TestSupervisor:
    def test_spawns_and_serves(self):
        async def scenario():
            async with _fast_supervisor(count=2) as supervisor:
                endpoints = supervisor.endpoints()
                assert set(endpoints) == {"w0", "w1"}
                _, port = endpoints["w0"]
                async with await AsyncServiceClient.connect(
                    port=port
                ) as client:
                    stats = await client.server_stats()
                return stats

        stats = asyncio.run(scenario())
        assert stats["worker"] == "w0"

    def test_sigkill_triggers_restart_on_fresh_port(self):
        async def scenario():
            events = []
            async with _fast_supervisor(count=2) as supervisor:
                supervisor.add_listener(
                    lambda wid, up: events.append((wid, up))
                )
                victim = supervisor.workers["w0"]
                old_pid = victim.proc.pid
                os.kill(old_pid, signal.SIGKILL)
                await _wait_for(
                    lambda: supervisor.workers_restarted >= 1
                    and victim.up
                )
                assert victim.proc.pid != old_pid
                # restarted worker actually serves
                _, port = supervisor.endpoints()["w0"]
                async with await AsyncServiceClient.connect(
                    port=port
                ) as client:
                    stats = await client.server_stats()
                assert stats["worker"] == "w0"
                return events, supervisor.workers_restarted

        events, restarted = asyncio.run(scenario())
        assert restarted == 1
        assert ("w0", False) in events and ("w0", True) in events

    def test_stop_terminates_all_workers(self):
        async def scenario():
            supervisor = _fast_supervisor(count=2)
            await supervisor.start()
            pids = [w.proc.pid for w in supervisor.workers.values()]
            await supervisor.stop()
            return pids

        for pid in asyncio.run(scenario()):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestModelPinning:
    def test_start_fleet_pins_a_bare_default_model(self, tmp_path):
        """A bare name means the latest version on every OPEN; the fleet
        resolves it once, so every worker serves one version and a
        model-less session can be rebuilt exactly."""
        trained = PrefetchSession(policy="tree", cache_size=CACHE)
        for block in _blocks(100):
            trained.observe(block)
        store = tmp_path / "models"
        ModelStore(store).save(
            "warm", model_snapshot(trained.simulator.policy.model())
        )

        async def scenario():
            fleet = await start_fleet(workers=1, store=str(store),
                                      model="warm")
            try:
                return fleet.supervisor._command("w0")
            finally:
                await fleet.aclose()

        argv = asyncio.run(scenario())
        assert argv[argv.index("--model") + 1] == "warm@1"


class TestAcceptance:
    def test_replay_survives_worker_sigkill(self, tmp_path):
        """ISSUE acceptance: mid-replay SIGKILL of one worker completes
        with sessions_lost=0 and decision-identical advice, sessions
        failing over to the successor via the shared checkpoint dir."""
        blocks = _blocks(600)
        ckpt = str(tmp_path / "ckpt")

        async def scenario():
            supervisor = _fast_supervisor(
                count=3, checkpoint_dir=ckpt, checkpoint_every_s=0.2,
            )
            async with supervisor:
                gateway = AdvisoryGateway(supervisor, request_timeout_s=10.0)
                await gateway.endpoint.start(port=0)
                try:
                    async with await AsyncServiceClient.connect(
                        port=gateway.endpoint.port
                    ) as client:
                        sids = [
                            await client.open(
                                policy="tree", cache_size=CACHE
                            )
                            for _ in range(6)
                        ]
                        got = {sid: [] for sid in sids}
                        for i, block in enumerate(blocks):
                            if i == len(blocks) // 2:
                                # let periodic checkpointing cover the
                                # prefix, then murder a loaded worker
                                await asyncio.sleep(0.5)
                                victim_id = gateway.sessions[
                                    sids[0]
                                ].worker_id
                                victim = supervisor.workers[victim_id]
                                os.kill(victim.proc.pid, signal.SIGKILL)
                            for sid in sids:
                                advice = await client.observe(sid, block)
                                got[sid].append(advice.as_dict())
                        for sid in sids:
                            await client.close_session(sid)
                    return (
                        got,
                        gateway.stats,
                        supervisor.workers_restarted,
                    )
                finally:
                    await gateway.aclose()

        got, stats, restarted = asyncio.run(scenario())
        want = _fault_free_advice(blocks)
        for sid, advice in got.items():
            assert advice == want, f"{sid} diverged after failover"
        assert stats.sessions_lost == 0
        assert stats.failovers_rebuilt == 0
        assert stats.failovers_resumed >= 1
        assert restarted >= 1

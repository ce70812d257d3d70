"""Fleet scale-out: replay throughput through the gateway vs workers.

One advisory server is one Python process pinned to one core, so the
fleet's pitch is horizontal: the gateway proxies protocol v3 to N
``repro serve`` subprocesses placed by consistent hash.  This bench
replays the same CAD trace four ways — straight at a bare server, and
through a gateway over 1, 2, and 4 workers — and records aggregate
advice/sec plus client-side latency.

Two shapes are under test: the gateway's proxy hop costs latency at one
worker (that overhead is the price of the failover machinery), and
aggregate throughput recovers as workers absorb the sessions in
parallel.  Advice must stay byte-identical in every configuration —
every client ends at the same deterministic miss rate.

``REPRO_BENCH_FLEET_REFS`` (default 2000) sets references per client;
8 clients x 4 configurations x 2000 refs ~ 64k OBSERVE round trips.
"""

import asyncio
import os

from repro.analysis.experiments import ExperimentResult
from repro.analysis.tables import render_series
from repro.cluster import AdvisoryGateway, WorkerSupervisor
from repro.service.replay import replay, replay_async
from repro.service.server import BackgroundServer
from repro.tenancy.memory import rss_bytes
from repro.traces.synthetic import make_trace

WORKER_COUNTS = (1, 2, 4)
CLIENTS = 8


async def _replay_through_fleet(blocks, workers):
    supervisor = WorkerSupervisor(workers, probe_interval_s=5.0)
    async with supervisor:
        gateway = AdvisoryGateway(supervisor)
        await gateway.endpoint.start(port=0)
        try:
            report = await replay_async(
                blocks, port=gateway.endpoint.port, clients=CLIENTS,
                policy="tree", cache_size=1024,
            )
            # Probe each worker subprocess while it is still serving: the
            # per-worker resident set is the capacity number operators
            # size fleets with (advice/sec tells only half the story).
            rss = {
                worker.worker_id: rss_bytes(worker.proc.pid)
                for worker in supervisor.workers.values()
                if worker.proc is not None
            }
            return report, rss
        finally:
            await gateway.aclose()


def _run_battery():
    refs = int(os.environ.get("REPRO_BENCH_FLEET_REFS", "2000"))
    seed = int(os.environ.get("REPRO_BENCH_SEED", "1999"))
    blocks = make_trace("cad", num_references=refs, seed=seed).as_list()
    reports = {}
    worker_rss = {}
    with BackgroundServer() as server:
        reports["bare"] = replay(
            blocks, port=server.port, clients=CLIENTS,
            policy="tree", cache_size=1024,
        )
        # The bare server shares this process, so "its" RSS is ours.
        worker_rss["bare"] = {"self": rss_bytes()}
    for workers in WORKER_COUNTS:
        reports[workers], worker_rss[workers] = asyncio.run(
            _replay_through_fleet(blocks, workers)
        )
    return refs, reports, worker_rss


def test_fleet_scaling(benchmark, record):
    refs, reports, worker_rss = benchmark.pedantic(
        _run_battery, rounds=1, iterations=1
    )

    configs = ["bare"] + list(WORKER_COUNTS)
    series = {
        "advice_per_sec": [
            round(reports[c].advice_per_second, 1) for c in configs
        ],
        "p50_ms": [reports[c].latency["p50_ms"] for c in configs],
        "p95_ms": [reports[c].latency["p95_ms"] for c in configs],
        "p99_ms": [reports[c].latency["p99_ms"] for c in configs],
        "max_worker_rss_mb": [
            round(max(worker_rss[c].values()) / (1 << 20), 1)
            if worker_rss.get(c) else 0.0
            for c in configs
        ],
    }
    result = ExperimentResult(
        exp_id="fleet_scaling",
        title="fleet gateway: replay throughput vs worker count",
        paper_expectation=(
            "beyond the paper: sharded serving tier; gateway hop costs "
            "latency, worker parallelism recovers aggregate advice/sec"
        ),
        text=render_series(
            "workers", configs, series,
            title=(
                f"replay of cad ({refs} refs/client, {CLIENTS} clients, "
                "tree, 1024 blocks); bare = no gateway"
            ),
        ),
        data={
            "refs_per_client": refs,
            "clients": CLIENTS,
            "reports": {
                str(c): reports[c].as_dict() for c in configs
            },
            "worker_rss_bytes": {
                str(c): dict(worker_rss.get(c, {})) for c in configs
            },
        },
    )
    record(result)

    bare_miss_rates = set(reports["bare"].per_client_miss_rate)
    assert len(bare_miss_rates) == 1  # deterministic baseline
    for config in configs:
        report = reports[config]
        assert report.requests == CLIENTS * refs
        assert report.advice_per_second > 0
        # routing through the fleet must not perturb a single decision
        assert set(report.per_client_miss_rate) == bare_miss_rates

    # scale-out sanity: 4 workers should beat 1 worker through the same
    # gateway (loose: real speedup depends on core count of the CI box)
    assert reports[4].advice_per_second > 0.8 * reports[1].advice_per_second

"""The campaign runner: scenario in, hashed bundle out.

For every fleet size on the scenario's ``workers`` axis the runner
stands up a target — a real gateway + supervised worker subprocesses
(``mode = "fleet"`` via :func:`repro.cluster.fleet.start_fleet`) or a
single in-process advisory server (``mode = "server"``, the fast path
for tests and laptops) — then drives each phase through it in order:

1. synthesise every client's seeded reference stream
   (:mod:`repro.campaign.workload`);
2. if the phase has a chaos profile, put a deterministic
   :class:`~repro.service.faults.ChaosProxy` between the clients and the
   target and switch the clients to seeded-retry resilient mode;
3. replay with the scenario's arrival curve and session churn
   (:func:`repro.service.replay.replay_async` with per-client streams,
   arrival delays, and the open/close churn hook);
4. record the phase outcome: advice/sec and latency percentiles (the
   wall-clock story), plus the deterministic core — request counts,
   outcome totals, churn, and sessions lost — that lands in the bundle
   hash.

Nothing here calls ``random`` directly: every random draw is seeded via
:func:`~repro.campaign.spec.derive_seed` from the one scenario seed, so
a scenario is a *name for an experiment*, not a dice roll.
"""

from __future__ import annotations

import asyncio
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign.bundle import Bundle, write_bundle
from repro.campaign.spec import (
    PhaseSpec,
    ScenarioSpec,
    derive_seed,
    scenario_hash,
)
from repro.campaign.workload import arrival_delays, phase_client_blocks
from repro.service.client import RetryPolicy
from repro.service.faults import ChaosProxy
from repro.service.replay import replay_async
from repro.store.codec import canonical_json

Echo = Optional[Callable[[str], None]]


class CampaignError(Exception):
    """A campaign run failed (target would not start, or a phase died)."""


class _Target:
    """What a phase needs from the thing it is loading: a port and loss
    accounting.  Two implementations: in-process server, real fleet."""

    host = "127.0.0.1"

    @property
    def port(self) -> int:
        raise NotImplementedError

    @property
    def sessions_lost(self) -> int:
        return 0

    @property
    def failovers_resumed(self) -> int:
        return 0

    def kill_worker(self, worker_id: str) -> bool:
        raise CampaignError(
            f"cannot kill worker {worker_id!r}: target has no supervised "
            "workers (kill_worker needs mode = \"fleet\")"
        )

    async def metrics(self) -> Optional[Dict[str, Any]]:
        return None

    def trace_summary(self) -> Optional[Dict[str, Any]]:
        """Span accounting for the run (results.json only, never hashed)."""
        return None

    async def aclose(self) -> None:
        raise NotImplementedError


class _ServerTarget(_Target):
    """One in-process :class:`~repro.service.server.PrefetchService`."""

    def __init__(self, service) -> None:
        self.service = service

    @property
    def port(self) -> int:
        return self.service.endpoint.port

    async def metrics(self) -> Optional[Dict[str, Any]]:
        return self.service.metrics.as_dict()

    def trace_summary(self) -> Optional[Dict[str, Any]]:
        if self.service.tracer is None:
            return None
        self.service.tracer.flush()
        return self.service.tracer.summary()

    async def aclose(self) -> None:
        await self.service.aclose()


class _FleetTarget(_Target):
    """A real gateway + supervised worker subprocesses."""

    def __init__(self, fleet) -> None:
        self.fleet = fleet

    @property
    def port(self) -> int:
        return self.fleet.port

    @property
    def sessions_lost(self) -> int:
        return self.fleet.sessions_lost

    @property
    def failovers_resumed(self) -> int:
        return self.fleet.gateway.stats.failovers_resumed

    def kill_worker(self, worker_id: str) -> bool:
        try:
            return self.fleet.supervisor.kill_worker(worker_id)
        except KeyError as exc:
            raise CampaignError(str(exc)) from None

    async def metrics(self) -> Optional[Dict[str, Any]]:
        totals, per_worker = await self.fleet.metrics()
        return {
            "fleet": totals.as_dict(),
            "per_worker": per_worker,
            "gateway": self.fleet.gateway.stats.as_dict(),
        }

    def trace_summary(self) -> Optional[Dict[str, Any]]:
        # Worker spans land in the shared trace dir via each worker's own
        # tracer; only the gateway's accounting is reachable in-process.
        tracer = self.fleet.gateway.tracer
        if tracer is None:
            return None
        tracer.flush()
        return tracer.summary()

    async def aclose(self) -> None:
        await self.fleet.aclose()


async def _start_target(
    scenario: ScenarioSpec, workers: int, workdir: Path, echo: Echo,
    trace_dir: Optional[str] = None,
) -> _Target:
    tenancy = scenario.tenancy
    tenant_config_path: Optional[str] = None
    if tenancy is not None:
        # Workers take the config as a file path; materialise the parsed
        # (already-validated) section into the run's working directory.
        tenant_config_path = str(workdir / "tenants.json")
        doc = tenancy.as_dict()
        payload = {"tenants": doc["tenants"]}
        if doc["memory_budget_bytes"] is not None:
            payload["memory_budget_bytes"] = doc["memory_budget_bytes"]
        Path(tenant_config_path).write_text(
            canonical_json(payload) + "\n", encoding="utf-8"
        )
    checkpoint_dir = workdir / "checkpoints"
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    if scenario.mode == "fleet":
        from repro.cluster.fleet import start_fleet

        try:
            fleet = await start_fleet(
                workers=workers,
                checkpoint_dir=str(checkpoint_dir),
                checkpoint_every_s=1.0,
                store=(None if tenancy is None else tenancy.store),
                tenant_config=tenant_config_path,
                max_inflight=scenario.max_inflight,
                trace_dir=trace_dir,
                trace_seed=scenario.seed,
                echo=echo,
            )
        except Exception as exc:
            raise CampaignError(f"fleet failed to start: {exc}") from exc
        return _FleetTarget(fleet)
    from repro.service.server import PrefetchService

    service_kwargs: Dict[str, Any] = {
        "checkpoint_dir": str(checkpoint_dir),
        "identity": "campaign",
    }
    if scenario.max_inflight is not None:
        from repro.service.overload import OverloadPolicy

        service_kwargs["overload"] = OverloadPolicy(
            max_inflight=scenario.max_inflight
        )
    if tenancy is not None:
        from repro.store import ModelStore
        from repro.tenancy.manager import TenancyManager

        store = ModelStore(tenancy.store)
        service_kwargs["store"] = store
        service_kwargs["tenancy"] = TenancyManager(store, tenancy.config)
        service_kwargs["memory_budget_bytes"] = (
            tenancy.config.memory_budget_bytes
        )
    if trace_dir is not None:
        from repro.obs.trace import Tracer

        # Head-sample against the scenario seed so which sessions are
        # traced is itself reproducible run to run.
        service_kwargs["tracer"] = Tracer(
            "campaign", trace_dir=trace_dir, seed=scenario.seed
        )
    service = PrefetchService(**service_kwargs)
    await service.endpoint.start("127.0.0.1", 0)
    return _ServerTarget(service)


async def _run_phase(
    scenario: ScenarioSpec,
    phase: PhaseSpec,
    target: _Target,
    echo: Echo,
) -> Dict[str, Any]:
    streams = phase_client_blocks(phase, scenario.seed)
    delays = arrival_delays(
        phase.arrival, phase.clients, scenario.seed, phase.name
    )
    churn = {"open": 0, "close": 0}

    def _on_event(_client: int, event: str) -> None:
        churn[event] += 1

    retry = None
    proxy: Optional[ChaosProxy] = None
    port = target.port
    if phase.chaos is not None:
        proxy = ChaosProxy(target.host, port, plan=phase.chaos.plan())
        await proxy.start()
        port = proxy.port
        retry = RetryPolicy(
            max_attempts=phase.chaos.max_attempts,
            base_delay_s=0.02,
            seed=derive_seed(scenario.seed, phase.name, "retry"),
        )
    lost_before = target.sessions_lost
    failovers_before = target.failovers_resumed
    kill_task: Optional[asyncio.Task] = None
    worker_killed = False

    async def _kill_later() -> None:
        nonlocal worker_killed
        await asyncio.sleep(phase.kill_after_s)
        worker_killed = target.kill_worker(phase.kill_worker)
        if echo is not None and worker_killed:
            echo(
                f"campaign: phase {phase.name!r} killed worker "
                f"{phase.kill_worker} at t+{phase.kill_after_s:g}s"
            )

    started = time.perf_counter()
    try:
        if phase.kill_worker is not None:
            kill_task = asyncio.ensure_future(_kill_later())
        report = await replay_async(
            [],
            host=target.host,
            port=port,
            clients=phase.clients,
            policy=scenario.policy,
            cache_size=scenario.cache_size,
            retry=retry,
            tenant=phase.tenant,
            sessions_per_client=phase.sessions_per_client,
            tolerate_quota=phase.tolerate_quota,
            tolerate_overload=phase.tolerate_overload,
            client_blocks=streams,
            arrival_delays=delays,
            on_session_event=_on_event,
        )
    except Exception as exc:
        raise CampaignError(
            f"phase {phase.name!r} failed: {exc}"
        ) from exc
    finally:
        if kill_task is not None:
            if not kill_task.done():
                kill_task.cancel()
            await asyncio.gather(kill_task, return_exceptions=True)
        if proxy is not None:
            await proxy.aclose()
    wall = time.perf_counter() - started
    sessions_lost = (target.sessions_lost - lost_before) + (
        churn["open"] - churn["close"]
    )
    flat = report.as_dict()
    result: Dict[str, Any] = {
        "name": phase.name,
        "clients": phase.clients,
        "refs": phase.refs,
        "quota_tolerant": phase.tolerate_quota,
        "overload_tolerant": phase.tolerate_overload,
        "failover": phase.kill_worker is not None,
        "requests": flat["requests"],
        "outcomes": flat["outcomes"],
        "prefetches_recommended": flat["prefetches_recommended"],
        "sessions": flat["sessions"],
        "quota_rejected": flat["quota_rejected"],
        "overload_rejected": flat["overload_rejections"],
        "overload_backoffs": flat["overload_backoffs"],
        "churn_opened": churn["open"],
        "churn_closed": churn["close"],
        "sessions_lost": sessions_lost,
        "wall_seconds": flat["wall_seconds"],
        "advice_per_second": flat["advice_per_second"],
        "latency_p50_ms": flat["latency_p50_ms"],
        "latency_p95_ms": flat["latency_p95_ms"],
        "latency_p99_ms": flat["latency_p99_ms"],
        "retries": flat["retries"],
        "resumes": flat["resumes"],
        "cold_restarts": flat["cold_restarts"],
        "degraded_clients": flat["degraded_clients"],
        "chaos": None if proxy is None else proxy.stats.as_dict(),
    }
    if phase.kill_worker is not None:
        result["kill_worker"] = phase.kill_worker
        result["worker_killed"] = worker_killed
        result["failovers_resumed"] = (
            target.failovers_resumed - failovers_before
        )
    if echo is not None:
        chaos_note = ""
        if proxy is not None:
            chaos_note = (
                f" chaos[drops={proxy.stats.drops_injected}"
                f" retries={flat['retries']}]"
            )
        if phase.tolerate_overload:
            chaos_note += (
                f" overload_rejections={flat['overload_rejections']}"
                f" overload_backoffs={flat['overload_backoffs']}"
            )
        if phase.kill_worker is not None:
            chaos_note += (
                f" failovers_resumed={result['failovers_resumed']}"
            )
        echo(
            f"campaign: phase {phase.name!r} done in {wall:.2f}s "
            f"advice/s={flat['advice_per_second']} "
            f"p99={flat['latency_p99_ms']}ms "
            f"sessions_lost={sessions_lost}{chaos_note}"
        )
    return result


async def run_scenario_async(
    scenario: ScenarioSpec,
    *,
    out_dir: str,
    workdir: Optional[str] = None,
    trace_dir: Optional[str] = None,
    echo: Echo = None,
) -> List[Tuple[Bundle, Dict[str, Any]]]:
    """Run every fleet size on the scenario's axis; one bundle per size.

    Returns ``[(bundle, run_record), ...]`` in axis order.  ``workdir``
    holds scratch state (worker checkpoints, the materialised tenancy
    config); it defaults to ``<out_dir>/<bundle-dir>/work``.
    ``trace_dir`` switches on distributed tracing for the target; span
    accounting lands in ``results.json`` only, so bundle hashes are
    byte-identical with tracing on or off.
    """
    out: List[Tuple[Bundle, Dict[str, Any]]] = []
    axis = scenario.workers if scenario.mode == "fleet" else (1,)
    for workers in axis:
        from repro.campaign.bundle import bundle_dir_name

        scratch = Path(
            workdir if workdir is not None
            else Path(out_dir) / bundle_dir_name(scenario, workers) / "work"
        )
        scratch.mkdir(parents=True, exist_ok=True)
        if echo is not None:
            echo(
                f"campaign: {scenario.name!r} "
                f"(hash {scenario_hash(scenario)[:10]}) "
                f"mode={scenario.mode} workers={workers} "
                f"phases={len(scenario.phases)}"
            )
        target = await _start_target(
            scenario, workers, scratch, echo, trace_dir
        )
        phase_results: List[Dict[str, Any]] = []
        try:
            for phase in scenario.phases:
                phase_results.append(
                    await _run_phase(scenario, phase, target, echo)
                )
            metrics = await target.metrics()
            trace_summary = target.trace_summary()
        finally:
            await target.aclose()
        record = {
            "workers": workers,
            "mode": scenario.mode,
            "phases": phase_results,
            "sessions_lost": sum(
                result["sessions_lost"] for result in phase_results
            ),
        }
        bundle = write_bundle(
            out_dir, scenario, workers, phase_results,
            fleet_metrics=metrics,
            trace_summary=trace_summary,
            environment={
                "python": platform.python_version(),
                "platform": sys.platform,
                "created_at": time.strftime(
                    "%Y-%m-%dT%H:%M:%S%z", time.localtime()
                ),
            },
        )
        if echo is not None:
            echo(
                f"campaign: bundle {bundle.path} "
                f"bundle_hash={bundle.bundle_hash[:12]} "
                f"sessions_lost={record['sessions_lost']}"
            )
        out.append((bundle, record))
    return out


def run_scenario(
    scenario: ScenarioSpec, **kwargs: Any
) -> List[Tuple[Bundle, Dict[str, Any]]]:
    """Blocking wrapper around :func:`run_scenario_async`."""
    return asyncio.run(run_scenario_async(scenario, **kwargs))

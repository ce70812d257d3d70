"""Run a whole fleet — supervisor + workers + gateway — as one unit.

Two entry points share the same wiring:

* :func:`start_fleet` — the programmatic embedding: start N supervised
  advisory workers behind a gateway and hand back a :class:`Fleet`
  handle (``port``, ``metrics()``, ``aclose()``).  The campaign engine
  (:mod:`repro.campaign`) drives real fleets through this.
* :func:`serve_fleet` — the ``python -m repro fleet`` core: a started
  fleet plus signal handling.  Serve until SIGTERM/SIGINT, then drain —
  gateway first (stop accepting, close client connections), then
  SIGTERM fan-out to the workers so each checkpoints its live sessions
  to the shared ``--checkpoint-dir`` — and print one greppable summary
  line::

    fleet: workers=3 workers_restarted=1 sessions_opened=12 \
sessions_closed=12 failovers_resumed=4 failovers_degraded=0 \
sessions_lost=0 sessions_evicted=7 tenants_rejected=0

CI's smoke job greps that line for ``sessions_lost=0`` and
``workers_restarted=1`` after SIGKILLing a worker mid-replay; the
tenancy smoke greps ``tenants_rejected`` and ``sessions_evicted``
(fleet-wide totals: worker evictions plus gateway + worker quota
rejections).
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from typing import Any, Dict, Optional, Tuple

from repro.cluster.gateway import AdvisoryGateway
from repro.cluster.ring import DEFAULT_VNODES
from repro.cluster.worker import WorkerSupervisor
from repro.service import protocol
from repro.service.metrics import ServiceMetrics
from repro.service.overload import OverloadPolicy


class Fleet:
    """A started fleet: gateway in front, supervised workers behind.

    ::

        fleet = await start_fleet(workers=2, checkpoint_dir="ckpt")
        try:
            ...  # clients connect to fleet.port
            totals, per_worker = await fleet.metrics()
        finally:
            await fleet.aclose()

    Also an async context manager.  :meth:`aclose` collects the worker
    counters *before* tearing anything down, so :attr:`sessions_evicted`
    and :attr:`worker_tenants_rejected` stay readable afterwards (the
    shutdown summary line needs them).
    """

    def __init__(
        self, gateway: AdvisoryGateway, supervisor: WorkerSupervisor
    ) -> None:
        self.gateway = gateway
        self.supervisor = supervisor
        self.started_at = time.monotonic()
        self.sessions_evicted = 0
        self.worker_tenants_rejected = 0
        self.worker_overload_rejections = 0

    @property
    def port(self) -> int:
        """The gateway port clients connect to."""
        return self.gateway.endpoint.port

    @property
    def sessions_lost(self) -> int:
        return self.gateway.stats.sessions_lost

    async def metrics(self) -> Tuple[ServiceMetrics, Dict[str, Any]]:
        """Merged worker metrics: ``(fleet totals, per-worker dicts)``."""
        return await self.gateway.fleet_metrics()

    def summary(self) -> str:
        """The greppable one-line shutdown summary (see module docstring)."""
        stats = self.gateway.stats
        rejected = stats.tenants_rejected + self.worker_tenants_rejected
        shed = stats.overload_rejections + self.worker_overload_rejections
        return (
            f"fleet: workers={len(self.supervisor.workers)} "
            f"workers_restarted={self.supervisor.workers_restarted} "
            f"sessions_opened={stats.sessions_opened} "
            f"sessions_closed={stats.sessions_closed} "
            f"failovers_resumed={stats.failovers_resumed} "
            f"failovers_degraded={stats.failovers_degraded} "
            f"sessions_lost={stats.sessions_lost} "
            f"sessions_evicted={self.sessions_evicted} "
            f"tenants_rejected={rejected} "
            f"overload_rejections={shed} "
            f"breakers_opened={stats.breakers_opened} "
            f"journal_compactions={stats.journal_compactions} "
            f"uptime_s={time.monotonic() - self.started_at:.3f} "
            f"proto_version={protocol.PROTOCOL_VERSION} "
            f"pid={os.getpid()}"
        )

    async def aclose(self) -> None:
        # Collect worker counters (evictions, worker-side rejections) for
        # the summary while the workers are still up.
        try:
            totals, _ = await self.gateway.fleet_metrics()
            self.sessions_evicted = totals.sessions_evicted
            self.worker_tenants_rejected = totals.tenants_rejected
            self.worker_overload_rejections = totals.overload_rejections
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass
        await self.gateway.aclose()
        await self.supervisor.stop()

    async def __aenter__(self) -> "Fleet":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()


async def start_fleet(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    workers: int = 2,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every_s: Optional[float] = None,
    store: Optional[str] = None,
    model: Optional[str] = None,
    tenant_config: Optional[str] = None,
    memory_budget_mb: Optional[int] = None,
    max_sessions: int = 1024,
    max_inflight: Optional[int] = None,
    brownout: bool = False,
    vnodes: int = DEFAULT_VNODES,
    probe_interval_s: float = 1.0,
    trace_dir: Optional[str] = None,
    trace_sample: float = 1.0,
    trace_seed: int = 0,
    echo=None,
) -> Fleet:
    """Spawn the workers, start the gateway, return a live :class:`Fleet`.

    ``port=0`` binds the gateway to an ephemeral port (read it back from
    ``fleet.port``).  ``echo`` is an optional ``callable(str)`` receiving
    the same progress lines ``repro fleet`` prints.  ``trace_dir``
    switches on distributed tracing: the gateway head-samples
    ``trace_sample`` of sessions (deterministically, from
    ``trace_seed``) and every component appends its spans to
    ``<trace_dir>/<component>.ndjson`` — workers included, via their
    serve argv.
    """
    quotas = None
    if tenant_config is not None:
        # Parse once up front: the gateway admits against the same config
        # the workers load from the file path.
        from repro.tenancy.config import load_tenancy_config

        quotas = load_tenancy_config(tenant_config)
    supervisor = WorkerSupervisor(
        workers,
        host=host,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every_s=checkpoint_every_s,
        store=store,
        model=model,
        tenant_config=tenant_config,
        memory_budget_mb=memory_budget_mb,
        max_sessions=max_sessions,
        max_inflight=max_inflight,
        brownout=brownout,
        probe_interval_s=probe_interval_s,
        trace_dir=trace_dir,
        trace_sample=trace_sample if trace_dir is not None else None,
        trace_seed=trace_seed if trace_dir is not None else None,
        echo=echo,
    )
    tracer = None
    if trace_dir is not None:
        from repro.obs.trace import Tracer

        tracer = Tracer(
            "gateway", trace_dir=trace_dir,
            sample=trace_sample, seed=trace_seed,
        )
    await supervisor.start()
    gateway = AdvisoryGateway(
        supervisor,
        vnodes=vnodes,
        on_route=(
            None if echo is None
            else (lambda sid, wid: echo(f"fleet: session {sid} on {wid}"))
        ),
        tenant_config=quotas,
        # The gateway enforces the same admission watermark fleet-front,
        # so a flood is refused before it costs a worker round trip.
        overload=(
            OverloadPolicy(max_inflight=max_inflight)
            if max_inflight is not None else None
        ),
        checkpoint_dir=checkpoint_dir,
        tracer=tracer,
    )
    try:
        await gateway.endpoint.start(host, port)
    except BaseException:
        await gateway.aclose()
        await supervisor.stop()
        raise
    return Fleet(gateway, supervisor)


async def serve_fleet(
    host: str = "127.0.0.1",
    port: int = 7199,
    *,
    ready_message: bool = True,
    **options: Any,
) -> None:
    """Run gateway + supervised workers until SIGTERM/SIGINT/cancel.

    ``options`` are :func:`start_fleet`'s keyword parameters, passed
    through unchanged (``echo`` is this function's own progress printer).
    """

    def _say(message: str) -> None:
        if ready_message:
            print(message, flush=True)

    fleet = await start_fleet(
        host, port, echo=_say if ready_message else None, **options,
    )
    try:
        _say(
            f"repro.gateway listening on {host}:{fleet.port} "
            f"(protocol v{protocol.PROTOCOL_VERSION}, "
            f"workers={len(fleet.supervisor.workers)})"
        )
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await stop_requested.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
    finally:
        await fleet.aclose()
        _say(fleet.summary())

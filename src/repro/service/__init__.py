"""Online prefetch advisory service.

The offline :class:`~repro.sim.engine.Simulator` consumes a whole trace up
front; real predictive prefetchers (MITHRIL, Pangloss) instead answer one
question per access, online: *given this reference, what should be fetched
ahead of demand right now?*  This package turns the predictor +
cost-benefit core into exactly that — a long-lived advisory daemon:

* :mod:`~repro.service.session`  — :class:`PrefetchSession`, the per-client
  state machine (``observe(block) -> PrefetchAdvice``), and the
  session snapshots that resume it decision-identically;
* :mod:`~repro.service.protocol` — versioned newline-delimited-JSON wire
  schema (OPEN / OBSERVE / STATS / CLOSE);
* :mod:`~repro.service.server`   — asyncio TCP server multiplexing many
  concurrent sessions with per-session limits, degraded-mode serving,
  and graceful SIGTERM drain;
* :mod:`~repro.service.lineserver` — the connection core under both the
  server and the fleet gateway: listener, HELLO, idle/drain timeouts,
  line limit, load shedding, backpressure and teardown;
* :mod:`~repro.service.client`   — async and blocking clients, the
  asyncio connection that the async clients and the fleet gateway's
  worker links share (:class:`~repro.service.client.Upstream`), and
  :class:`ResilientAsyncClient`, which retries with backoff and resumes a
  session decision-identically across connection failures;
* :mod:`~repro.service.metrics`  — service-level counters and per-command
  latency histograms;
* :mod:`~repro.service.replay`   — a load generator replaying any trace
  against a live server at configurable concurrency;
* :mod:`~repro.service.faults`   — a deterministic chaos proxy for testing
  the above under resets, delays, and corrupted replies.

Entry points: ``python -m repro serve``, ``python -m repro replay``, and
``python -m repro chaos``.
"""

from repro.service.client import (
    AsyncServiceClient,
    ResilientAsyncClient,
    ResumeParityError,
    RetryPolicy,
    ServiceClient,
)
from repro.service.faults import ChaosProxy, ChaosStats, FaultPlan
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.protocol import PROTOCOL_VERSION, ProtocolError
from repro.service.replay import ReplayReport, replay, replay_async
from repro.service.server import (
    BackgroundServer,
    PrefetchService,
    ServiceLimits,
    drain_service,
    wait_port_ready,
)
from repro.service.session import (
    ModelRestoreError,
    PrefetchAdvice,
    PrefetchSession,
    SessionError,
)

__all__ = [
    "AsyncServiceClient",
    "BackgroundServer",
    "ChaosProxy",
    "ChaosStats",
    "FaultPlan",
    "LatencyHistogram",
    "ModelRestoreError",
    "PROTOCOL_VERSION",
    "PrefetchAdvice",
    "PrefetchService",
    "PrefetchSession",
    "ProtocolError",
    "ReplayReport",
    "ResilientAsyncClient",
    "ResumeParityError",
    "RetryPolicy",
    "ServiceClient",
    "ServiceLimits",
    "ServiceMetrics",
    "SessionError",
    "drain_service",
    "replay",
    "replay_async",
    "wait_port_ready",
]

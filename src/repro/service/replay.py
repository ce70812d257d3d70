"""Load generator: replay a block trace against a live advisory server.

Spawns N concurrent clients, each with its own connection and session,
streaming the trace one OBSERVE per reference, and reports aggregate
throughput (advice/sec), client-side latency percentiles, and the outcome
mix.  Because each session is deterministic given its reference stream,
replaying the same seeded trace always produces the same advice — the
harness doubles as a correctness check under concurrency.

``disjoint=True`` offsets each client's block ids into a private range so
the server is exercised with genuinely different streams (the concurrent-
isolation tests use this); the default replays the identical trace in all
clients, the usual load-testing setup.
"""

from __future__ import annotations

import asyncio
import functools
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Tracer

from repro.service import protocol
from repro.service.client import (
    AsyncServiceClient,
    ResilientAsyncClient,
    RetryPolicy,
    ServiceError,
)
from repro.service.metrics import percentiles_from_samples

#: Session-churn hook: ``callback(client_index, event)`` with event one of
#: ``"open"`` / ``"close"``.  The campaign driver counts these to assert
#: every opened session was closed (nothing lost to churn or chaos).
SessionEventHook = Callable[[int, str], None]


@dataclass
class ReplayReport:
    """Aggregate results of one replay run."""

    clients: int
    policy: str
    cache_size: int
    requests: int
    prefetches_recommended: int
    wall_seconds: float
    latency: Dict[str, float]
    outcomes: Dict[str, int]
    per_client_miss_rate: List[float] = field(default_factory=list)
    # resilience telemetry; all zero for a fault-free plain replay
    retries: int = 0
    resumes: int = 0
    cold_restarts: int = 0
    degraded_clients: int = 0
    # tenancy telemetry; sessions counts successful opens across all
    # clients, quota_rejected the OPENs the server refused with E_QUOTA
    sessions: int = 0
    quota_rejected: int = 0
    # overload telemetry; overload_rejections counts sessions the server
    # shed with E_OVERLOAD (tolerate_overload mode), overload_backoffs the
    # retry_after_s waits resilient clients honoured before admission
    overload_rejections: int = 0
    overload_backoffs: int = 0

    @property
    def advice_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.requests / self.wall_seconds

    def as_dict(self) -> Dict[str, Any]:
        return {
            "clients": self.clients,
            "policy": self.policy,
            "cache_size": self.cache_size,
            "requests": self.requests,
            "prefetches_recommended": self.prefetches_recommended,
            "wall_seconds": round(self.wall_seconds, 3),
            "advice_per_second": round(self.advice_per_second, 1),
            "latency_p50_ms": self.latency["p50_ms"],
            "latency_p95_ms": self.latency["p95_ms"],
            "latency_p99_ms": self.latency["p99_ms"],
            "outcomes": dict(self.outcomes),
            "per_client_miss_rate": [
                round(rate, 2) for rate in self.per_client_miss_rate
            ],
            "retries": self.retries,
            "resumes": self.resumes,
            "cold_restarts": self.cold_restarts,
            "degraded_clients": self.degraded_clients,
            "sessions": self.sessions,
            "quota_rejected": self.quota_rejected,
            "overload_rejections": self.overload_rejections,
            "overload_backoffs": self.overload_backoffs,
        }


@dataclass
class _ClientResult:
    samples: List[float]
    outcomes: Dict[str, int]
    prefetches: int
    miss_rate: float
    retries: int = 0
    resumes: int = 0
    cold_restarts: int = 0
    degraded: bool = False
    sessions: int = 0
    quota_rejected: int = 0
    overload_rejections: int = 0
    overload_backoffs: int = 0


async def _replay_one(
    host: str,
    port: int,
    blocks: Sequence[int],
    *,
    policy: str,
    cache_size: int,
    params: Optional[Dict[str, float]],
    policy_kwargs: Optional[Dict[str, Any]],
    offset: int,
    retry: Optional[RetryPolicy] = None,
    tenant: Optional[str] = None,
    sessions: int = 1,
    tolerate_quota: bool = False,
    tolerate_overload: bool = False,
    client_index: int = 0,
    start_delay_s: float = 0.0,
    on_session_event: Optional[SessionEventHook] = None,
    tracer: Optional["Tracer"] = None,
) -> _ClientResult:
    result = _ClientResult(
        samples=[],
        outcomes={"demand_hit": 0, "prefetch_hit": 0, "miss": 0},
        prefetches=0,
        miss_rate=0.0,
    )
    if start_delay_s > 0.0:
        await asyncio.sleep(start_delay_s)

    def _event(event: str) -> None:
        if on_session_event is not None:
            on_session_event(client_index, event)

    def _session_trace(session_index: int) -> Optional[str]:
        """Client-minted trace id for one logical session (or None).

        The key is positional (client, session ordinal), so reruns of the
        same seeded replay mint the same ids and sample the same subset.
        """
        if tracer is None:
            return None
        candidate = tracer.new_trace_id(
            f"c{client_index}:s{session_index}"
        )
        return candidate if tracer.sampled(candidate) else None

    async def _one_session(session_index: int) -> None:
        trace_id = _session_trace(session_index)
        open_kwargs = dict(
            policy=policy, cache_size=cache_size, params=params,
            policy_kwargs=policy_kwargs, tenant=tenant, trace=trace_id,
        )
        if retry is not None:
            # Resilient path: the client journals every reference and
            # transparently reconnects/resumes across injected faults, so
            # the advice stream is identical to the fault-free run.
            client = ResilientAsyncClient(host, port, retry=retry)
        else:
            client = await AsyncServiceClient.connect(host, port)
        async with client:
            t_open = time.perf_counter()
            if retry is not None:
                await client.open(**open_kwargs)
                bound_trace = client.trace
                observe = client.observe
                close = client.close_session
            else:
                reply = await client.open_session(**open_kwargs)
                bound_trace = reply.trace
                observe = functools.partial(client.observe, reply.session)
                close = functools.partial(client.close_session, reply.session)
            open_dur = time.perf_counter() - t_open
            if tracer is not None and trace_id is None:
                # The gateway/worker head-sampled this session on its
                # own; adopt its id so client spans join the trace.
                trace_id = bound_trace
            if trace_id is not None:
                tracer.record(
                    trace_id, "client.open", t_open, open_dur,
                    client=client_index,
                )
            _event("open")
            for block in blocks:
                started = time.perf_counter()
                advice = await observe(int(block) + offset)
                elapsed = time.perf_counter() - started
                result.samples.append(elapsed)
                if trace_id is not None:
                    tracer.record(
                        trace_id, "client.rpc", started, elapsed,
                        client=client_index,
                    )
                result.outcomes[advice.outcome] += 1
                result.prefetches += len(advice.prefetch)
            final = await close()
            _event("close")
            if retry is not None:
                result.retries += client.retries
                result.resumes += client.resumes
                result.cold_restarts += client.cold_restarts
                result.overload_backoffs += client.overload_backoffs
                result.degraded = result.degraded or client.degraded
        result.sessions += 1
        result.miss_rate = float(final.get("miss_rate", 0.0))

    for session_index in range(sessions):
        try:
            await _one_session(session_index)
        except ServiceError as exc:
            # Over-quota tenants are expected to be refused at OPEN; the
            # smoke harness replays past them and counts the rejections.
            if tolerate_quota and exc.code == protocol.E_QUOTA:
                result.quota_rejected += 1
                continue
            # Likewise for admission-watermark sheds under a deliberate
            # flood: a refused OPEN is a counted outcome, not a failure.
            if tolerate_overload and exc.code == protocol.E_OVERLOAD:
                result.overload_rejections += 1
                continue
            raise
    return result


async def replay_async(
    blocks: Sequence[int],
    *,
    host: str = "127.0.0.1",
    port: int = 7199,
    clients: int = 4,
    policy: str = "tree",
    cache_size: int = 1024,
    params: Optional[Dict[str, float]] = None,
    policy_kwargs: Optional[Dict[str, Any]] = None,
    disjoint: bool = False,
    retry: Optional[RetryPolicy] = None,
    tenant: Optional[str] = None,
    sessions_per_client: int = 1,
    tolerate_quota: bool = False,
    tolerate_overload: bool = False,
    client_blocks: Optional[Sequence[Sequence[int]]] = None,
    arrival_delays: Optional[Sequence[float]] = None,
    on_session_event: Optional[SessionEventHook] = None,
    tracer: Optional["Tracer"] = None,
) -> ReplayReport:
    """Replay ``blocks`` from ``clients`` concurrent sessions.

    With ``retry`` set, every client is a
    :class:`~repro.service.client.ResilientAsyncClient`, so the replay
    survives connection resets, timeouts, and server restarts (given a
    checkpoint directory) — the chaos-testing configuration.

    ``tenant`` opens every session under that tenant;
    ``sessions_per_client`` makes each client open/replay/close that many
    sessions back to back (session-churn load for the tenancy smoke);
    ``tolerate_quota`` turns server-side ``quota_exceeded`` rejections
    into a counted outcome instead of a failure.

    The campaign driver's hooks: ``client_blocks`` hands every client its
    own private stream (overriding ``blocks``; incompatible with
    ``disjoint``, which exists to synthesise exactly that from one
    stream), ``arrival_delays`` staggers client connects (seconds, one
    entry per client), and ``on_session_event`` observes open/close churn
    as it happens.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`, component
    ``"client"``) records ``client.open`` / ``client.rpc`` spans for the
    sessions its deterministic head-based sampling selects, and rides
    each sampled session's trace id on the OPEN so gateway and worker
    spans join the same trace.  The caller owns the tracer's lifecycle;
    the replay flushes it before returning.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients!r}")
    if sessions_per_client < 1:
        raise ValueError(
            f"sessions_per_client must be >= 1, got {sessions_per_client!r}"
        )
    if client_blocks is not None:
        if disjoint:
            raise ValueError(
                "client_blocks already gives each client a private stream; "
                "disjoint does not apply"
            )
        if len(client_blocks) != clients:
            raise ValueError(
                f"client_blocks must have one stream per client "
                f"({clients}), got {len(client_blocks)}"
            )
        if any(not stream for stream in client_blocks):
            raise ValueError("client_blocks contains an empty stream")
    elif not blocks:
        raise ValueError("cannot replay an empty trace")
    if arrival_delays is not None and len(arrival_delays) != clients:
        raise ValueError(
            f"arrival_delays must have one delay per client "
            f"({clients}), got {len(arrival_delays)}"
        )
    # Private id ranges per client when streams must not collide.
    span = (max(int(b) for b in blocks) + 1) if disjoint else 0
    started = time.perf_counter()
    results = await asyncio.gather(*(
        _replay_one(
            host, port,
            blocks if client_blocks is None else client_blocks[index],
            policy=policy, cache_size=cache_size, params=params,
            policy_kwargs=policy_kwargs,
            offset=index * span,
            retry=retry,
            tenant=tenant,
            sessions=sessions_per_client,
            tolerate_quota=tolerate_quota,
            tolerate_overload=tolerate_overload,
            client_index=index,
            start_delay_s=(
                0.0 if arrival_delays is None else float(arrival_delays[index])
            ),
            on_session_event=on_session_event,
            tracer=tracer,
        )
        for index in range(clients)
    ))
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.flush()

    samples: List[float] = []
    outcomes = {"demand_hit": 0, "prefetch_hit": 0, "miss": 0}
    prefetches = 0
    for result in results:
        samples.extend(result.samples)
        prefetches += result.prefetches
        for key, count in result.outcomes.items():
            outcomes[key] += count
    return ReplayReport(
        clients=clients,
        policy=policy,
        cache_size=cache_size,
        requests=len(samples),
        prefetches_recommended=prefetches,
        wall_seconds=wall,
        latency=percentiles_from_samples(samples),
        outcomes=outcomes,
        per_client_miss_rate=[result.miss_rate for result in results],
        retries=sum(result.retries for result in results),
        resumes=sum(result.resumes for result in results),
        cold_restarts=sum(result.cold_restarts for result in results),
        degraded_clients=sum(1 for result in results if result.degraded),
        sessions=sum(result.sessions for result in results),
        quota_rejected=sum(result.quota_rejected for result in results),
        overload_rejections=sum(
            result.overload_rejections for result in results
        ),
        overload_backoffs=sum(
            result.overload_backoffs for result in results
        ),
    )


def replay(blocks: Sequence[int], **kwargs: Any) -> ReplayReport:
    """Blocking wrapper around :func:`replay_async`."""
    return asyncio.run(replay_async(blocks, **kwargs))

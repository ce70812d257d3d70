"""Asyncio TCP server multiplexing many concurrent advisory sessions.

One process serves many connections; each connection may open several
sessions (e.g. one per application being advised).  Sessions are isolated
— every OPEN builds a fresh policy, prefetch tree, and cost-benefit
estimator — and are torn down with the connection that opened them.

:class:`PrefetchService` is a handler on the shared connection core
(:class:`~repro.service.lineserver.LineServer`, its ``endpoint``), which
owns the listener, framing, timeouts, shedding and flow control.  Session
work itself is synchronous pure-Python, so every request is served and
answered inside the connection's ``data_received``, with no coroutine;
the event loop interleaves connections between requests, which is the
right trade for a model-driven advisor whose per-request work is
microseconds.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import signal
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - tracing and tenancy load lazily
    from repro.obs.trace import Tracer
    from repro.tenancy.config import TenantSpec
    from repro.tenancy.manager import TenancyManager

from repro.params import PAPER_PARAMS, SystemParams
from repro.service import protocol
from repro.service.lineserver import Connection, LineServer
from repro.service.metrics import ServiceMetrics
from repro.service.overload import (
    AdmissionGuard,
    LoopLagWatchdog,
    OverloadPolicy,
    TIER_NAMES,
)
from repro.service.protocol import (
    CloseReply,
    CloseRequest,
    ErrorReply,
    HelloReply,
    ObserveReply,
    ObserveRequest,
    OpenReply,
    OpenRequest,
    Reply,
    Request,
    StatsReply,
    StatsRequest,
)
from repro.service.session import (
    ModelRestoreError,
    PrefetchSession,
    SessionError,
    restore_session,
    snapshot_session,
)
from repro.store.codec import (
    KIND_SESSION,
    Snapshot,
    SnapshotError,
    read_snapshot,
    write_snapshot,
)
from repro.store.registry import ModelStore, ModelStoreError

#: SystemParams fields an OPEN request may override.
_PARAM_FIELDS = frozenset({"t_hit", "t_driver", "t_disk", "t_cpu", "block_size"})


@dataclass(frozen=True)
class ServiceLimits:
    """Hard ceilings protecting one server instance."""

    max_sessions: int = 1024
    """Live sessions across all connections."""
    max_sessions_per_connection: int = 64
    max_observations_per_session: Optional[int] = 10_000_000
    max_line_bytes: int = protocol.MAX_LINE_BYTES
    idle_timeout_s: Optional[float] = 300.0
    """Close a connection that sends nothing for this long (None = never),
    so a stalled client cannot wedge its server-side handler forever."""
    request_timeout_s: Optional[float] = 60.0
    """Bound on draining one reply to a slow reader (None = forever)."""
    max_detached_sessions: int = 64
    """Snapshots kept in memory for sessions whose connection vanished
    without CLOSE, resumable via OPEN ``resume=<id>`` (LRU-evicted)."""


#: How many OBSERVEs between memory-budget sweeps.  Accounting is O(live
#: sessions), so amortise it instead of paying it per request.
_BUDGET_CHECK_INTERVAL = 64


class PrefetchService:
    """Session table + request dispatcher; ``endpoint`` serves it over TCP."""

    def __init__(
        self,
        *,
        default_params: Optional[SystemParams] = None,
        limits: Optional[ServiceLimits] = None,
        metrics: Optional[ServiceMetrics] = None,
        store: Optional[ModelStore] = None,
        default_model: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        identity: Optional[str] = None,
        tenancy: Optional["TenancyManager"] = None,
        memory_budget_bytes: Optional[int] = None,
        overload: Optional[OverloadPolicy] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.default_params = (
            default_params if default_params is not None else PAPER_PARAMS
        )
        self.limits = limits if limits is not None else ServiceLimits()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.store = store
        self.default_model = default_model
        self.checkpoint_dir = checkpoint_dir
        self.identity = identity
        """Worker name in a fleet (e.g. ``w2``): reported by server-level
        STATS and prefixed onto generated session ids so checkpoints from
        different workers sharing one ``--checkpoint-dir`` cannot collide."""
        self.tenancy = tenancy
        """Tenant manager binding sessions to shared base models; None on
        single-tenant servers (see :mod:`repro.tenancy`)."""
        self.memory_budget_bytes = memory_budget_bytes
        """Per-worker ceiling on accounted model bytes (shared bases plus
        per-session private state, at the paper's bytes-per-node rate).
        When exceeded, least-recently-observed sessions are evicted to the
        checkpoint directory and transparently resurrected on their next
        request.  Requires ``checkpoint_dir``; ``None`` disables eviction."""
        #: Ordered least-recently-observed first: OBSERVE moves its session
        #: to the end, so budget eviction pops from the front.
        self.overload = AdmissionGuard(overload)
        """Admission watermark + brownout state (see
        :mod:`repro.service.overload`).  The default policy has no
        watermark and no brownout, so overload protection is opt-in."""
        self.tracer = tracer
        """Span recorder (:class:`repro.obs.trace.Tracer`); ``None`` runs
        the whole dispatch path with a single falsy check per request.
        Sessions opened with a ``trace`` field inherit that id (the
        gateway/client already made the sampling call); locally-opened
        sessions are head-sampled against the tracer's own seed."""
        self.started_at = time.monotonic()
        #: Trace id per traced live session (a sparse subset of
        #: ``self.sessions`` under sampling).
        self._traces: Dict[str, str] = {}
        self.sessions: "OrderedDict[str, PrefetchSession]" = OrderedDict()
        #: Sessions whose connection vanished without CLOSE: id ->
        #: snapshot (its provenance names the tenant), LRU-bounded.
        self.detached: "OrderedDict[str, Snapshot]" = OrderedDict()
        #: Sessions evicted to disk under memory pressure: id -> tenant (or
        #: None), consulted for transparent resurrection.
        self.evicted: Dict[str, Optional[str]] = {}
        self._session_ids = itertools.count(1)
        self._observes_since_budget_check = 0
        self.endpoint = LineServer(
            self._respond, self.drop_connection_sessions,
            name="server",
            hello=HelloReply(id=0, max_sessions=self.limits.max_sessions),
            guard=self.overload,
            counters=self.metrics,
            idle_timeout_s=self.limits.idle_timeout_s,
            drain_timeout_s=self.limits.request_timeout_s,
            max_line_bytes=self.limits.max_line_bytes,
        )
        """The TCP endpoint serving this service (not listening until
        ``await service.endpoint.start(host, port)``)."""

    async def aclose(self) -> None:
        """Stop serving: close the endpoint and its connections, then
        flush the tracer."""
        await self.endpoint.aclose()
        if self.tracer is not None:
            self.tracer.close()

    # ----------------------------------------------------------- dispatch

    def _respond(self, request: Request, conn: Connection) -> bytes:
        return protocol.encode_reply(self.handle(request, conn.owned))

    def handle(self, request: Request, owned: Set[str]) -> Reply:
        """Serve one decoded request; ``owned`` is the connection's sessions."""
        started = time.perf_counter()
        try:
            if isinstance(request, OpenRequest):
                reply = self._handle_open(request, owned)
            elif isinstance(request, ObserveRequest):
                reply = self._handle_observe(request)
            elif isinstance(request, StatsRequest):
                reply = self._handle_stats(request)
            elif isinstance(request, CloseRequest):
                reply = self._handle_close(request, owned)
            else:  # pragma: no cover - decode_request guards this
                reply = ErrorReply(request.id, protocol.E_BAD_REQUEST,
                                   f"unhandled command {request!r}")
        except SessionError as exc:
            reply = ErrorReply(request.id, protocol.E_SESSION_ERROR, str(exc))
        if isinstance(reply, ErrorReply):
            self.metrics.errors += 1
        if not self.overload.drop_logs:
            # Brownout tier >= 2 sheds per-command accounting: the advice
            # stream keeps flowing, the histograms go quiet.
            self.metrics.record_latency(
                request.cmd, time.perf_counter() - started
            )
        return reply

    def _handle_open(self, request: OpenRequest, owned: Set[str]) -> Reply:
        limits = self.limits
        if len(self.sessions) >= limits.max_sessions:
            self.metrics.sessions_rejected += 1
            return ErrorReply(
                request.id, protocol.E_LIMIT,
                f"server session limit reached ({limits.max_sessions})",
            )
        if len(owned) >= limits.max_sessions_per_connection:
            self.metrics.sessions_rejected += 1
            return ErrorReply(
                request.id, protocol.E_LIMIT,
                "connection session limit reached "
                f"({limits.max_sessions_per_connection})",
            )
        if request.session_id is not None:
            if not protocol.is_safe_id(request.session_id):
                self.metrics.sessions_rejected += 1
                return ErrorReply(
                    request.id, protocol.E_BAD_REQUEST,
                    f"unusable session_id {request.session_id!r}",
                )
            if request.session_id in self.sessions:
                self.metrics.sessions_rejected += 1
                return ErrorReply(
                    request.id, protocol.E_SESSION_ERROR,
                    f"session {request.session_id!r} already exists",
                )
        tenant_spec = None
        if request.tenant is not None:
            if self.tenancy is None:
                self.metrics.sessions_rejected += 1
                return ErrorReply(
                    request.id, protocol.E_BAD_REQUEST,
                    "server has no tenant config "
                    "(start serve with --tenant-config)",
                )
            if request.model is not None:
                self.metrics.sessions_rejected += 1
                return ErrorReply(
                    request.id, protocol.E_BAD_REQUEST,
                    "'tenant' and 'model' are mutually exclusive "
                    "(the tenant names its base model)",
                )
            tenant_spec = self._admit(request, request.tenant)
            if isinstance(tenant_spec, ErrorReply):
                return tenant_spec
        if request.resume is not None:
            return self._handle_resume(request, owned)
        try:
            params = self._resolve_params(request.params)
        except (TypeError, ValueError) as exc:
            self.metrics.sessions_rejected += 1
            return ErrorReply(request.id, protocol.E_BAD_REQUEST, str(exc))
        model_spec = (
            request.model if request.model is not None else self.default_model
        )
        try:
            if tenant_spec is not None:
                session = self._open_for_tenant(request, tenant_spec, params)
            elif model_spec is not None:
                session = self._open_from_model(model_spec, request, params)
            else:
                session = PrefetchSession(
                    policy=request.policy,
                    cache_size=request.cache_size,
                    params=params,
                    policy_kwargs=request.policy_kwargs,
                    max_observations=limits.max_observations_per_session,
                )
        except ModelRestoreError as exc:
            # Degraded mode: a broken stored model must not kill serving.
            # The session runs, but with no-prefetch advice and a flag the
            # client (and the metrics) can see.
            try:
                session = PrefetchSession(
                    policy="no-prefetch",
                    cache_size=request.cache_size,
                    params=params,
                    max_observations=limits.max_observations_per_session,
                )
            except SessionError:
                self.metrics.sessions_rejected += 1
                return ErrorReply(
                    request.id, protocol.E_SESSION_ERROR, str(exc)
                )
            session.degraded = True
            self.metrics.degraded_sessions += 1
        except SessionError as exc:
            self.metrics.sessions_rejected += 1
            return ErrorReply(request.id, protocol.E_SESSION_ERROR, str(exc))
        return self._install_session(
            request, session, owned,
            tenant=request.tenant if tenant_spec is not None else None,
        )

    def _admit(
        self, request: OpenRequest, tenant: str
    ) -> Union["TenantSpec", ErrorReply]:
        """Worker-side tenant admission for one OPEN or resume: the
        tenant's spec, or the refusal to send."""
        from repro.tenancy.manager import TenantQuotaError, UnknownTenantError

        try:
            return self.tenancy.admit(tenant, self.sessions)
        except UnknownTenantError as exc:
            self.metrics.sessions_rejected += 1
            return ErrorReply(request.id, protocol.E_BAD_REQUEST, str(exc))
        except TenantQuotaError as exc:
            self.metrics.sessions_rejected += 1
            self.metrics.tenants_rejected += 1
            self.metrics.record_tenant(tenant, "sessions_rejected")
            return ErrorReply(
                request.id, protocol.E_QUOTA, str(exc),
                retry_after_s=exc.retry_after_s,
            )

    def _install_session(
        self,
        request: OpenRequest,
        session: PrefetchSession,
        owned: Set[str],
        *,
        resumed: bool = False,
        tenant: Optional[str] = None,
    ) -> OpenReply:
        if request.session_id is not None:
            session_id = request.session_id
        else:
            prefix = f"{self.identity}-" if self.identity else ""
            session_id = f"{prefix}s{next(self._session_ids)}"
        self.sessions[session_id] = session
        owned.add(session_id)
        self.evicted.pop(session_id, None)
        if tenant is not None and self.tenancy is not None:
            self.tenancy.bind(session_id, tenant)
            self.metrics.record_tenant(tenant, "sessions_opened")
        self.metrics.sessions_opened += 1
        self.enforce_memory_budget(keep=session_id)
        trace_id = self._bind_trace(session_id, request, resumed=resumed)
        return OpenReply(
            id=request.id,
            session=session_id,
            policy=session.policy_name,
            cache_size=session.cache_size,
            period=session.observations,
            resumed=resumed,
            degraded=session.degraded,
            trace=trace_id,
        )

    def _bind_trace(
        self, session_id: str, request: OpenRequest, *, resumed: bool
    ) -> Optional[str]:
        """Bind the session to a trace id (and span its open), or None.

        A ``trace`` field on the request wins — the gateway or client
        upstream already made the sampling decision and every hop must
        agree.  Locally-opened sessions are head-sampled against this
        server's own tracer seed.
        """
        tracer = self.tracer
        if tracer is None:
            return None
        trace_id = request.trace
        if trace_id is None:
            trace_id = tracer.new_trace_id(session_id)
            if not tracer.sampled(trace_id):
                return None
        self._traces[session_id] = trace_id
        now = time.perf_counter()
        tracer.record(
            trace_id, "worker.open", now, 0.0,
            session=session_id, resumed=int(resumed),
        )
        return trace_id

    def _handle_resume(self, request: OpenRequest, owned: Set[str]) -> Reply:
        """Re-open a detached or checkpointed session decision-identically.

        Lookup order: the in-memory detached table (sessions whose
        connection vanished without CLOSE), then
        ``<checkpoint_dir>/<id>.snap`` (periodic checkpoints surviving a
        server restart).  The reply's ``period`` tells the client which
        observation the restored state is at, so it can replay the tail of
        its journal before continuing.
        """
        resume_id = request.resume
        if not protocol.is_safe_id(resume_id):
            # The id becomes a checkpoint-dir path component below; reject
            # anything that could traverse out of the directory.
            return ErrorReply(
                request.id, protocol.E_BAD_REQUEST,
                f"unusable resume id {resume_id!r}",
            )
        snapshot = detached = self.detached.pop(resume_id, None)
        if snapshot is None and self.checkpoint_dir is not None:
            path = os.path.join(self.checkpoint_dir, f"{resume_id}.snap")
            if os.path.exists(path):
                try:
                    snapshot = read_snapshot(path)
                except SnapshotError as exc:
                    return ErrorReply(
                        request.id, protocol.E_SESSION_ERROR,
                        f"checkpoint for {resume_id!r} is unreadable: {exc}",
                    )
        if snapshot is None:
            return ErrorReply(
                request.id, protocol.E_UNKNOWN_SESSION,
                f"no detached session or checkpoint for {resume_id!r}",
            )
        try:
            session = self._restore(snapshot)
        except SnapshotError as exc:
            return ErrorReply(
                request.id, protocol.E_SESSION_ERROR,
                f"cannot restore {resume_id!r}: {exc}",
            )
        # A session keeps its tenant binding across the gap: the eviction
        # record and the snapshot's provenance name it, and so does a
        # checkpointed overlay.  The resume supersedes the eviction record
        # even when the new session gets a fresh id.
        evicted = resume_id in self.evicted
        evicted_tenant = self.evicted.pop(resume_id, None)
        tenant = request.tenant
        if tenant is None and self.tenancy is not None:
            tenant = evicted_tenant or snapshot.provenance.get("tenant")
            if tenant not in self.tenancy.config.tenants:
                tenant = self.tenancy.tenant_of_model(session)
            if tenant is not None:
                # The OPEN named no tenant, so nothing admitted it yet.
                refusal = self._admit(request, tenant)
                if isinstance(refusal, ErrorReply):
                    if detached is not None:
                        self.detached[resume_id] = detached
                    if evicted:
                        self.evicted[resume_id] = evicted_tenant
                    return refusal
        self.metrics.sessions_resumed += 1
        return self._install_session(
            request, session, owned, resumed=True, tenant=tenant
        )

    def _open_from_model(
        self,
        model_spec: str,
        request: OpenRequest,
        params: SystemParams,
    ) -> PrefetchSession:
        """Build the session for an OPEN that names a stored model.

        A ``session``-kind snapshot resumes decision-identically and its
        recorded config (policy, cache size, params) wins over the request;
        a ``model``-kind snapshot warm-starts the requested policy's model
        while cache and cost state begin cold.
        """
        if self.store is None:
            raise SessionError(
                f"cannot open from model {model_spec!r}: server has no "
                "model store (start serve with --store)"
            )
        try:
            snapshot = self.store.load(model_spec)
        except SnapshotError as exc:
            # A model that does not exist is a client mistake -> reject.
            raise SessionError(f"model {model_spec!r}: {exc}") from None
        if snapshot.kind == KIND_SESSION:
            try:
                return restore_session(
                    snapshot,
                    max_observations=self.limits.max_observations_per_session,
                )
            except SnapshotError as exc:
                # The model exists but its bytes are bad -> degrade.
                raise ModelRestoreError(
                    f"model {model_spec!r}: {exc}"
                ) from None
        return PrefetchSession(
            policy=request.policy,
            cache_size=request.cache_size,
            params=params,
            policy_kwargs=request.policy_kwargs,
            max_observations=self.limits.max_observations_per_session,
            warm_start=snapshot,
        )

    def _open_for_tenant(
        self,
        request: OpenRequest,
        spec: Any,
        params: SystemParams,
    ) -> PrefetchSession:
        """Build a tenant session sharing (copy-on-write) the tenant base.

        The session is constructed cold on the effective policy, then its
        model is swapped for a fresh overlay over the shared base — or a
        private warm copy when the base cannot be shared.  A corrupt base
        degrades the session (like a corrupt named model); a config-level
        mismatch (non-tree base, no store) rejects the OPEN.
        """
        from repro.tenancy.config import TenancyConfigError

        policy_name = request.policy
        if spec.policy is not None and policy_name == "tree":
            # The protocol default; the tenant's configured policy wins.
            policy_name = spec.policy
        session = PrefetchSession(
            policy=policy_name,
            cache_size=request.cache_size,
            params=params,
            policy_kwargs=request.policy_kwargs,
            max_observations=self.limits.max_observations_per_session,
        )
        try:
            model = self.tenancy.make_model(spec.name)
        except (TenancyConfigError, ModelStoreError) as exc:
            raise SessionError(f"tenant {spec.name!r}: {exc}") from None
        except SnapshotError as exc:
            raise ModelRestoreError(f"tenant {spec.name!r}: {exc}") from None
        try:
            session.simulator.policy.replace_model(model)
        except (NotImplementedError, TypeError) as exc:
            raise SessionError(
                f"tenant {spec.name!r} requires a tree-backed policy; "
                f"{exc}"
            ) from None
        return session

    # ------------------------------------------------------ memory budget

    def accounted_model_bytes(self) -> int:
        """Total model bytes this worker is charged for right now: shared
        bases once, each session its private model bytes."""
        from repro.tenancy.manager import TenancyManager

        total = (
            self.tenancy.base_bytes_total() if self.tenancy is not None else 0
        )
        for session in self.sessions.values():
            total += TenancyManager.session_model_bytes(session)
        return total

    def enforce_memory_budget(self, *, keep: Optional[str] = None) -> int:
        """Evict least-recently-observed sessions until under budget.

        Returns the number of sessions evicted.  A no-op without a budget
        or a checkpoint directory (there is nowhere to evict to).  ``keep``
        shields the session that triggered the sweep.
        """
        budget = self.memory_budget_bytes
        if budget is None or self.checkpoint_dir is None:
            return 0
        from repro.tenancy.manager import TenancyManager

        total = self.accounted_model_bytes()
        evictions = 0
        while total > budget:
            # Least-recently-observed first, but skip sessions whose
            # private delta is empty: evicting them frees nothing and
            # costs a checkpoint write each.
            victim = None
            freed = 0
            for sid in self.sessions:
                if sid == keep:
                    continue
                freed = TenancyManager.session_model_bytes(self.sessions[sid])
                if freed > 0:
                    victim = sid
                    break
            if victim is None:
                break
            if not self._evict_one(victim):
                break
            evictions += 1
            total -= freed
        return evictions

    def _evict_one(self, session_id: str) -> bool:
        """Checkpoint one live session to disk and drop it *without* close.

        The session stays logically open: its id is remembered in
        ``self.evicted`` and the next request touching it resurrects it
        from the checkpoint transparently (see :meth:`_live_session`).
        """
        session = self.sessions[session_id]
        try:
            snapshot = self._snapshot(session_id, session, evicted=True)
            os.makedirs(self.checkpoint_dir, exist_ok=True)
            write_snapshot(
                snapshot,
                os.path.join(self.checkpoint_dir, f"{session_id}.snap"),
            )
        except (OSError, SnapshotError):
            return False
        tenant = (
            self.tenancy.tenant_of(session_id)
            if self.tenancy is not None else None
        )
        if self.tenancy is not None:
            self.tenancy.unbind(session_id)
        self.sessions.pop(session_id, None)
        self.evicted[session_id] = tenant
        self.metrics.sessions_evicted += 1
        if tenant is not None:
            self.metrics.record_tenant(tenant, "sessions_evicted")
        return True

    def _live_session(self, session_id: str) -> Optional[PrefetchSession]:
        """The live session, resurrecting it from disk if budget-evicted."""
        session = self.sessions.get(session_id)
        if session is not None:
            return session
        if session_id not in self.evicted or self.checkpoint_dir is None:
            return None
        path = os.path.join(self.checkpoint_dir, f"{session_id}.snap")
        try:
            session = self._restore(read_snapshot(path))
        except (OSError, SnapshotError):
            # Leave the eviction record: the fault may be transient, and
            # the client can still OPEN resume=<id> explicitly.
            return None
        tenant = self.evicted.pop(session_id)
        self.sessions[session_id] = session
        if tenant is not None and self.tenancy is not None:
            self.tenancy.bind(session_id, tenant)
            self.metrics.record_tenant(tenant, "sessions_resurrected")
        self.metrics.sessions_resurrected += 1
        return session

    def _handle_observe(self, request: ObserveRequest) -> Reply:
        session = self._live_session(request.session)
        if session is None:
            return ErrorReply(request.id, protocol.E_UNKNOWN_SESSION,
                              f"unknown session {request.session!r}")
        if request.seq is not None:
            # Exactly-once folding under retries: ``seq`` is the 0-based
            # observation index the client believes it is sending.  A
            # duplicate of the last folded reference (a reply lost in a
            # connection reset) gets the cached advice back without
            # advancing the session; any other gap is unrecoverable here
            # and the client must cold-restart from its journal.
            expected = session.observations
            last = session.last_advice
            if (
                request.seq == expected - 1
                and last is not None
                and last.block == request.block
            ):
                self.metrics.duplicates_served += 1
                return ObserveReply(id=request.id, session=request.session,
                                    advice=last)
            if request.seq != expected:
                return ErrorReply(
                    request.id, protocol.E_SEQ,
                    f"seq {request.seq} does not match session period "
                    f"{expected}",
                )
        trace_id = self._traces.get(request.session) if self.tracer else None
        if trace_id is not None:
            t0 = time.perf_counter()
            advice = session.observe(request.block)
            self.tracer.record(
                trace_id, "worker.predictor_step",
                t0, time.perf_counter() - t0,
                session=request.session, period=advice.period,
            )
        else:
            advice = session.observe(request.block)
        cap = self.overload.prefetch_cap
        if cap is not None and len(advice.prefetch) > cap:
            # Brownout tier >= 1: serve the head of the batch (the
            # cost-benefit rule orders it most-valuable-first), shedding
            # the speculative tail.  The session's own modelled state is
            # untouched — only the reported batch shrinks.
            advice = replace(advice, prefetch=advice.prefetch[:cap])
        self.metrics.record_advice(advice.outcome, len(advice.prefetch))
        self.sessions.move_to_end(request.session)
        self._observes_since_budget_check += 1
        if self._observes_since_budget_check >= _BUDGET_CHECK_INTERVAL:
            self._observes_since_budget_check = 0
            self.enforce_memory_budget(keep=request.session)
        return ObserveReply(id=request.id, session=request.session,
                            advice=advice)

    def _handle_stats(self, request: StatsRequest) -> Reply:
        if request.session is None:
            # Server-level snapshot: identity + full metrics state.  This
            # doubles as a supervisor liveness probe and as the feed a
            # fleet gateway merges into fleet totals (``metrics_state`` is
            # the lossless form; ``metrics`` the human summary).
            if request.format is not None and request.format != "prometheus":
                return ErrorReply(
                    request.id, protocol.E_BAD_REQUEST,
                    f"unknown stats format {request.format!r} "
                    "(only 'prometheus' is defined)",
                )
            stats: Dict[str, Any] = {
                "server": "repro.service",
                "worker": self.identity,
                "protocol": protocol.PROTOCOL_VERSION,
                "proto_version": protocol.PROTOCOL_VERSION,
                "uptime_s": round(time.monotonic() - self.started_at, 3),
                "pid": os.getpid(),
                "live_sessions": self.metrics.live_sessions,
                "model_bytes": self.accounted_model_bytes(),
                "memory_budget_bytes": self.memory_budget_bytes,
                "evicted_sessions": len(self.evicted),
                "brownout_level": self.overload.level,
                "inflight": self.overload.inflight,
                "metrics": self.metrics.as_dict(),
                "metrics_state": self.metrics.to_state(),
            }
            if self.tenancy is not None:
                stats["tenants"] = self.tenancy.gauges(self.sessions)
            if request.format == "prometheus":
                stats["exposition"] = self._render_exposition(stats)
            return StatsReply(id=request.id, session="", stats=stats)
        if request.format is not None:
            return ErrorReply(
                request.id, protocol.E_BAD_REQUEST,
                "stats 'format' applies only to server-level snapshots",
            )
        session = self._live_session(request.session)
        if session is None:
            return ErrorReply(request.id, protocol.E_UNKNOWN_SESSION,
                              f"unknown session {request.session!r}")
        return StatsReply(id=request.id, session=request.session,
                          stats=session.stats_snapshot())

    def _render_exposition(self, stats: Dict[str, Any]) -> str:
        """Prometheus text format over this server's own metrics state."""
        from repro.obs.prom import render_exposition

        gauges = [
            ("brownout_level", None, stats["brownout_level"]),
            ("inflight", None, stats["inflight"]),
            ("live_sessions", None, stats["live_sessions"]),
            ("model_bytes", None, stats["model_bytes"]),
            ("evicted_sessions", None, stats["evicted_sessions"]),
            ("uptime_s", None, stats["uptime_s"]),
        ]
        if stats["memory_budget_bytes"] is not None:
            gauges.append(
                ("memory_budget_bytes", None, stats["memory_budget_bytes"])
            )
        for tenant, tenant_gauges in sorted(stats.get("tenants", {}).items()):
            gauges.append(
                ("tenant_sessions", {"tenant": tenant},
                 tenant_gauges.get("sessions", 0))
            )
            gauges.append(
                ("tenant_model_bytes", {"tenant": tenant},
                 tenant_gauges.get("model_bytes", 0))
            )
        return render_exposition(stats["metrics_state"], gauges=gauges)

    def _handle_close(self, request: CloseRequest, owned: Set[str]) -> Reply:
        session = self._live_session(request.session)
        if session is None:
            return ErrorReply(request.id, protocol.E_UNKNOWN_SESSION,
                              f"unknown session {request.session!r}")
        self.sessions.pop(request.session, None)
        owned.discard(request.session)
        self._traces.pop(request.session, None)
        if self.tenancy is not None:
            tenant = self.tenancy.tenant_of(request.session)
            if tenant is not None:
                self.metrics.record_tenant(tenant, "sessions_closed")
            self.tenancy.unbind(request.session)
        stats = session.close()
        self.metrics.sessions_closed += 1
        self._delete_checkpoint(request.session)
        return CloseReply(id=request.id, session=request.session, stats=stats)

    def _delete_checkpoint(self, session_id: str) -> None:
        """GC ``<checkpoint-dir>/<id>.snap`` after a clean CLOSE.

        A closed session can never be resumed, so its checkpoint is dead
        weight; without this, long-running servers accumulate one orphan
        file per session forever.  Detached/evicted sessions keep their
        snapshots — those are still resumable.
        """
        if self.checkpoint_dir is None:
            return
        try:
            os.unlink(os.path.join(self.checkpoint_dir, f"{session_id}.snap"))
        except OSError:
            return  # never checkpointed (common) or already gone
        self.metrics.checkpoints_deleted += 1

    def _resolve_params(
        self, overrides: Optional[Dict[str, float]]
    ) -> SystemParams:
        if not overrides:
            return self.default_params
        unknown = set(overrides) - _PARAM_FIELDS
        if unknown:
            raise ValueError(
                f"unknown system parameter(s): {', '.join(sorted(unknown))}"
            )
        cleaned = {
            key: (int(value) if key == "block_size" else float(value))
            for key, value in overrides.items()
        }
        return replace(self.default_params, **cleaned)

    # --------------------------------------------------------- checkpoints

    def _snapshot(
        self, session_id: str, session: PrefetchSession, **flags: bool
    ) -> Snapshot:
        """Snapshot ``session``; the provenance names it, its period and
        the tenant it is bound to."""
        provenance: Dict[str, Any] = {
            "session": session_id, "period": session.observations, **flags,
        }
        tenant = (
            self.tenancy.tenant_of(session_id)
            if self.tenancy is not None else None
        )
        if tenant is not None:
            provenance["tenant"] = tenant
        return snapshot_session(session, provenance=provenance)

    def _restore(self, snapshot: Snapshot) -> PrefetchSession:
        """Restore a detached, evicted or checkpointed session, rebinding
        a tenant overlay to its shared base."""
        return restore_session(
            snapshot,
            max_observations=self.limits.max_observations_per_session,
            model_factory=(
                self.tenancy.model_factory if self.tenancy is not None
                else None
            ),
        )

    def snapshot_live_sessions(self) -> List[Tuple[str, Snapshot]]:
        """Snapshot every live session *in memory* (no disk I/O).

        Runs on the event loop thread so each snapshot is internally
        consistent; the returned list can then be written out off-loop via
        :meth:`write_checkpoints` without blocking request handling.
        """
        snaps: List[Tuple[str, Snapshot]] = []
        for session_id, session in list(self.sessions.items()):
            try:
                snapshot = self._snapshot(session_id, session)
            except SnapshotError:
                continue  # closed under us between list() and here
            snaps.append((session_id, snapshot))
        return snaps

    def write_checkpoints(
        self, snaps: List[Tuple[str, Snapshot]], directory: str
    ) -> int:
        """Write pre-taken snapshots to ``directory/<id>.snap``; returns count.

        Each file is a full ``session``-kind snapshot (atomic write-then-
        rename), so a crashed server can be resumed decision-identically
        with ``OPEN resume=<id>`` against the same checkpoint directory, or
        with ``OPEN model=...`` after importing the file into a store.
        Safe to call from a worker thread: it touches only its arguments
        and the metrics counter.
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        written = 0
        for session_id, snapshot in snaps:
            write_snapshot(
                snapshot, os.path.join(directory, f"{session_id}.snap")
            )
            written += 1
        self.metrics.checkpoints_written += written
        return written

    def checkpoint_sessions(self, directory: str) -> int:
        """Snapshot and write every live session synchronously.

        Convenience composition of :meth:`snapshot_live_sessions` +
        :meth:`write_checkpoints` for callers outside the event loop
        (tests, the CLI on shutdown).  Inside the loop, split the two so
        the disk writes happen in a worker thread.
        """
        return self.write_checkpoints(self.snapshot_live_sessions(), directory)

    def drop_connection_sessions(self, owned: Set[str]) -> None:
        """Tear down sessions whose connection vanished without CLOSE.

        Sessions that already folded observations are first snapshotted
        into the LRU-bounded detached table, so the client can reconnect
        and ``OPEN resume=<id>`` decision-identically instead of replaying
        its whole journal.
        """
        for session_id in owned:
            session = self.sessions.pop(session_id, None)
            self._traces.pop(session_id, None)
            if session is None:
                # A budget-evicted session dies with its connection; the
                # checkpoint stays on disk for an explicit resume.
                if session_id in self.evicted:
                    del self.evicted[session_id]
                    self.metrics.sessions_closed += 1
                continue
            if not session.closed and session.observations > 0:
                self.detached[session_id] = self._snapshot(
                    session_id, session, detached=True
                )
                self.metrics.sessions_detached += 1
                while len(self.detached) > self.limits.max_detached_sessions:
                    self.detached.popitem(last=False)
            if self.tenancy is not None:
                tenant = self.tenancy.tenant_of(session_id)
                if tenant is not None:
                    self.metrics.record_tenant(tenant, "sessions_closed")
                self.tenancy.unbind(session_id)
            session.close()
            self.metrics.sessions_closed += 1
        owned.clear()


def wait_port_ready(
    host: str, port: int, *, timeout: float = 10.0, interval: float = 0.02
) -> None:
    """Block until ``host:port`` accepts a TCP connection.

    Polls with bounded ECONNREFUSED retries, closing each probe
    connection immediately — the server sees a zero-length connection,
    which the NDJSON handler treats as a clean EOF.  Raises
    ``TimeoutError`` if the port never opens.  This is the startup-race
    fix: anything that starts a server out-of-process (worker spawn) or
    on another thread must call this (or ``BackgroundServer.wait_ready``)
    before connecting, instead of sleeping and hoping.
    """
    deadline = time.monotonic() + timeout
    last_error: Optional[OSError] = None
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=interval + 1.0):
                return
        except OSError as exc:
            last_error = exc
            time.sleep(interval)
    raise TimeoutError(
        f"{host}:{port} not accepting connections after {timeout}s "
        f"(last error: {last_error})"
    )


async def drain_service(
    service: PrefetchService,
    *,
    checkpoint_dir: Optional[str] = None,
) -> int:
    """Gracefully wind a service down; returns sessions checkpointed.

    Drain order matters: stop accepting first (close the listener), then
    snapshot every live session *on the loop* so each snapshot is
    consistent, then write the snapshots to disk in a worker thread, and
    only then sever the remaining client connections.  In-flight replies
    already queued on a transport still flush as the connections close.
    With no checkpoint directory the sessions cannot be persisted, but the
    listener and connections are still shut down cleanly.
    """
    service.endpoint.close()
    directory = (
        checkpoint_dir if checkpoint_dir is not None else service.checkpoint_dir
    )
    drained = 0
    snaps = service.snapshot_live_sessions()
    if snaps and directory is not None:
        drained = await asyncio.to_thread(
            service.write_checkpoints, snaps, directory
        )
    service.metrics.drained_sessions += len(snaps)
    await service.aclose()
    return drained


async def serve_forever(
    host: str = "127.0.0.1",
    port: int = 7199,
    *,
    service: Optional[PrefetchService] = None,
    ready_message: bool = True,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every_s: Optional[float] = None,
) -> None:
    """Run a service until cancelled (the ``python -m repro serve`` core).

    With both ``checkpoint_dir`` and ``checkpoint_every_s`` set, a
    background task periodically snapshots every live session to disk.
    """
    service = service if service is not None else PrefetchService()
    if checkpoint_dir is not None and service.checkpoint_dir is None:
        service.checkpoint_dir = checkpoint_dir
    await service.endpoint.start(host, port)
    if ready_message:
        print(f"repro.service listening on {host}:{service.endpoint.port} "
              f"(protocol v{protocol.PROTOCOL_VERSION})", flush=True)

    async def _checkpoint_loop() -> None:
        while True:
            # Brownout tier >= 3 widens the interval: checkpoint I/O is
            # deferrable work, and deferring it is cheaper than shedding.
            await asyncio.sleep(
                service.overload.checkpoint_interval(checkpoint_every_s)
            )
            snaps = service.snapshot_live_sessions()
            if not snaps:
                continue
            try:
                count = await asyncio.to_thread(
                    service.write_checkpoints, snaps, checkpoint_dir
                )
            except OSError as exc:
                print(f"checkpoint to {checkpoint_dir} failed: {exc}",
                      flush=True)
                continue
            if ready_message and count:
                print(f"checkpointed {count} session(s) to {checkpoint_dir}",
                      flush=True)

    checkpointer: Optional[asyncio.Task] = None
    if checkpoint_dir is not None and checkpoint_every_s is not None:
        checkpointer = asyncio.ensure_future(_checkpoint_loop())

    def _on_brownout(level: int, lag_s: float) -> None:
        service.metrics.brownout_transitions += 1
        if ready_message:
            print(
                f"brownout: level={level} ({TIER_NAMES[level]}) "
                f"lag_ms={lag_s * 1000.0:.1f}",
                flush=True,
            )

    watchdog_task: Optional[asyncio.Task] = None
    if service.overload.policy.brownout:
        watchdog = LoopLagWatchdog(
            service.overload, on_transition=_on_brownout
        )
        watchdog_task = asyncio.ensure_future(watchdog.run())

    drain_requested = asyncio.Event()
    loop = asyncio.get_running_loop()
    sigterm_installed = False
    try:
        loop.add_signal_handler(signal.SIGTERM, drain_requested.set)
        sigterm_installed = True
    except (NotImplementedError, RuntimeError):
        pass  # non-main thread or platform without signal support

    try:
        await drain_requested.wait()
        count = await drain_service(service, checkpoint_dir=checkpoint_dir)
        if ready_message:
            print(f"SIGTERM: drained {count} session(s); exiting",
                  flush=True)
    finally:
        for task in (checkpointer, watchdog_task):
            if task is not None:
                task.cancel()
        if sigterm_installed:
            loop.remove_signal_handler(signal.SIGTERM)
        await service.aclose()


class BackgroundServer:
    """A live server on a daemon thread — for tests, benchmarks, examples.

    ::

        with BackgroundServer() as server:
            client = ServiceClient.connect(port=server.port)
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        service: Optional[PrefetchService] = None,
    ) -> None:
        self.host = host
        self.service = service if service is not None else PrefetchService()
        self._requested_port = port
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            raise self._startup_error
        if self.port is None:
            raise RuntimeError("server failed to start within 10 s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        endpoint = self.service.endpoint
        try:
            loop.run_until_complete(
                endpoint.start(self.host, self._requested_port)
            )
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self.port = endpoint.port
        self._started.set()
        try:
            loop.run_forever()
        finally:
            # Connection handlers end while the loop still runs, so none
            # is left to be destroyed mid-await when it closes.
            loop.run_until_complete(self.service.aclose())
            loop.close()

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        thread = self._thread
        if thread is not None:
            thread.join(timeout=10.0)
            if thread.is_alive():
                # A silently leaked daemon thread keeps the port bound and
                # hides the hang from the caller; fail loudly instead.
                raise RuntimeError(
                    "repro-service thread did not stop within 10 s; "
                    "the event loop is wedged (port still bound)"
                )
        self._thread = None
        self._loop = None

    def wait_ready(self, timeout: float = 10.0) -> "BackgroundServer":
        """Block until the server accepts connections; returns self.

        ``start()`` already waits for the bind, but the accept loop runs
        on the daemon thread's event loop — a test that connects in the
        same instant can still race it (and a server freshly restarted on
        a fixed port can race the old socket's teardown).  Polling the
        port with :func:`wait_port_ready` closes that window.
        """
        if self.port is None:
            raise RuntimeError("server is not started")
        wait_port_ready(self.host, self.port, timeout=timeout)
        return self

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.service.metrics.as_dict()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

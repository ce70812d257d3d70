"""Protocol-v3 gateway: one client-facing endpoint, N workers behind it.

Clients speak the ordinary advisory protocol to the gateway — same
OPEN/OBSERVE/STATS/CLOSE lines, same replies — and never learn the fleet
exists.  Per request the gateway:

* assigns every OPEN a globally unique session id (``g1``, ``g2``, ...)
  and pins it to the worker owning that id on the consistent-hash
  :class:`~repro.cluster.ring.HashRing`;
* forwards the request down a pipelined per-worker link, injecting the
  session id into OPEN (so worker session == checkpoint file == the id
  the client sees) and a ``seq`` tag into OBSERVE (so a replayed or
  retried fold is detected worker-side), and relays the worker's reply
  line to the client verbatim — advice bytes are untouched, which is
  what makes gateway-vs-bare-server parity exact;
* journals every acknowledged OBSERVE per session.

The journal is what buys transparent failover for *plain* clients, not
just :class:`~repro.service.client.ResilientAsyncClient`, and both run
the same routine (:func:`~repro.service.client.recover_session`): when
a worker dies, each of its sessions is re-opened on the ring successor
with ``OPEN resume=<id>`` against the shared checkpoint directory, and
the journal tail past the checkpoint is replayed with ``seq`` tags (the
worker's duplicate detection absorbs an observation that was folded
right before the crash).  When nothing can be resumed and the journal
starts at seq 0, the original OPEN is re-sent and the whole journal
replayed — an exact rebuild, allowed only when every model name the
OPEN resolves through is pinned as ``NAME@VERSION``.  Otherwise the
session is *lost*, surfaced as an error on its next use; it is never
served from another model version.  Journals grow with session length
(one int per observation); bounded-memory operation comes from clients
closing sessions and from compaction against durable checkpoints.

Client connections run on the same connection core as a worker
(:class:`~repro.service.lineserver.LineServer`, the gateway's
``endpoint``): one request at a time per client connection.  Per-session
locks serialize cross-connection access and failover.  Every OBSERVE is
relayed by callbacks alone (:meth:`AdvisoryGateway._relay`): forwarded
as soon as its session's lock is its own (a busy session hands the lock
over, oldest waiter first) and answered from the worker link's
``data_received``.  It continues as a coroutine only to connect a link
that is down or fail fast on a breaker that is not closed, to fail over
after a late, garbage or ``unknown_session`` reply, and to compact the
journal.  OPEN, STATS and CLOSE run as coroutines.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import os
import time
from collections import OrderedDict, deque
from dataclasses import asdict, dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Awaitable,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Tracer
    from repro.tenancy.config import TenancyConfig

from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.worker import WorkerDirectory
from repro.service import protocol
from repro.service.client import (
    ReplyCallback,
    ResumeParityError,
    ServiceError,
    Upstream,
    recover_session,
)
from repro.service.lineserver import Connection, LineServer
from repro.service.metrics import _COUNTER_FIELDS, ServiceMetrics
from repro.service.overload import (
    AdmissionGuard,
    BreakerPolicy,
    CircuitBreaker,
    OverloadPolicy,
)
from repro.service.protocol import (
    CloseReply,
    ErrorReply,
    HelloReply,
    ObserveReply,
    ObserveRequest,
    OpenReply,
    OpenRequest,
    ProtocolError,
    Reply,
    Request,
    StatsReply,
    StatsRequest,
)
from repro.store.codec import SnapshotError, read_snapshot


class SessionLost(Exception):
    """Failover exhausted every option; the session state is gone."""


@dataclass
class GatewayStats:
    """What the gateway did, for the fleet summary and fleet STATS."""

    connections_opened: int = 0
    connections_closed: int = 0
    sessions_opened: int = 0
    sessions_resumed: int = 0
    sessions_reattached: int = 0
    sessions_closed: int = 0
    sessions_orphaned: int = 0
    failovers_resumed: int = 0
    failovers_rebuilt: int = 0
    sessions_lost: int = 0
    tenants_rejected: int = 0
    errors: int = 0
    timeouts: int = 0
    overload_rejections: int = 0
    breakers_opened: int = 0
    breakers_closed: int = 0
    journal_compactions: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _unknown_session(request: Request) -> ErrorReply:
    return ErrorReply(
        request.id, protocol.E_UNKNOWN_SESSION,
        f"unknown session {request.session!r}",  # type: ignore[union-attr]
    )


def _reply_object(line: bytes) -> Dict[str, Any]:
    """A worker's reply line as its JSON object: all the relay reads of
    it is ``ok`` and ``cmd``."""
    reply = json.loads(line)
    if type(reply) is not dict:
        raise ValueError("a reply must be a JSON object")
    return reply


class _WorkerLink:
    """The gateway's pipelined connection to one worker.

    Requests from many client connections share one
    :class:`~repro.service.client.Upstream`, which matches replies to
    requests FIFO, gives each reply ``timeout_s`` and tears the
    connection down, failing every request in flight with
    ``ConnectionError`` (or ``TimeoutError``), once the stream cannot be
    trusted to line up; the gateway turns that into failover.  The link
    keeps the connection while it lives and connects anew for the next
    request once it is gone.
    """

    def __init__(
        self,
        worker_id: str,
        resolve,
        *,
        timeout_s: float = 30.0,
        limit: int = protocol.MAX_LINE_BYTES,
    ) -> None:
        self.worker_id = worker_id
        self._resolve = resolve
        self._timeout_s = timeout_s
        self._limit = limit
        self._upstream: Optional[Upstream] = None
        self._connecting = asyncio.Lock()

    @property
    def connected(self) -> bool:
        return self._upstream is not None and not self._upstream.lost

    async def _connect(self) -> Upstream:
        endpoint = self._resolve()
        if endpoint is None:
            raise ConnectionError(f"worker {self.worker_id} is down")
        try:
            return await Upstream.connect(
                *endpoint, _reply_object, timeout_s=self._timeout_s,
                name=f"worker {self.worker_id}", limit=self._limit,
            )
        except (ProtocolError, ServiceError, asyncio.TimeoutError) as exc:
            raise ConnectionError(
                f"worker {self.worker_id}: handshake failed ({exc!r})"
            ) from None

    def invalidate(self) -> None:
        """Drop the connection (worker restarted or went down)."""
        if self._upstream is not None:
            self._upstream.close()

    async def request(self, line: bytes) -> bytes:
        """Send one NDJSON line; return the matching reply line."""
        if not self.connected:
            async with self._connecting:
                if not self.connected:
                    self._upstream = await self._connect()
        reply, _ = await self._upstream.request(line)
        return reply

    def relay(self, line: bytes, relay: ReplyCallback) -> None:
        """Send one NDJSON line on the connected link; its reply goes to
        ``relay`` from ``data_received``."""
        self._upstream.send(line, relay)

    async def aclose(self) -> None:
        self.invalidate()


class _SessionLock:
    """A session's mutual exclusion, handed from holder to holder.

    :meth:`acquire` runs its callback once the lock is the caller's: at
    once when it is free, else from the :meth:`release` that hands it
    over, oldest waiter first.  So an OBSERVE holds its session across a
    relay without awaiting, and one that finds the session busy waits
    without a task.  ``async with`` queues a coroutine the same way.
    """

    __slots__ = ("_held", "_waiters")

    def __init__(self) -> None:
        self._held = False
        self._waiters: Deque[Callable[[], None]] = deque()

    def acquire(self, then: Callable[[], None]) -> None:
        if self._held:
            self._waiters.append(then)
            return
        self._held = True
        then()

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft()()  # still held, by that waiter now
        else:
            self._held = False

    async def __aenter__(self) -> None:
        waiter = asyncio.get_running_loop().create_future()

        def wake() -> None:
            if waiter.done():
                self.release()  # cancelled while waiting: pass it on
            else:
                waiter.set_result(None)

        self.acquire(wake)
        try:
            await waiter
        except asyncio.CancelledError:
            if not waiter.cancelled():
                self.release()  # handed over as we were cancelled
            raise

    async def __aexit__(self, *exc_info: Any) -> None:
        self.release()


class _GatewaySession:
    """Gateway-side record of one routed session."""

    __slots__ = (
        "sid", "worker_id", "open_request", "opened", "journal",
        "journal_offset", "compact_mark", "orphaned", "closed", "lock",
        "tenant", "trace",
    )

    def __init__(
        self,
        sid: str,
        worker_id: str,
        open_request: OpenRequest,
        reply: OpenReply,
    ) -> None:
        self.sid = sid
        self.worker_id = worker_id
        #: The OPEN forwarded to the worker; a session adopted through
        #: ``OPEN resume`` keeps its ``resume`` field, and cannot rebuild.
        self.open_request = open_request
        #: The worker's reply to it (policy, cache size, ``degraded``):
        #: a reattach answers from this record.
        self.opened = reply
        self.tenant = open_request.tenant
        #: ``journal[i]`` is the block folded at seq ``journal_offset+i``.
        #: ``journal_offset`` is the session period when the gateway
        #: first saw it (0 unless resumed from an earlier life).
        self.journal: List[int] = []
        self.journal_offset = reply.period
        #: Journal length after the last compaction attempt: the next
        #: waits until the journal has grown by the bound again.
        self.compact_mark = 0
        self.orphaned = False
        self.closed = False
        #: Trace id riding the session's OPEN (None when unsampled); the
        #: failover resume reuses ``open_request`` verbatim, so lineage
        #: survives worker moves for free.
        self.trace: Optional[str] = open_request.trace
        self.lock = _SessionLock()

    @property
    def next_seq(self) -> int:
        return self.journal_offset + len(self.journal)


class AdvisoryGateway:
    """The fleet's client-facing server (see module docstring).

    ::

        directory = StaticWorkerDirectory()           # or WorkerSupervisor
        directory.register("w0", "127.0.0.1", port0)
        gateway = AdvisoryGateway(directory)
        await gateway.endpoint.start(port=0)
        ...
        await gateway.aclose()
    """

    def __init__(
        self,
        directory: WorkerDirectory,
        *,
        vnodes: int = DEFAULT_VNODES,
        request_timeout_s: float = 30.0,
        idle_timeout_s: Optional[float] = 300.0,
        max_line_bytes: int = protocol.MAX_LINE_BYTES,
        max_orphaned: int = 64,
        on_route=None,
        tenant_config: Optional["TenancyConfig"] = None,
        tenant_poll_interval_s: float = 5.0,
        overload: Optional[OverloadPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        breaker_clock=time.monotonic,
        checkpoint_dir: Optional[str] = None,
        journal_compact_after: int = 4096,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.directory = directory
        self.ring = HashRing(directory.endpoints(), vnodes=vnodes)
        self.stats = GatewayStats()
        self.tracer = tracer
        """Span recorder for the gateway stages (admission, ring lookup,
        journal append, worker RPC, reply relay).  The gateway is the
        head-based sampler: it mints a deterministic trace id per OPEN,
        keeps it iff sampled, and injects it into the forwarded OPEN so
        the worker's spans join the same trace.  ``None`` = one falsy
        check per request."""
        self.started_at = time.monotonic()
        self.tenant_config = tenant_config
        """Fleet-wide tenant quotas; the same config's per-tenant limits are
        also enforced per worker, but the gateway sees the whole fleet and
        rejects before placement (see :meth:`_admit_tenant`)."""
        self.tenant_poll_interval_s = tenant_poll_interval_s
        #: TTL cache of summed per-tenant model-byte gauges from worker
        #: STATS, so byte quotas don't cost a fleet poll per OPEN.
        self._tenant_bytes_cache: Tuple[float, Dict[str, int]] = (
            float("-inf"), {},
        )
        self.overload = AdmissionGuard(overload)
        """Fleet-front admission: the gateway sheds new OPENs before they
        reach any worker, so a flood costs one gateway-side refusal rather
        than a placement round trip."""
        self.breaker_policy = breaker or BreakerPolicy()
        self._breaker_clock = breaker_clock
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.checkpoint_dir = checkpoint_dir
        """Shared checkpoint directory, when known.  Lets the gateway read
        snapshot provenance and drop journal entries a durable checkpoint
        already covers (see :meth:`_compact_journal`)."""
        self.journal_compact_after = journal_compact_after
        self.request_timeout_s = request_timeout_s
        self.max_line_bytes = max_line_bytes
        self.max_orphaned = max_orphaned
        self.on_route = on_route
        self.sessions: Dict[str, _GatewaySession] = {}
        self._orphans: "OrderedDict[str, None]" = OrderedDict()
        self._links: Dict[str, _WorkerLink] = {}
        self._ids = itertools.count(1)
        self._background: Set[asyncio.Task] = set()
        self.endpoint = LineServer(
            self._respond, self._orphan_sessions,
            name="gateway",
            hello=HelloReply(id=0, server="repro.gateway"),
            guard=self.overload,
            counters=self.stats,
            idle_timeout_s=idle_timeout_s,
            drain_timeout_s=request_timeout_s,
            max_line_bytes=max_line_bytes,
        )
        """The client-facing TCP endpoint (not listening until
        ``await gateway.endpoint.start(host, port)``)."""
        directory.add_listener(self._on_membership)

    # -------------------------------------------------------------- wiring

    def _link(self, worker_id: str) -> _WorkerLink:
        link = self._links.get(worker_id)
        if link is None:
            link = self._links[worker_id] = _WorkerLink(
                worker_id,
                lambda wid=worker_id: self.directory.endpoints().get(wid),
                timeout_s=self.request_timeout_s,
                limit=self.max_line_bytes,
            )
        return link

    def _breaker(self, worker_id: str) -> CircuitBreaker:
        breaker = self._breakers.get(worker_id)
        if breaker is None:
            breaker = self._breakers[worker_id] = CircuitBreaker(
                self.breaker_policy, clock=self._breaker_clock,
            )
        return breaker

    def _tripped(self) -> Set[str]:
        """Workers whose breaker is open and still cooling down.

        Used to keep *placement* (new OPENs, unknown-sid resumes) off a
        worker that just proved sick; existing traffic still reaches the
        half-open probe path through :meth:`_worker_call`.
        """
        return {
            worker_id
            for worker_id, breaker in self._breakers.items()
            if breaker.blocked
        }

    def _account(self, worker_id: str, ok: bool) -> None:
        """The breaker's tally of one round trip to ``worker_id``: a
        healthy reply closes it again, a failure counts toward tripping."""
        breaker = self._breaker(worker_id)
        if ok:
            if breaker.record_success():
                self.stats.breakers_closed += 1
            return
        if not breaker.record_failure():
            return
        self.stats.breakers_opened += 1
        # The breaker just tripped: every session pinned to this worker
        # would now fail fast, so move them to ring successors eagerly —
        # the same treatment a directory down-event gets.
        self._fail_over_all(worker_id)

    async def _worker_call(
        self, worker_id: str, request: Request
    ) -> Tuple[bytes, Reply]:
        """One breaker-guarded typed round trip to ``worker_id``.

        Every gateway-to-worker RPC funnels through here: the breaker
        fails fast while open, counts connect/timeout/garbage failures,
        and closes again on the first healthy reply.  Failures surface as
        ``ConnectionError`` so existing failover paths apply unchanged.
        """
        if not self._breaker(worker_id).allow():
            raise ConnectionError(
                f"worker {worker_id}: circuit open (cooling down)"
            )
        link = self._link(worker_id)
        outcome: Union[bytes, Exception]
        try:
            outcome = await link.request(protocol.encode_request(request))
        except (ConnectionError, OSError) as exc:
            outcome = exc
        return outcome, self._settle(worker_id, outcome)  # type: ignore

    def _settle(
        self, worker_id: str, outcome: Union[bytes, Exception]
    ) -> Reply:
        """Decode one round trip's reply line, or raise its link error,
        with the breaker's accounting.  A line that does not decode
        also tears the link down: the FIFO can no longer be trusted."""
        if isinstance(outcome, Exception):
            self._account(worker_id, False)
            raise outcome
        try:
            reply = protocol.decode_reply(outcome)
        except ProtocolError:
            self._link(worker_id).invalidate()
            self._account(worker_id, False)
            raise ConnectionError(
                f"worker {worker_id} sent an undecodable reply"
            ) from None
        self._account(worker_id, True)
        return reply

    def _spawn(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    def _on_membership(self, worker_id: str, up: bool) -> None:
        link = self._links.get(worker_id)
        if link is not None:
            link.invalidate()  # old socket points at the old process
        if up:
            self.ring.add(worker_id)
            return
        self.ring.remove(worker_id)
        # Eager failover: don't wait for the next client request to
        # discover the death — move the dead worker's sessions now.
        self._fail_over_all(worker_id)

    def _fail_over_all(self, worker_id: str) -> None:
        for session in list(self.sessions.values()):
            if session.worker_id == worker_id and not session.closed:
                self._spawn(self._failover_task(session, worker_id))

    async def _failover_task(
        self, session: _GatewaySession, dead_worker: str
    ) -> None:
        async with session.lock:
            if session.worker_id != dead_worker or session.closed:
                return  # an inline failover beat us to it
            try:
                await self._failover(session, exclude={dead_worker})
            except SessionLost:
                pass  # already accounted; surfaces on next client use

    # ------------------------------------------------------------ lifecycle

    async def aclose(self) -> None:
        # Client connections first: their teardown orphans sessions and
        # may spawn the background closes cancelled next.
        await self.endpoint.aclose()
        for task in list(self._background):
            task.cancel()
        if self._background:
            await asyncio.gather(*self._background, return_exceptions=True)
        for link in self._links.values():
            await link.aclose()
        self._links.clear()
        if self.tracer is not None:
            self.tracer.close()

    # ------------------------------------------------------------ upstream

    async def _forward(
        self,
        session: _GatewaySession,
        request: Request,
        first: Union[bytes, Exception, None] = None,
    ) -> Tuple[bytes, Reply]:
        """Forward on the session's worker, failing over once if it died.

        ``first`` is the outcome of an attempt already made (the OBSERVE
        relay's reply line or link error), settled here instead of
        sending the request again.
        """
        worker_id = session.worker_id
        try:
            if first is None:
                raw, reply = await self._worker_call(worker_id, request)
            else:
                raw, reply = first, self._settle(worker_id, first)
        except (ConnectionError, OSError):
            await self._failover(session, exclude={worker_id})
            return await self._worker_call(session.worker_id, request)
        if (
            isinstance(reply, ErrorReply)
            and reply.error == protocol.E_UNKNOWN_SESSION
        ):
            # The worker no longer has it: a link reset detached the
            # session worker-side, or the worker restarted.  Its state
            # is in the worker's detached table or the shared checkpoint
            # dir, so failover (NOT excluding the current worker) can
            # resume it in place.
            await self._failover(session, exclude=set())
            return await self._worker_call(session.worker_id, request)
        return raw, reply

    async def _recovery_rpc(self, worker_id: str, request: Request) -> Reply:
        """:meth:`_worker_call` for :func:`recover_session`: the reply
        alone, with an OPEN that finds the session still live retried
        once."""
        _, reply = await self._worker_call(worker_id, request)
        if (
            isinstance(reply, ErrorReply)
            and reply.error == protocol.E_SESSION_ERROR
            and "already exists" in reply.message
        ):
            # The session is live on this worker but our link reset
            # hasn't detached it yet; give the worker a beat to notice,
            # then retry once.
            await asyncio.sleep(0.05)
            _, reply = await self._worker_call(worker_id, request)
        return reply

    def _rebuildable(self, request: OpenRequest) -> bool:
        """Whether re-sending ``request`` rebuilds the very same session.

        Only when every registry name it resolves through is pinned as
        ``NAME@VERSION`` (a bare name always means the latest version, so
        a rebuild could start from a newer model), and only for an OPEN
        this gateway placed: a session adopted by resume has none.
        """
        if request.resume is not None:
            return False
        if request.tenant is None:
            return request.model is None or "@" in request.model
        config = self.tenant_config
        spec = config.spec(request.tenant) if config is not None else None
        return spec is not None and "@" in spec.model

    async def _failover(
        self, session: _GatewaySession, *, exclude: Set[str]
    ) -> None:
        """Move ``session`` to a live worker; caller holds its lock.

        Tries each remaining ring node in succession order with
        :func:`recover_session`: ``OPEN resume`` (checkpoint / detached
        state) or, where :meth:`_rebuildable` allows, the original OPEN
        again, then the journal past the restored period.  Both are
        decision-identical.  A transport failure or a refusal moves on to
        the next node.  Raises :class:`SessionLost` when no node can take
        the session; the session is then removed and counted.
        """
        sid = session.sid
        prior_worker = session.worker_id
        started_s = time.perf_counter()
        rebuild = self._rebuildable(session.open_request)
        for worker_id in self.ring.preference(sid, exclude=exclude):
            try:
                reply = await recover_session(
                    functools.partial(self._recovery_rpc, worker_id),
                    session.open_request, session.journal, resume=sid,
                    offset=session.journal_offset, rebuild=rebuild,
                )
            except (ConnectionError, OSError):
                continue  # this candidate is down too: keep walking
            except ResumeParityError:
                break  # restored state outside our journal: a gap
            if not isinstance(reply, OpenReply):
                continue  # refused here (limits, no state): try the next
            session.worker_id = worker_id
            if reply.resumed or not session.journal:
                self.stats.failovers_resumed += 1
            else:
                self.stats.failovers_rebuilt += 1
            self._trace_failover(session, started_s, prior_worker)
            # Note the resume period is NOT compaction evidence: it may
            # come from a worker's in-memory detached table, not a
            # durable checkpoint, and truncating to it would leave a
            # journal gap on the next failover.  Only _compact_journal
            # (which reads the snapshot file itself) may advance
            # journal_offset.
            return
        self.stats.sessions_lost += 1
        session.closed = True
        self.sessions.pop(sid, None)
        self._orphans.pop(sid, None)
        raise SessionLost(f"session {sid} lost: no resumable state")

    def _trace_failover(
        self, session: _GatewaySession, started_s: float, prior: str
    ) -> None:
        """Record that a sampled session survived a worker move.

        ``failover=1`` lets trace tooling count lineage breaks; the span
        rides the session's original trace id, which the resume carried
        over in ``open_request``."""
        if self.tracer is None or session.trace is None:
            return
        self.tracer.record(
            session.trace, "gateway.failover",
            started_s, time.perf_counter() - started_s,
            session=session.sid, failover=1,
            from_worker=prior, to_worker=session.worker_id,
        )

    def _truncate_journal(
        self, session: _GatewaySession, period: int
    ) -> None:
        """Drop journal entries below ``period``; caller proved that a
        checkpoint at ``period`` is durable on the shared directory."""
        if not session.journal_offset < period <= session.next_seq:
            return
        del session.journal[: period - session.journal_offset]
        session.journal_offset = period
        self.stats.journal_compactions += 1

    async def _compact_journal(self, session: _GatewaySession) -> None:
        """Bound journal memory against the worker's own checkpoints.

        The failover contract is that entries at or below the latest
        *durably written* checkpoint period are never replayed (resume
        restores them from the snapshot), so once the shared checkpoint
        file reports period P the prefix below P is dead weight.  Reading
        the snapshot header is file I/O, hence ``to_thread``; a missing,
        stale, or corrupt snapshot simply means no compaction yet, and
        the next attempt waits until the journal has grown by
        ``journal_compact_after`` entries again (see :meth:`_journal`).
        Caller holds the session lock, so the offset cannot race a
        failover replay.
        """
        if self.checkpoint_dir is None:
            return
        path = os.path.join(self.checkpoint_dir, f"{session.sid}.snap")

        def _checkpoint_period() -> Optional[int]:
            try:
                provenance = read_snapshot(path).provenance
            except (OSError, SnapshotError):
                return None
            period = provenance.get("period")
            return int(period) if period is not None else None

        period = await asyncio.to_thread(_checkpoint_period)
        if period is not None:
            self._truncate_journal(session, period)
        session.compact_mark = len(session.journal)

    # ------------------------------------------------------------- handlers

    async def _admit_tenant(
        self, request: OpenRequest
    ) -> Optional[ErrorReply]:
        """Fleet-wide tenant admission; ``None`` means admitted.

        Session quotas count this gateway's live sessions per tenant;
        byte quotas sum the per-tenant model-byte gauges from worker
        STATS (TTL-cached, see :meth:`_tenant_bytes`).  Workers enforce
        the same limits per worker, so a client talking straight to a
        worker is still bounded — the gateway check is the one that sees
        the whole fleet.
        """
        spec = self.tenant_config.spec(request.tenant)
        if spec is None:
            known = ", ".join(sorted(self.tenant_config.tenants)) or "(none)"
            return ErrorReply(
                request.id, protocol.E_BAD_REQUEST,
                f"unknown tenant {request.tenant!r} (configured: {known})",
            )
        if spec.max_sessions is not None:
            live = sum(
                1 for s in self.sessions.values()
                if s.tenant == request.tenant and not s.closed
            )
            if live >= spec.max_sessions:
                self.stats.tenants_rejected += 1
                return ErrorReply(
                    request.id, protocol.E_QUOTA,
                    f"tenant {request.tenant!r}: fleet session quota "
                    f"reached ({spec.max_sessions})",
                    retry_after_s=spec.retry_after_s,
                )
        if spec.max_model_bytes is not None:
            used = (await self._tenant_bytes()).get(request.tenant, 0)
            if used >= spec.max_model_bytes:
                self.stats.tenants_rejected += 1
                return ErrorReply(
                    request.id, protocol.E_QUOTA,
                    f"tenant {request.tenant!r}: model-byte quota reached "
                    f"({used} >= {spec.max_model_bytes})",
                    retry_after_s=spec.retry_after_s,
                )
        return None

    async def _tenant_bytes(self) -> Dict[str, int]:
        """Fleet-summed per-tenant model bytes, ``tenant_poll_interval_s``
        stale at worst — quota enforcement tolerates that lag in exchange
        for not polling every worker on every OPEN."""
        now = time.monotonic()
        stamp, cached = self._tenant_bytes_cache
        if now - stamp < self.tenant_poll_interval_s:
            return cached
        totals: Dict[str, int] = {}
        _, _, worker_stats = await self._collect_worker_stats()
        for stats in worker_stats.values():
            for name, gauge in dict(stats.get("tenants") or {}).items():
                totals[name] = (
                    totals.get(name, 0) + int(gauge.get("model_bytes", 0))
                )
        self._tenant_bytes_cache = (now, totals)
        return totals

    def _trace_for_open(
        self, request: OpenRequest, sid: str
    ) -> Optional[str]:
        """Trace id for the session named ``sid``, or ``None`` (unsampled).

        A client-supplied id is adopted verbatim — the client already made
        the sampling decision.  Otherwise the gateway mints a deterministic
        id from the session id it just assigned, so a resume of the same
        session re-derives the same id and failover lineage is free.
        """
        if self.tracer is None:
            return None
        if request.trace is not None:
            return request.trace
        trace_id = self.tracer.new_trace_id(sid)
        return trace_id if self.tracer.sampled(trace_id) else None

    async def _handle_open(
        self, request: OpenRequest, owned: Set[str]
    ) -> Tuple[Optional[bytes], Reply]:
        if request.tenant is not None and self.tenant_config is not None:
            rejection = await self._admit_tenant(request)
            if rejection is not None:
                return None, rejection
        if request.resume is not None:
            return await self._handle_resume(request, owned)
        if request.session_id is not None:
            # Fleet-internal field: the gateway names sessions, clients
            # don't.  Rejecting (rather than silently overriding) keeps
            # behavior aligned with a bare server, which validates it.
            return None, ErrorReply(
                request.id, protocol.E_BAD_REQUEST,
                "session_id is reserved for gateway-to-worker use",
            )
        sid = f"g{next(self._ids)}"
        trace_id = self._trace_for_open(request, sid)
        t0 = time.perf_counter() if trace_id is not None else 0.0
        worker_id = self.ring.owner(sid, exclude=self._tripped())
        if trace_id is not None:
            self.tracer.record(
                trace_id, "gateway.ring_lookup",
                t0, time.perf_counter() - t0,
                session=sid, worker=worker_id,
            )
        if worker_id is None:
            return None, ErrorReply(
                request.id, protocol.E_LIMIT, "no live workers"
            )
        forward = replace(request, session_id=sid, trace=trace_id)
        try:
            raw, reply = await self._worker_call(worker_id, forward)
        except (ConnectionError, OSError):
            # Worker died under the OPEN: no session state exists yet
            # anywhere, so just place it on the next node instead.
            worker_id = self.ring.owner(
                sid, exclude={worker_id} | self._tripped()
            )
            if worker_id is None:
                return None, ErrorReply(
                    request.id, protocol.E_LIMIT, "no live workers"
                )
            raw, reply = await self._worker_call(worker_id, forward)
        if isinstance(reply, OpenReply):
            self._place(sid, worker_id, forward, reply, owned)
            self.stats.sessions_opened += 1
        return raw, reply

    def _place(
        self, sid: str, worker_id: str, forward: OpenRequest,
        reply: OpenReply, owned: Set[str],
    ) -> None:
        """Record a session a worker just opened for a client."""
        self.sessions[sid] = _GatewaySession(sid, worker_id, forward, reply)
        owned.add(sid)
        if self.on_route is not None:
            self.on_route(sid, worker_id)

    async def _handle_resume(
        self, request: OpenRequest, owned: Set[str]
    ) -> Tuple[Optional[bytes], Reply]:
        sid = request.resume
        session = self.sessions.get(sid)
        if session is not None:
            if not session.orphaned:
                return None, ErrorReply(
                    request.id, protocol.E_SESSION_ERROR,
                    f"session {sid!r} is already attached",
                )
            # Reattach: the session is alive and current on its worker;
            # no round trip needed, the gateway answers from its record.
            session.orphaned = False
            self._orphans.pop(sid, None)
            owned.add(sid)
            self.stats.sessions_reattached += 1
            return None, replace(
                session.opened, id=request.id, period=session.next_seq,
                resumed=True,
            )
        # Unknown to this gateway: let the ring owner try its detached
        # table / the shared checkpoint directory.
        worker_id = self.ring.owner(sid)
        if worker_id is None:
            return None, ErrorReply(
                request.id, protocol.E_LIMIT, "no live workers"
            )
        # A resume re-derives the same deterministic trace id the session
        # was minted with, so its spans join the original trace.
        forward = replace(
            request, session_id=sid,
            trace=self._trace_for_open(request, sid),
        )
        raw, reply = await self._worker_call(worker_id, forward)
        if isinstance(reply, OpenReply):
            self._place(sid, worker_id, forward, reply, owned)
            self.stats.sessions_resumed += 1
        return raw, reply

    @staticmethod
    def _tag(
        session: _GatewaySession, request: ObserveRequest
    ) -> Tuple[ObserveRequest, int]:
        """The OBSERVE to forward and the seq it must fold at.

        A request without ``seq`` is tagged with the session's next one,
        so a failover replay (or a worker that already folded it before
        dying) is detected, not double-counted.
        """
        expected = session.next_seq
        if request.seq is None:
            request = ObserveRequest(
                request.id, request.session, request.block, expected
            )
        return request, expected

    def _journal(
        self,
        session: _GatewaySession,
        forward: ObserveRequest,
        expected: int,
        trace_id: Optional[str],
    ) -> bool:
        """Journal an acknowledged OBSERVE, unless the worker answered a
        duplicate from its cache; True when the journal is due for
        :meth:`_compact_journal`: it has grown by ``journal_compact_after``
        entries since the last attempt."""
        if forward.seq != expected:
            return False
        t0 = time.perf_counter() if trace_id is not None else 0.0
        session.journal.append(forward.block)
        if trace_id is not None:
            self.tracer.record(
                trace_id, "gateway.journal_append",
                t0, time.perf_counter() - t0, session=session.sid,
            )
        return (
            self.checkpoint_dir is not None
            and len(session.journal) - session.compact_mark
            >= self.journal_compact_after
        )

    async def fleet_metrics(
        self,
    ) -> Tuple[ServiceMetrics, Dict[str, Any]]:
        """Merge every worker's metrics: ``(fleet totals, per-worker)``.

        Unreachable workers appear with ``None`` in the per-worker map.
        Public so the fleet runner can fold worker counters (evictions,
        tenant rejections) into its shutdown summary.
        """
        fleet, per_worker, _ = await self._collect_worker_stats()
        return fleet, per_worker

    async def _collect_worker_stats(
        self,
    ) -> Tuple[ServiceMetrics, Dict[str, Any], Dict[str, Any]]:
        """One STATS poll of every worker.

        Returns ``(merged fleet metrics, per-worker metric dicts, raw
        per-worker stats replies)``; the raw replies carry the gauges
        (brownout level, inflight, live sessions) that the Prometheus
        exposition labels per worker.
        """
        fleet = ServiceMetrics()
        per_worker: Dict[str, Any] = {}
        worker_stats: Dict[str, Any] = {}
        for worker_id in sorted(self.directory.endpoints()):
            try:
                _, reply = await self._worker_call(
                    worker_id, StatsRequest(id=0, session=None)
                )
            except (ConnectionError, OSError):
                per_worker[worker_id] = None
                continue
            if not isinstance(reply, StatsReply):
                per_worker[worker_id] = None
                continue
            worker_stats[worker_id] = reply.stats
            per_worker[worker_id] = reply.stats.get("metrics")
            state = reply.stats.get("metrics_state")
            if state:
                fleet.merge(ServiceMetrics.from_state(state))
        return fleet, per_worker, worker_stats

    async def _fleet_stats(self, request: StatsRequest) -> Reply:
        """Aggregate every worker's metrics into fleet totals."""
        if request.format is not None and request.format != "prometheus":
            return ErrorReply(
                request.id, protocol.E_BAD_REQUEST,
                f"unknown stats format {request.format!r} "
                "(only 'prometheus' is defined)",
            )
        fleet, per_worker, worker_stats = await self._collect_worker_stats()
        stats: Dict[str, Any] = {
            "server": "repro.gateway",
            "protocol": protocol.PROTOCOL_VERSION,
            "proto_version": protocol.PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "pid": os.getpid(),
            "workers": len(per_worker),
            "fleet": fleet.as_dict(),
            "per_worker": per_worker,
            "gateway": self.stats.as_dict(),
        }
        if request.format == "prometheus":
            stats["exposition"] = self._render_exposition(
                fleet.to_state(), worker_stats
            )
        return StatsReply(id=request.id, session="", stats=stats)

    def _render_exposition(
        self, fleet_state: Dict[str, Any], worker_stats: Dict[str, Any]
    ) -> str:
        """Prometheus text format over the merged fleet state.

        Gateway counters that collide with worker counter names (both
        sides count ``sessions_opened``, ``overload_rejections``, ...)
        get a ``gateway_`` prefix so the fleet-summed family keeps its
        bare name; gateway-only counters such as ``breakers_opened``
        stay bare.
        """
        from repro.obs.prom import render_exposition

        reserved = set(_COUNTER_FIELDS)
        extra: Dict[str, int] = {}
        for name, value in self.stats.as_dict().items():
            key = f"gateway_{name}" if name in reserved else name
            extra[key] = value
        gauges: List[Tuple[str, Optional[Dict[str, str]], Any]] = [
            ("workers_live", None, len(self.directory.endpoints())),
            ("inflight", {"component": "gateway"}, self.overload.inflight),
            ("uptime_s", {"component": "gateway"},
             round(time.monotonic() - self.started_at, 3)),
        ]
        for worker_id, stats in sorted(worker_stats.items()):
            labels = {"worker": worker_id}
            for gauge in ("brownout_level", "inflight", "live_sessions"):
                value = stats.get(gauge)
                if value is not None:
                    gauges.append((gauge, labels, value))
        for worker_id, breaker in sorted(self._breakers.items()):
            gauges.append(
                ("breaker_open", {"worker": worker_id}, int(breaker.blocked))
            )
        return render_exposition(
            fleet_state, extra_counters=extra, gauges=gauges
        )

    async def _handle_session(
        self, request: Request, owned: Set[str]
    ) -> Tuple[Optional[bytes], Reply]:
        """A per-session STATS or a CLOSE, forwarded holding the session."""
        session = self.sessions.get(request.session)  # type: ignore
        if session is None or session.closed:
            return None, _unknown_session(request)
        async with session.lock:
            if session.closed:
                return None, _unknown_session(request)
            raw, reply = await self._forward(session, request)
            if isinstance(reply, CloseReply):
                session.closed = True
                self.sessions.pop(session.sid, None)
                self._orphans.pop(session.sid, None)
                owned.discard(session.sid)
                self.stats.sessions_closed += 1
            return raw, reply

    async def _dispatch(
        self, request: Request, owned: Set[str]
    ) -> Tuple[Optional[bytes], Reply]:
        if isinstance(request, OpenRequest):
            return await self._handle_open(request, owned)
        if isinstance(request, StatsRequest) and request.session is None:
            return None, await self._fleet_stats(request)
        return await self._handle_session(request, owned)

    # ----------------------------------------------------------- connection

    def _respond(
        self, request: Request, conn: Connection
    ) -> Optional[bytes]:
        if type(request) is ObserveRequest:
            session = self.sessions.get(request.session)
            if session is None or session.closed:
                return protocol.encode_reply(_unknown_session(request))
            session.lock.acquire(functools.partial(
                self._relay, session, request, conn,
            ))
            return None
        conn.defer(self._answer(
            request, functools.partial(self._dispatch, request, conn.owned),
            admitted=False,
        ))
        return None

    async def _answer(
        self,
        request: Request,
        work: Callable[[], Awaitable[Tuple[Optional[bytes], Reply]]],
        *,
        admitted: bool,
    ) -> bytes:
        """The coroutine path's reply line: the worker's bytes verbatim,
        or the gateway's own reply.  A lost session or an unreachable
        fleet becomes an error reply."""
        t_admit = time.perf_counter() if self.tracer is not None else 0.0
        try:
            raw, reply = await work()
        except SessionLost as exc:
            self.stats.errors += 1
            raw, reply = None, ErrorReply(
                request.id, protocol.E_SESSION_ERROR, str(exc)
            )
        except (ConnectionError, OSError) as exc:
            self.stats.errors += 1
            raw, reply = None, ErrorReply(
                request.id, protocol.E_SESSION_ERROR,
                f"fleet unavailable: {exc}",
            )
        # For an OPEN the trace id only exists after dispatch (the
        # gateway mints it with the session id), so both spans of the
        # client connection resolve it here.
        trace_id = self._request_trace(request, reply)
        if trace_id is not None and not admitted:
            self.tracer.record(trace_id, "gateway.admission", t_admit, 0.0)
        t_relay = time.perf_counter() if trace_id is not None else 0.0
        line = raw if raw is not None else protocol.encode_reply(reply)
        if trace_id is not None:
            self.tracer.record(
                trace_id, "gateway.reply_relay",
                t_relay, time.perf_counter() - t_relay,
            )
        return line

    def _relay(
        self,
        session: _GatewaySession,
        request: ObserveRequest,
        conn: Connection,
    ) -> None:
        """Every OBSERVE, once its session's lock is handed to it:
        forward ``request`` and answer it from the worker link's
        ``data_received``, with no task or future.

        The session stays locked until the reply is relayed
        (:meth:`_relayed`).  A request the link cannot take at once (it
        is down, or its worker's breaker is not closed) goes on as a
        coroutine that connects it or fails fast.
        """
        if session.closed:  # closed or lost while the request waited
            session.lock.release()
            conn.finish(protocol.encode_reply(_unknown_session(request)))
            return
        forward, expected = self._tag(session, request)
        trace_id = session.trace if self.tracer is not None else None
        t0 = 0.0
        if trace_id is not None:
            t0 = time.perf_counter()
            self.tracer.record(trace_id, "gateway.admission", t0, 0.0)
        relayed = functools.partial(
            self._relayed, conn, session, forward, expected, trace_id, t0,
        )
        breaker = self._breakers.get(session.worker_id)
        link = self._links.get(session.worker_id)
        if (
            link is None
            or not link.connected
            or (breaker is not None and breaker.state != "closed")
        ):
            relayed(None, None)
            return
        link.relay(protocol.encode_request(forward), relayed)

    def _relayed(
        self,
        conn: Connection,
        session: _GatewaySession,
        forward: ObserveRequest,
        expected: int,
        trace_id: Optional[str],
        t0: float,
        line: Optional[bytes],
        reply: Any,
    ) -> None:
        """An OBSERVE's reply (``line``, parsed as ``reply``), or the
        link's error (``line`` None; ``reply`` None too when the request
        was never sent).

        A healthy ObserveReply (``ok`` and ``cmd`` are enough) is
        journaled and its bytes written to the client here.  Anything
        else, and a journal due for compaction, continues as a coroutine
        with the session still locked (:meth:`_settle_relay`).
        """
        if line is None or not (
            reply.get("ok") is True and reply.get("cmd") == "observe"
        ):
            conn.defer(self._answer(forward, functools.partial(
                self._settle_relay, session, forward, expected, trace_id, t0,
                reply if line is None else line,
            ), admitted=True))
            return
        t1 = time.perf_counter() if trace_id is not None else 0.0
        self._account(session.worker_id, True)
        if trace_id is not None:
            self.tracer.record(
                trace_id, "gateway.worker_rpc", t0, t1 - t0,
                session=session.sid, worker=session.worker_id,
            )
        if self._journal(session, forward, expected, trace_id):
            conn.defer(self._answer(forward, functools.partial(
                self._settle_relay, session, forward, expected, trace_id, t0,
                line, journaled=True,
            ), admitted=True))
            return
        session.lock.release()
        conn.finish(line)
        if trace_id is not None:
            self.tracer.record(
                trace_id, "gateway.reply_relay",
                t1, time.perf_counter() - t1,
            )

    async def _settle_relay(
        self,
        session: _GatewaySession,
        forward: ObserveRequest,
        expected: int,
        trace_id: Optional[str],
        t0: float,
        outcome: Union[bytes, Exception, None],
        *,
        journaled: bool = False,
    ) -> Tuple[bytes, Reply]:
        """The coroutine half of an OBSERVE, which still holds the session
        lock: send a request the link could not take (``outcome`` None),
        or settle a reply that was not a healthy ObserveReply, failing
        over when it must and journaling the fold; then compact a journal
        that reached its bound."""
        reply = None
        try:
            if not journaled:
                outcome, reply = await self._forward(session, forward, outcome)
                if trace_id is not None:
                    self.tracer.record(
                        trace_id, "gateway.worker_rpc",
                        t0, time.perf_counter() - t0,
                        session=session.sid, worker=session.worker_id,
                    )
                journaled = isinstance(reply, ObserveReply) and self._journal(
                    session, forward, expected, trace_id
                )
            if journaled:
                await self._compact_journal(session)
            return outcome, reply  # type: ignore[return-value]
        finally:
            session.lock.release()

    def _request_trace(
        self, request: Request, reply: Optional[Reply]
    ) -> Optional[str]:
        """Resolve the trace id a finished request belongs to, if any."""
        if self.tracer is None:
            return None
        if isinstance(request, OpenRequest):
            sid = reply.session if isinstance(reply, OpenReply) else None
        else:
            sid = getattr(request, "session", None)
        if not sid:
            return None
        session = self.sessions.get(sid)
        return session.trace if session is not None else None

    def _orphan_sessions(self, owned: Set[str]) -> None:
        """Client vanished without CLOSE: keep its sessions resumable.

        The sessions stay live on their workers (the gateway's upstream
        links are shared, so nothing worker-side noticed the client go);
        the gateway marks them orphaned so a reconnecting client can
        ``OPEN resume=<id>`` and carry on.  The orphan table is LRU
        bounded: overflow is closed on the worker for real.
        """
        for sid in owned:
            session = self.sessions.get(sid)
            if session is None or session.closed:
                continue
            session.orphaned = True
            self._orphans[sid] = None
            self._orphans.move_to_end(sid)
            self.stats.sessions_orphaned += 1
        owned.clear()
        while len(self._orphans) > self.max_orphaned:
            evicted, _ = self._orphans.popitem(last=False)
            session = self.sessions.pop(evicted, None)
            if session is not None and not session.closed:
                self._spawn(self._close_evicted(session))

    async def _close_evicted(self, session: _GatewaySession) -> None:
        async with session.lock:
            if session.closed:
                return
            session.closed = True
            try:
                await self._worker_call(
                    session.worker_id,
                    protocol.CloseRequest(id=0, session=session.sid),
                )
            except (ConnectionError, OSError):
                pass  # its worker will reap it on its own timeout

    # -------------------------------------------------------------- summary

    def summary(self) -> str:
        """One greppable line for CI and the fleet shutdown banner."""
        stats = self.stats
        return (
            f"sessions_opened={stats.sessions_opened} "
            f"sessions_closed={stats.sessions_closed} "
            f"failovers_resumed={stats.failovers_resumed} "
            f"failovers_rebuilt={stats.failovers_rebuilt} "
            f"sessions_lost={stats.sessions_lost} "
            f"tenants_rejected={stats.tenants_rejected} "
            f"overload_rejections={stats.overload_rejections} "
            f"breakers_opened={stats.breakers_opened} "
            f"journal_compactions={stats.journal_compactions}"
        )

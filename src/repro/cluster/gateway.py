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
just :class:`~repro.service.client.ResilientAsyncClient`: when a worker
dies, each of its sessions is re-opened on the ring successor with
``OPEN resume=<id>`` against the shared checkpoint directory, the
journal tail past the checkpoint is replayed with ``seq`` tags (the
worker's duplicate detection absorbs an observation that was folded
right before the crash), and only if no checkpoint exists does the
session degrade to a fresh no-prefetch session rebuilt from the full
journal.  A session is *lost* — surfaced as an error on its next use —
only when even that is impossible.  Journals grow with session length
(one int per observation); bounded-memory operation comes from clients
closing sessions, same as the worker's own session table.

Client connections run on the same connection core as a worker
(:class:`~repro.service.lineserver.LineServer`, the gateway's
``endpoint``): one request at a time per client connection, every reply
drained before the next read.  Per-session locks serialize
cross-connection access and failover.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Tracer
    from repro.tenancy.config import TenancyConfig

from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.worker import WorkerDirectory
from repro.service import protocol
from repro.service.lineserver import LineServer, Send
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
    failovers_degraded: int = 0
    sessions_lost: int = 0
    tenants_rejected: int = 0
    errors: int = 0
    timeouts: int = 0
    overload_rejections: int = 0
    breakers_opened: int = 0
    breakers_closed: int = 0
    journal_compactions: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "connections_opened": self.connections_opened,
            "connections_closed": self.connections_closed,
            "sessions_opened": self.sessions_opened,
            "sessions_resumed": self.sessions_resumed,
            "sessions_reattached": self.sessions_reattached,
            "sessions_closed": self.sessions_closed,
            "sessions_orphaned": self.sessions_orphaned,
            "failovers_resumed": self.failovers_resumed,
            "failovers_degraded": self.failovers_degraded,
            "sessions_lost": self.sessions_lost,
            "tenants_rejected": self.tenants_rejected,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "overload_rejections": self.overload_rejections,
            "breakers_opened": self.breakers_opened,
            "breakers_closed": self.breakers_closed,
            "journal_compactions": self.journal_compactions,
        }


class _Conn:
    """One live upstream socket with its FIFO of reply futures."""

    __slots__ = ("reader", "writer", "pending", "task")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: Deque[asyncio.Future] = deque()
        self.task: Optional[asyncio.Task] = None


class _WorkerLink:
    """Pipelined request/reply multiplexer over one worker connection.

    Requests from many client connections share one upstream socket;
    because the worker answers strictly in order, replies are matched to
    requests FIFO.  That invariant is also the fragility: a reply that
    times out or fails to decode means the stream can no longer be
    trusted to line up, so the *connection is torn down* — never skipped
    past — and every in-flight request fails with ``ConnectionError``,
    which the gateway turns into failover.
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
        self._conn: Optional[_Conn] = None
        self._lock = asyncio.Lock()

    async def _connect(self) -> _Conn:
        endpoint = self._resolve()
        if endpoint is None:
            raise ConnectionError(f"worker {self.worker_id} is down")
        host, port = endpoint
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=self._limit),
            self._timeout_s,
        )
        banner = await asyncio.wait_for(reader.readline(), self._timeout_s)
        if not banner:
            writer.close()
            raise ConnectionError(
                f"worker {self.worker_id} closed during HELLO"
            )
        conn = _Conn(reader, writer)
        conn.task = asyncio.ensure_future(self._read_loop(conn))
        return conn

    async def _read_loop(self, conn: _Conn) -> None:
        try:
            while True:
                line = await conn.reader.readline()
                if not line:
                    break
                if not conn.pending:
                    break  # unsolicited reply: FIFO broken, bail out
                future = conn.pending.popleft()
                if not future.done():
                    future.set_result(line)
        except (OSError, asyncio.LimitOverrunError, ValueError):
            pass
        except asyncio.CancelledError:
            return  # teardown cancelled us; it also fails the pending
        finally:
            self._teardown(conn)

    def _teardown(self, conn: Optional[_Conn]) -> None:
        if conn is None:
            return
        if self._conn is conn:
            self._conn = None
        while conn.pending:
            future = conn.pending.popleft()
            if not future.done():
                future.set_exception(ConnectionError(
                    f"worker {self.worker_id} connection lost"
                ))
        if conn.task is not None and not conn.task.done():
            conn.task.cancel()
        transport = conn.writer.transport
        if transport is not None:
            transport.abort()

    def invalidate(self) -> None:
        """Drop the cached connection (worker restarted or went down)."""
        self._teardown(self._conn)

    async def request(self, line: bytes) -> bytes:
        """Send one NDJSON line; return the matching reply line."""
        async with self._lock:
            # The lock covers connect + enqueue + write, so the pending
            # FIFO order is exactly the on-wire order.  Awaiting the
            # reply happens outside it: requests pipeline.
            conn = self._conn
            if conn is None:
                conn = self._conn = await self._connect()
            future = asyncio.get_running_loop().create_future()
            conn.pending.append(future)
            try:
                conn.writer.write(line)
                await asyncio.wait_for(
                    conn.writer.drain(), self._timeout_s
                )
            except (OSError, asyncio.TimeoutError, TimeoutError):
                self._teardown(conn)
                raise ConnectionError(
                    f"worker {self.worker_id} write failed"
                ) from None
        try:
            return await asyncio.wait_for(future, self._timeout_s)
        except (asyncio.TimeoutError, TimeoutError):
            # A late reply would be matched to the wrong request; the
            # only safe recovery is a fresh connection.
            self._teardown(conn)
            raise ConnectionError(
                f"worker {self.worker_id} timed out"
            ) from None

    async def aclose(self) -> None:
        self.invalidate()


class _GatewaySession:
    """Gateway-side record of one routed session."""

    __slots__ = (
        "sid", "worker_id", "open_request", "policy_name", "cache_size",
        "journal", "journal_offset", "degraded", "orphaned", "closed",
        "lock", "tenant", "trace",
    )

    def __init__(
        self,
        sid: str,
        worker_id: str,
        open_request: OpenRequest,
        policy_name: str,
        cache_size: int,
        journal_offset: int,
    ) -> None:
        self.sid = sid
        self.worker_id = worker_id
        self.open_request = open_request
        self.policy_name = policy_name
        self.cache_size = cache_size
        self.tenant = open_request.tenant
        #: ``journal[i]`` is the block folded at seq ``journal_offset+i``.
        #: ``journal_offset`` is the session period when the gateway
        #: first saw it (0 unless resumed from an earlier life).
        self.journal: List[int] = []
        self.journal_offset = journal_offset
        self.degraded = False
        self.orphaned = False
        self.closed = False
        #: Trace id riding the session's OPEN (None when unsampled); the
        #: failover resume reuses ``open_request`` verbatim, so lineage
        #: survives worker moves for free.
        self.trace: Optional[str] = open_request.trace
        self.lock = asyncio.Lock()

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

    def _record_breaker_failure(
        self, breaker: CircuitBreaker, worker_id: str
    ) -> None:
        if not breaker.record_failure():
            return
        self.stats.breakers_opened += 1
        # The breaker just tripped: every session pinned to this worker
        # would now fail fast, so move them to ring successors eagerly —
        # the same treatment a directory down-event gets.
        for session in list(self.sessions.values()):
            if session.worker_id == worker_id and not session.closed:
                self._spawn(self._failover_task(session, worker_id))

    async def _worker_call(
        self, worker_id: str, request: Request
    ) -> Tuple[bytes, Reply]:
        """One breaker-guarded typed round trip to ``worker_id``.

        Every gateway-to-worker RPC funnels through here: the breaker
        fails fast while open, counts connect/timeout/garbage failures,
        and closes again on the first healthy reply.  Failures surface as
        ``ConnectionError`` so existing failover paths apply unchanged.
        """
        breaker = self._breaker(worker_id)
        if not breaker.allow():
            raise ConnectionError(
                f"worker {worker_id}: circuit open (cooling down)"
            )
        link = self._link(worker_id)
        try:
            raw = await link.request(protocol.encode_request(request))
        except (ConnectionError, OSError):
            self._record_breaker_failure(breaker, worker_id)
            raise
        try:
            reply = protocol.decode_reply(raw)
        except ProtocolError:
            link.invalidate()
            self._record_breaker_failure(breaker, worker_id)
            raise ConnectionError(
                f"worker {worker_id} sent an undecodable reply"
            ) from None
        if breaker.record_success():
            self.stats.breakers_closed += 1
        return raw, reply

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

    async def _rpc(self, link: _WorkerLink, request: Request) -> Reply:
        """Typed round trip on a link; garbage replies kill the link."""
        _, reply = await self._worker_call(link.worker_id, request)
        return reply

    async def _forward(
        self, session: _GatewaySession, request: Request
    ) -> Tuple[bytes, Reply]:
        """Forward on the session's worker, failing over once if it died."""
        try:
            raw, reply = await self._forward_once(session, request)
        except (ConnectionError, OSError):
            failed = session.worker_id
            await self._failover(session, exclude={failed})
            return await self._forward_once(session, request)
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
            return await self._forward_once(session, request)
        return raw, reply

    async def _forward_once(
        self, session: _GatewaySession, request: Request
    ) -> Tuple[bytes, Reply]:
        return await self._worker_call(session.worker_id, request)

    async def _failover(
        self, session: _GatewaySession, *, exclude: Set[str]
    ) -> None:
        """Move ``session`` to a live worker; caller holds its lock.

        Tries each remaining ring node in succession order: first
        ``OPEN resume`` (checkpoint / detached state, decision-identical),
        replaying the journal tail past the restored period; when no
        checkpoint exists anywhere (shared directory, so one worker's
        answer speaks for all), a degraded no-prefetch session is rebuilt
        from the full journal.  Raises :class:`SessionLost` when neither
        is possible; the session is then removed and counted.
        """
        sid = session.sid
        prior_worker = session.worker_id
        started_s = time.perf_counter()
        resume = replace(
            session.open_request, id=0, resume=sid, session_id=sid,
        )
        for worker_id in self.ring.preference(sid, exclude=exclude):
            link = self._link(worker_id)
            try:
                reply = await self._rpc(link, resume)
                if (
                    isinstance(reply, ErrorReply)
                    and reply.error == protocol.E_SESSION_ERROR
                    and "already exists" in reply.message
                ):
                    # The session is live on this worker but our link
                    # reset hasn't detached it yet; give the worker a
                    # beat to notice, then retry once.
                    await asyncio.sleep(0.05)
                    reply = await self._rpc(link, resume)
            except (ConnectionError, OSError):
                continue  # this candidate is down too: keep walking
            if isinstance(reply, OpenReply):
                period = reply.period
                if period < session.journal_offset:
                    break  # checkpoint predates our journal: gap
                if period > session.next_seq + 1:
                    break  # checkpoint from a future we never saw
                if await self._replay_tail(link, session, period):
                    session.worker_id = worker_id
                    self.stats.failovers_resumed += 1
                    self._trace_failover(session, started_s, prior_worker)
                    # Note the resume period is NOT compaction evidence:
                    # it may come from a worker's in-memory detached
                    # table, not a durable checkpoint, and truncating to
                    # it would leave a journal gap on the next failover.
                    # Only _compact_journal (which reads the snapshot
                    # file itself) may advance journal_offset.
                    return
                break
            if (
                isinstance(reply, ErrorReply)
                and reply.error == protocol.E_UNKNOWN_SESSION
                and session.journal_offset == 0
            ):
                # No detached state here and no checkpoint file — and
                # the checkpoint dir is shared, so no other worker would
                # find one either.  Rebuild from the gateway journal.
                resumed_clean = len(session.journal) == 0
                if await self._reopen_degraded(link, session):
                    session.worker_id = worker_id
                    if resumed_clean:
                        self.stats.failovers_resumed += 1
                    else:
                        self.stats.failovers_degraded += 1
                    self._trace_failover(session, started_s, prior_worker)
                    return
                break
            continue  # worker-specific refusal (limits): try the next
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

    async def _replay_tail(
        self, link: _WorkerLink, session: _GatewaySession, period: int
    ) -> bool:
        """Re-fold journal entries past ``period``; False on any miss."""
        start = period - session.journal_offset
        for i in range(max(0, start), len(session.journal)):
            seq = session.journal_offset + i
            try:
                reply = await self._rpc(link, ObserveRequest(
                    id=0, session=session.sid,
                    block=session.journal[i], seq=seq,
                ))
            except (ConnectionError, OSError):
                return False
            if not isinstance(reply, ObserveReply):
                return False
        return True

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
        stale, or corrupt snapshot simply means no compaction yet.
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

    async def _reopen_degraded(
        self, link: _WorkerLink, session: _GatewaySession
    ) -> bool:
        """No checkpoint anywhere: rebuild the session from the journal.

        With an empty journal nothing was ever folded, so re-running the
        original OPEN is a *clean* reopen — same policy, zero loss.  With
        folded history the model state is unrecoverable; a no-prefetch
        session replayed from the journal keeps the session's cache view
        coherent (blocks, seqs) while honestly issuing no advice.
        """
        if session.journal:
            reopen = OpenRequest(
                id=0, policy="no-prefetch",
                cache_size=session.cache_size, session_id=session.sid,
            )
        else:
            reopen = replace(
                session.open_request, id=0, resume=None,
                session_id=session.sid,
            )
        try:
            reply = await self._rpc(link, reopen)
        except (ConnectionError, OSError):
            return False
        if not isinstance(reply, OpenReply):
            return False
        if not await self._replay_tail(link, session, 0):
            return False
        if session.journal:
            session.degraded = True
            session.policy_name = "no-prefetch"
        return True

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
        for worker_id in sorted(self.directory.endpoints()):
            try:
                reply = await self._rpc(
                    self._link(worker_id), StatsRequest(id=0, session=None)
                )
            except (ConnectionError, OSError):
                continue
            if not isinstance(reply, StatsReply):
                continue
            for name, gauge in dict(reply.stats.get("tenants") or {}).items():
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
            raw, reply = await self._forward_on(worker_id, forward)
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
            raw, reply = await self._forward_on(worker_id, forward)
        if isinstance(reply, OpenReply):
            session = _GatewaySession(
                sid, worker_id, forward,
                policy_name=reply.policy, cache_size=reply.cache_size,
                journal_offset=reply.period,
            )
            self.sessions[sid] = session
            owned.add(sid)
            self.stats.sessions_opened += 1
            if self.on_route is not None:
                self.on_route(sid, worker_id)
        return raw, reply

    async def _forward_on(
        self, worker_id: str, request: Request
    ) -> Tuple[bytes, Reply]:
        return await self._worker_call(worker_id, request)

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
            return None, OpenReply(
                id=request.id, session=sid, policy=session.policy_name,
                cache_size=session.cache_size, period=session.next_seq,
                resumed=True, degraded=session.degraded,
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
        raw, reply = await self._forward_on(worker_id, forward)
        if isinstance(reply, OpenReply):
            session = _GatewaySession(
                sid, worker_id, replace(forward, resume=None),
                policy_name=reply.policy, cache_size=reply.cache_size,
                journal_offset=reply.period,
            )
            self.sessions[sid] = session
            owned.add(sid)
            self.stats.sessions_resumed += 1
            if self.on_route is not None:
                self.on_route(sid, worker_id)
        return raw, reply

    async def _handle_observe(
        self, request: ObserveRequest
    ) -> Tuple[Optional[bytes], Reply]:
        session = self.sessions.get(request.session)
        if session is None or session.closed:
            return None, ErrorReply(
                request.id, protocol.E_UNKNOWN_SESSION,
                f"unknown session {request.session!r}",
            )
        async with session.lock:
            if session.closed:
                return None, ErrorReply(
                    request.id, protocol.E_UNKNOWN_SESSION,
                    f"unknown session {request.session!r}",
                )
            expected = session.next_seq
            if request.seq is None:
                # Tag the fold so a failover replay (or a worker that
                # already folded it before dying) is detected, not
                # double-counted.
                forward = replace(request, seq=expected)
            else:
                forward = request
            trace_id = session.trace if self.tracer is not None else None
            t0 = time.perf_counter() if trace_id is not None else 0.0
            raw, reply = await self._forward(session, forward)
            if trace_id is not None:
                self.tracer.record(
                    trace_id, "gateway.worker_rpc",
                    t0, time.perf_counter() - t0,
                    session=session.sid, worker=session.worker_id,
                )
            if isinstance(reply, ObserveReply) and forward.seq == expected:
                t1 = time.perf_counter() if trace_id is not None else 0.0
                session.journal.append(request.block)
                if len(session.journal) >= self.journal_compact_after:
                    await self._compact_journal(session)
                if trace_id is not None:
                    self.tracer.record(
                        trace_id, "gateway.journal_append",
                        t1, time.perf_counter() - t1,
                        session=session.sid,
                    )
            return raw, reply

    async def _handle_stats(
        self, request: StatsRequest
    ) -> Tuple[Optional[bytes], Reply]:
        if request.session is None:
            return None, await self._fleet_stats(request)
        session = self.sessions.get(request.session)
        if session is None or session.closed:
            return None, ErrorReply(
                request.id, protocol.E_UNKNOWN_SESSION,
                f"unknown session {request.session!r}",
            )
        async with session.lock:
            raw, reply = await self._forward(session, request)
            if session.degraded and isinstance(reply, StatsReply):
                # The worker sees an ordinary no-prefetch session; only
                # the gateway knows it is a failover fallback.
                reply = replace(
                    reply, stats=dict(reply.stats, degraded=True)
                )
                raw = None
            return raw, reply

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
                reply = await self._rpc(
                    self._link(worker_id), StatsRequest(id=0, session=None)
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

    async def _handle_close(
        self, request, owned: Set[str]
    ) -> Tuple[Optional[bytes], Reply]:
        session = self.sessions.get(request.session)
        if session is None or session.closed:
            return None, ErrorReply(
                request.id, protocol.E_UNKNOWN_SESSION,
                f"unknown session {request.session!r}",
            )
        async with session.lock:
            if session.closed:
                return None, ErrorReply(
                    request.id, protocol.E_UNKNOWN_SESSION,
                    f"unknown session {request.session!r}",
                )
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
    ) -> Tuple[Optional[bytes], Optional[Reply]]:
        try:
            if isinstance(request, OpenRequest):
                return await self._handle_open(request, owned)
            if isinstance(request, ObserveRequest):
                return await self._handle_observe(request)
            if isinstance(request, StatsRequest):
                return await self._handle_stats(request)
            return await self._handle_close(request, owned)
        except SessionLost as exc:
            self.stats.errors += 1
            return None, ErrorReply(
                request.id, protocol.E_SESSION_ERROR, str(exc)
            )
        except (ConnectionError, OSError) as exc:
            self.stats.errors += 1
            return None, ErrorReply(
                request.id, protocol.E_SESSION_ERROR,
                f"fleet unavailable: {exc}",
            )

    # ----------------------------------------------------------- connection

    async def _respond(
        self, request: Request, owned: Set[str], send: Send
    ) -> None:
        t_admit = time.perf_counter() if self.tracer is not None else 0.0
        raw, reply = await self._dispatch(request, owned)
        # For an OPEN the trace id only exists after dispatch (the
        # gateway mints it with the session id), so both spans of the
        # client connection resolve it here.
        trace_id = self._request_trace(request, reply)
        if trace_id is not None:
            self.tracer.record(trace_id, "gateway.admission", t_admit, 0.0)
        t_relay = time.perf_counter() if trace_id is not None else 0.0
        # A worker's reply goes out byte-for-byte.
        await send(raw if raw is not None else protocol.encode_reply(reply))
        if trace_id is not None:
            self.tracer.record(
                trace_id, "gateway.reply_relay",
                t_relay, time.perf_counter() - t_relay,
            )

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
                await self._rpc(
                    self._link(session.worker_id),
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
            f"failovers_degraded={stats.failovers_degraded} "
            f"sessions_lost={stats.sessions_lost} "
            f"tenants_rejected={stats.tenants_rejected} "
            f"overload_rejections={stats.overload_rejections} "
            f"breakers_opened={stats.breakers_opened} "
            f"journal_compactions={stats.journal_compactions}"
        )

"""Clients for the advisory service: asyncio and blocking-socket flavours.

Both speak the :mod:`repro.service.protocol` NDJSON wire format, validate
the server's HELLO banner (protocol version), auto-number request ids, and
turn ``ok: false`` replies into :class:`ServiceError`.

:class:`AsyncServiceClient` is what the replay load generator uses — many
of them share one event loop.  :class:`ServiceClient` is a plain blocking
wrapper for scripts, examples, and interactive use.
:class:`ResilientAsyncClient` layers a :class:`RetryPolicy` on top:
transparent reconnect with bounded exponential backoff, session resume
from the server's detached table or checkpoint directory, and a journal
replay fallback that re-derives the session from scratch — asserting
bit-identical advice either way.

:class:`Upstream` is the one asyncio connection to a server: the async
clients ride it, and so does the fleet gateway's link to each worker.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import random
import socket
from collections import deque
from dataclasses import dataclass, replace
from typing import (
    Any,
    Awaitable,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

from repro.service import protocol
from repro.service.protocol import (
    CloseReply,
    CloseRequest,
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
from repro.service.session import PrefetchAdvice

R = TypeVar("R", bound=Reply)


class ServiceError(Exception):
    """The server answered with an error reply.

    ``retry_after_s`` carries the server's backoff hint when the reply
    had one (quota and overload rejections); ``None`` otherwise.
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.retry_after_s = retry_after_s


def _expect(reply: Reply, reply_type: Type[R]) -> R:
    if isinstance(reply, ErrorReply):
        raise ServiceError(
            reply.error, reply.message, retry_after_s=reply.retry_after_s
        )
    if not isinstance(reply, reply_type):
        raise ProtocolError(
            f"expected {reply_type.__name__}, got {type(reply).__name__}"
        )
    return reply


def _check_hello(reply: Reply) -> HelloReply:
    hello = _expect(reply, HelloReply)
    if not (
        protocol.MIN_PROTOCOL_VERSION
        <= hello.protocol
        <= protocol.PROTOCOL_VERSION
    ):
        raise ProtocolError(
            f"server speaks protocol v{hello.protocol}, client speaks "
            f"v{protocol.MIN_PROTOCOL_VERSION}..v{protocol.PROTOCOL_VERSION}",
            code=protocol.E_BAD_VERSION,
        )
    return hello


#: A request's continuation on an :class:`Upstream`: ``(reply line, what
#: the connection's ``decode`` made of it)``, or ``(None, error)`` when
#: the connection fails before the reply arrives.
ReplyCallback = Callable[[Optional[bytes], Any], None]


class Upstream(asyncio.Protocol):
    """One NDJSON connection to a server, and its requests in flight.

    The server greets with a HELLO line, checked and kept as ``hello``,
    then answers strictly in order, so replies are matched to requests
    FIFO: each request queues a callback, and ``data_received`` hands it
    the reply line with what ``decode`` made of it.  That order is also
    the fragility.  A reply that is overdue, does not decode or was never
    asked for means the stream can no longer be trusted to line up, so
    the connection is torn down, never skipped past: the oldest request
    fails with the reason, the rest as lost, and so does any request sent
    afterwards.

    Each reply, the HELLO's included, is due ``timeout_s`` after its
    request is sent (``None``: never).  The deadlines ride the FIFO, so
    the oldest is at its head, and one timer per connection enforces them
    (:meth:`_expire`): a request arms no timer of its own.  A server that
    stops reading also stops answering, so the same deadline bounds a
    write it never takes.
    """

    def __init__(
        self,
        name: str,
        decode: Callable[[bytes], Any],
        *,
        timeout_s: Optional[float],
        limit: int = protocol.MAX_LINE_BYTES,
    ) -> None:
        self.name = name
        """Who the server is, in error messages."""
        self._decode = decode
        self._timeout_s = timeout_s
        self._limit = limit
        self.loop = asyncio.get_running_loop()
        self.transport: Optional[asyncio.Transport] = None
        self.hello: Optional[HelloReply] = None
        self.lost = False
        """Torn down: every request sent from now on fails at once."""
        self.closed = self.loop.create_future()
        """Resolved as the transport ends: ``None``, or its error."""
        self._pending: Deque[Tuple[Optional[float], ReplyCallback]] = deque()
        #: The one reply timer, armed while requests are in flight.
        self._timer: Optional[asyncio.TimerHandle] = None
        self._buffer = b""
        self._greeted = self.loop.create_future()
        # The HELLO is the first reply due.
        self.send(None, functools.partial(_settle, self._greeted))

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        decode: Callable[[bytes], Any],
        *,
        timeout_s: Optional[float] = None,
        name: Optional[str] = None,
        limit: int = protocol.MAX_LINE_BYTES,
    ) -> "Upstream":
        """Connect and take the server's HELLO; ``timeout_s`` bounds the
        TCP connect and the HELLO, and then every reply."""
        upstream = cls(
            name or f"{host}:{port}", decode, timeout_s=timeout_s,
            limit=limit,
        )
        try:
            await asyncio.wait_for(upstream.loop.create_connection(
                lambda: upstream, host, port,
            ), timeout_s)
            line, _ = await upstream._greeted
            upstream.hello = _check_hello(protocol.decode_reply(line))
        except BaseException:
            upstream._greeted.cancel()  # unawaited now: never fail it
            upstream.close()
            raise
        return upstream

    # ------------------------------------------------------------ asyncio

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        if self.lost:
            transport.abort()  # gave up while connecting

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer + data if self._buffer else data
        start = 0
        while not self.lost:
            end = buffer.find(b"\n", start)
            if end < 0:
                break
            line = buffer[start:end + 1]
            start = end + 1
            if not self._pending:
                self._teardown(ConnectionError(
                    f"{self.name} sent a reply nobody asked for"
                ))
                return
            try:
                reply = self._decode(line)
            except ProtocolError as exc:  # the codec says what is wrong
                self._teardown(exc)
                return
            except ValueError:
                self._teardown(ConnectionError(
                    f"{self.name} sent an undecodable reply"
                ))
                return
            self._pending.popleft()[1](line, reply)
        self._buffer = buffer = buffer[start:] if start else buffer
        if len(buffer) > self._limit:
            self._teardown(ConnectionError(
                f"{self.name} sent a line over {self._limit} bytes"
            ))

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._teardown(ConnectionError(f"{self.name} connection lost"))
        if not self.closed.done():
            self.closed.set_result(exc)

    # ------------------------------------------------------------ requests

    def send(self, line: Optional[bytes], callback: ReplyCallback) -> None:
        """Write ``line`` and queue ``callback`` for its reply (``line``
        None: write nothing, the next reply is due anyway)."""
        if self.lost:
            callback(None, ConnectionError(f"{self.name} connection lost"))
            return
        deadline = None
        if self._timeout_s is not None:
            deadline = self.loop.time() + self._timeout_s
            if self._timer is None:
                self._timer = self.loop.call_at(deadline, self._expire)
        # Queue and write in one step, so the FIFO order is the wire's.
        self._pending.append((deadline, callback))
        if line is not None:
            self.transport.write(line)

    async def request(self, line: bytes) -> Tuple[bytes, Any]:
        """Send ``line``; return its reply line and what ``decode`` made
        of it."""
        future = self.loop.create_future()
        self.send(line, functools.partial(_settle, future))
        return await future

    def _expire(self) -> None:
        """The reply timer fired: re-arm it at the oldest deadline, or,
        if the oldest request is overdue, tear the connection down.

        A late reply would be matched to the wrong request; the only safe
        recovery is a fresh connection.  An idle connection keeps no
        timer: the next request arms one.
        """
        self._timer = None
        if not self._pending:
            return
        deadline = self._pending[0][0]
        if self.loop.time() < deadline:
            self._timer = self.loop.call_at(deadline, self._expire)
            return
        self._teardown(TimeoutError(
            f"{self.name}: no reply within {self._timeout_s}s"
        ))

    def close(self) -> None:
        """End the connection; requests in flight fail as lost."""
        if self.transport is not None:
            self.transport.close()
        self._teardown(ConnectionError(f"{self.name} connection closed"))

    def _teardown(self, error: Exception) -> None:
        """Drop the connection, failing its oldest request with ``error``
        and the rest as lost."""
        if self.lost:
            return
        self.lost = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self.transport is not None:
            self.transport.abort()  # a no-op once close() has flushed
        while self._pending:
            _, callback = self._pending.popleft()
            callback(None, error)
            error = ConnectionError(f"{self.name} connection lost")


def _settle(future: asyncio.Future, line: Optional[bytes], reply: Any) -> None:
    """The :data:`ReplyCallback` of an awaited request."""
    if future.done():
        return  # its awaiter was cancelled
    if line is None:
        future.set_exception(reply)
    else:
        future.set_result((line, reply))


def _decode_reply(line: bytes) -> Reply:
    # Looked up per call, so a profiler that rebinds the codec sees it.
    return protocol.decode_reply(line)


class AsyncServiceClient:
    """One connection to the service, usable from an event loop."""

    def __init__(self, upstream: Upstream) -> None:
        self._upstream = upstream
        self.hello: HelloReply = upstream.hello  # type: ignore[assignment]
        self._ids = itertools.count(1)

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 7199,
        *,
        timeout: Optional[float] = None,
    ) -> "AsyncServiceClient":
        """Connect and consume the HELLO banner.

        ``timeout`` bounds the handshake (TCP connect + banner) and then
        every reply: a reply that is overdue ends the connection and
        raises ``TimeoutError``, so a listener that accepts but never
        speaks, or a server that stops answering, cannot hang the caller.
        """
        return cls(await Upstream.connect(
            host, port, _decode_reply, timeout_s=timeout,
        ))

    async def roundtrip(self, request: Request) -> Reply:
        """Send one request and read its reply; error replies come back
        as values, a lost connection raises ``ConnectionError`` and an
        overdue reply ``TimeoutError``."""
        _, reply = await self._upstream.request(
            protocol.encode_request(request)
        )
        return reply

    async def _rpc(self, request: Request, reply_type: Type[R]) -> R:
        return _expect(await self.roundtrip(request), reply_type)

    async def open_session(
        self,
        *,
        policy: str = "tree",
        cache_size: int = 1024,
        params: Optional[Dict[str, float]] = None,
        policy_kwargs: Optional[Dict[str, Any]] = None,
        model: Optional[str] = None,
        resume: Optional[str] = None,
        tenant: Optional[str] = None,
        trace: Optional[str] = None,
    ) -> OpenReply:
        """Create (or resume) a session; returns the full OPEN reply.

        ``model`` names a registry snapshot (``NAME`` or ``NAME@VERSION``)
        to start the session from; ``resume`` names a previous session id
        to re-open from the server's detached table or checkpoint
        directory.  ``tenant`` opens the session under a configured tenant
        (shared base model, per-tenant quotas); quota rejections surface
        as :class:`ServiceError` with code ``quota_exceeded``.  ``trace``
        rides a client-minted trace id on the OPEN so server-side spans
        join the caller's trace; the reply echoes the id the server bound
        (its own, head-sampled, when the client sent none).  The reply
        carries ``period`` (how many observations the session already
        holds), ``resumed``, and ``degraded``.
        """
        return await self._rpc(
            OpenRequest(
                id=next(self._ids), policy=policy, cache_size=cache_size,
                params=params, policy_kwargs=dict(policy_kwargs or {}),
                model=model, resume=resume, tenant=tenant, trace=trace,
            ),
            OpenReply,
        )

    async def open(self, **kwargs: Any) -> str:
        """Create a session; returns its server-assigned id.

        Same keywords as :meth:`open_session`, which also exposes the
        resume/degraded metadata of the reply.
        """
        return (await self.open_session(**kwargs)).session

    async def observe(
        self, session: str, block: int, *, seq: Optional[int] = None
    ) -> PrefetchAdvice:
        """Fold one reference; ``seq`` (the 0-based observation index)
        arms the server's duplicate detection for at-most-once folding
        under retries."""
        reply = await self._rpc(
            ObserveRequest(id=next(self._ids), session=session, block=block,
                           seq=seq),
            ObserveReply,
        )
        return reply.advice

    async def stats(self, session: str) -> Dict[str, Any]:
        reply = await self._rpc(
            StatsRequest(id=next(self._ids), session=session), StatsReply
        )
        return reply.stats

    async def server_stats(
        self, *, format: Optional[str] = None
    ) -> Dict[str, Any]:
        """Server-level snapshot: worker identity plus full metrics.

        Against a fleet gateway the same call returns fleet totals with a
        ``per_worker`` breakdown.  ``format="prometheus"`` adds an
        ``exposition`` key holding the metrics rendered in Prometheus
        text format.
        """
        reply = await self._rpc(
            StatsRequest(id=next(self._ids), session=None, format=format),
            StatsReply,
        )
        return reply.stats

    async def close_session(self, session: str) -> Dict[str, Any]:
        reply = await self._rpc(
            CloseRequest(id=next(self._ids), session=session), CloseReply
        )
        return reply.stats

    async def aclose(self) -> None:
        self._upstream.close()
        await self._upstream.closed

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()


class ServiceClient:
    """Blocking client over a plain socket (scripts and examples)."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._ids = itertools.count(1)
        self.hello: HelloReply = _check_hello(
            protocol.decode_reply(self._file.readline())
        )

    @classmethod
    def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 7199,
        *,
        timeout: Optional[float] = 30.0,
    ) -> "ServiceClient":
        sock = socket.create_connection((host, port), timeout=timeout)
        # create_connection's timeout guards the connect; re-arm it
        # explicitly so every later recv/send is bounded too — a server
        # that accepts and then hangs must not wedge the caller forever.
        sock.settimeout(timeout)
        return cls(sock)

    def _rpc(self, request: Request, reply_type: Type[R]) -> R:
        try:
            self._file.write(protocol.encode_request(request))
            self._file.flush()
            line = self._file.readline()
        except socket.timeout:
            raise TimeoutError(
                f"no reply to {request.cmd!r} within "
                f"{self._sock.gettimeout()}s"
            ) from None
        if not line:
            raise ConnectionError("server closed the connection")
        return _expect(protocol.decode_reply(line), reply_type)

    def open(
        self,
        *,
        policy: str = "tree",
        cache_size: int = 1024,
        params: Optional[Dict[str, float]] = None,
        policy_kwargs: Optional[Dict[str, Any]] = None,
        model: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> str:
        reply = self._rpc(
            OpenRequest(
                id=next(self._ids), policy=policy, cache_size=cache_size,
                params=params, policy_kwargs=dict(policy_kwargs or {}),
                model=model, tenant=tenant,
            ),
            OpenReply,
        )
        return reply.session

    def observe(self, session: str, block: int) -> PrefetchAdvice:
        reply = self._rpc(
            ObserveRequest(id=next(self._ids), session=session, block=block),
            ObserveReply,
        )
        return reply.advice

    def stats(self, session: str) -> Dict[str, Any]:
        reply = self._rpc(
            StatsRequest(id=next(self._ids), session=session), StatsReply
        )
        return reply.stats

    def server_stats(
        self, *, format: Optional[str] = None
    ) -> Dict[str, Any]:
        """Server-level snapshot (see ``AsyncServiceClient.server_stats``)."""
        reply = self._rpc(
            StatsRequest(id=next(self._ids), session=None, format=format),
            StatsReply,
        )
        return reply.stats

    def close_session(self, session: str) -> Dict[str, Any]:
        reply = self._rpc(
            CloseRequest(id=next(self._ids), session=session), CloseReply
        )
        return reply.stats

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# --------------------------------------------------------------- resilience


class ResumeParityError(Exception):
    """A resumed/replayed session disagreed with the recorded advice.

    This is the one failure retrying cannot fix: the server state is not
    the one our journal was folded into, so continuing would silently
    serve advice from a different history.
    """


async def recover_session(
    rpc: Callable[[Request], Awaitable[Reply]],
    open_request: OpenRequest,
    journal: Sequence[Any],
    *,
    resume: Optional[str],
    offset: int = 0,
    rebuild: bool,
    check: Optional[Callable[[int, PrefetchAdvice], None]] = None,
) -> Optional[Reply]:
    """Bring a session back on a server from its OPEN and its journal.

    ``journal[i]`` is the block folded at seq ``offset + i``.  First
    ``OPEN resume=<resume>`` restores the session from the server's
    detached table or checkpoint directory (the original OPEN is sent
    whole, so tenant and trace ride along).  When there is nothing to
    resume, ``rebuild`` is set and the journal starts at seq 0, the
    original OPEN is sent again instead: session determinism makes a
    full replay exact.  Then every seq the restored session has not
    folded is replayed, and ``check(seq, advice)`` sees each reply.

    ``rpc`` returns error replies as values and raises on transport
    failure, which propagates.  Returns the OPEN reply (``resumed`` says
    which branch ran) or the first refusal, for the caller to handle
    (``None`` if nothing was sent).  Raises :class:`ResumeParityError`
    when the restored period lies outside the journal.
    """
    reply: Optional[Reply] = None
    if resume is not None:
        reply = await rpc(replace(open_request, resume=resume))
    if not isinstance(reply, OpenReply) and rebuild and offset == 0:
        reply = await rpc(open_request)
    if not isinstance(reply, OpenReply):
        return reply
    end = offset + len(journal)
    # period may be end+1: the server folded the in-flight reference
    # before its reply was lost; seq dedups it on the next observe.
    if not offset <= reply.period <= end + 1:
        raise ResumeParityError(
            f"server restored period {reply.period} but the journal "
            f"holds seqs {offset}..{end - 1}"
        )
    for seq in range(reply.period, end):
        replayed = await rpc(ObserveRequest(
            id=0, session=reply.session, block=journal[seq - offset],
            seq=seq,
        ))
        if not isinstance(replayed, ObserveReply):
            return replayed
        if check is not None:
            check(seq, replayed.advice)
    return reply


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter, plus two deadlines.

    ``per_rpc_timeout_s`` bounds each individual attempt (connect,
    handshake, or one request/reply round trip): it is the deadline the
    client's connection enforces (:meth:`AsyncServiceClient.connect`'s
    ``timeout``).  ``overall_deadline_s`` bounds the whole retry loop for
    one logical call, reconnects and backoff sleeps included.  ``seed``
    pins the jitter for reproducible tests; leave ``None`` for real
    deployments.
    """

    max_attempts: int = 5
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.1
    per_rpc_timeout_s: Optional[float] = 10.0
    overall_deadline_s: Optional[float] = 60.0
    seed: Optional[int] = None

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (0-based): ``base * 2**attempt``
        capped at ``max_delay_s``, spread by ``±jitter`` to avoid retry
        stampedes when many clients lose the same server."""
        delay = min(self.base_delay_s * (2.0 ** attempt), self.max_delay_s)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(delay, 0.0)


#: Transport failures worth retrying.  ServiceError is deliberately absent:
#: the server answered, so the connection works and the error is semantic.
#: ProtocolError IS retryable here: an undecodable line means the byte
#: stream is corrupt (truncation, garbage injection), and the fix is the
#: same as for a reset — reconnect and resume.
_RETRYABLE = (ConnectionError, TimeoutError, asyncio.TimeoutError, OSError,
              ProtocolError)

#: Backstop on consecutive E_OVERLOAD waits when the policy has no overall
#: deadline to bound them (overload waits do not consume retry attempts).
_MAX_OVERLOAD_WAITS = 64


class ResilientAsyncClient:
    """One logical advisory session that survives transport failures.

    Wraps :class:`AsyncServiceClient` with a :class:`RetryPolicy` and a
    client-side journal of every folded reference.  On a connection
    failure it reconnects with backoff and re-opens the session in the
    cheapest way that preserves decision parity (:func:`recover_session`):

    1. ``OPEN resume=<old id>`` — the server restores the session from its
       detached table or checkpoint directory; only the journal tail past
       the restored period is replayed.
    2. Cold restart — the original OPEN again and a full journal replay.
       Session determinism makes this exact, just slower.

    Every replayed observation is checked against the advice recorded the
    first time; any mismatch raises :class:`ResumeParityError`.  Duplicate
    folding of the reference that was in flight when the connection died
    is prevented by the protocol-v3 ``seq`` field: the server answers a
    repeat of the last folded observation from cache.

    The journal lives in client memory for the life of the session, which
    is the right trade for replay/benchmark traces; advice objects are
    kept alongside for the parity check.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7199,
        *,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = random.Random(self.retry.seed)
        self._client: Optional[AsyncServiceClient] = None
        #: The OPEN that :meth:`open` built; every recovery re-sends it.
        self._open_request: Optional[OpenRequest] = None
        #: Server id of the session; ``None`` forces the next reconnect
        #: to rebuild instead of resume.
        self._session_id: Optional[str] = None
        self._journal: List[Any] = []
        self._advices: List[PrefetchAdvice] = []
        self.degraded = False
        #: Trace id riding the session's OPENs: the caller's, or the one
        #: the server bound (None = unsampled).  Carried on every resume /
        #: cold restart so the session's spans keep one lineage across
        #: reconnects and gateway failovers.
        self.trace: Optional[str] = None
        # resilience telemetry, summed into the replay report
        self.retries = 0
        self.resumes = 0
        self.cold_restarts = 0
        self.overload_backoffs = 0

    # ------------------------------------------------------------ plumbing

    @property
    def session_id(self) -> Optional[str]:
        return self._session_id

    @property
    def observations(self) -> int:
        return len(self._journal)

    async def _teardown(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            await client.aclose()

    async def _ensure_session(self) -> AsyncServiceClient:
        if self._client is None:
            self._client = await AsyncServiceClient.connect(
                self.host, self.port, timeout=self.retry.per_rpc_timeout_s
            )
            if self._open_request is not None:
                try:
                    await self._reopen(self._client)
                except BaseException:
                    # Keep a connection only once the session is back on
                    # it; the next attempt reconnects and recovers again.
                    await self._teardown()
                    raise
        return self._client

    async def _reopen(self, client: AsyncServiceClient) -> None:
        """Re-establish the logical session on a fresh connection."""

        async def rpc(request: Request) -> Reply:
            reply = await client.roundtrip(
                replace(request, id=next(client._ids))
            )
            if isinstance(reply, OpenReply):
                # Adopt the session before its replay: a reset mid-replay
                # then resumes the partial replay instead of starting over.
                self._session_id = reply.session
                self.trace = reply.trace or self.trace
                self.degraded = self.degraded or reply.degraded
                if reply.resumed:
                    self.resumes += 1
                elif self._journal:
                    self.cold_restarts += 1
            return reply

        def check(seq: int, advice: PrefetchAdvice) -> None:
            if advice != self._advices[seq]:
                raise ResumeParityError(
                    f"replayed observation {seq} "
                    f"(block {self._journal[seq]!r}) returned different "
                    "advice than the original session"
                )

        _expect(await recover_session(
            rpc, replace(self._open_request, trace=self.trace),
            self._journal, resume=self._session_id, rebuild=True,
            check=check,
        ), OpenReply)

    async def _call(self, label: str, fn: Any) -> Any:
        """Run ``await fn(client)`` with reconnect-and-retry semantics."""
        policy = self.retry
        loop = asyncio.get_running_loop()
        started = loop.time()
        last_exc: Optional[BaseException] = None
        attempt = 0
        overload_waits = 0
        while attempt < policy.max_attempts:
            if (
                policy.overall_deadline_s is not None
                and loop.time() - started > policy.overall_deadline_s
            ):
                raise TimeoutError(
                    f"{label}: overall deadline "
                    f"({policy.overall_deadline_s}s) exceeded"
                ) from last_exc
            try:
                return await fn(await self._ensure_session())
            except ResumeParityError:
                raise
            except ServiceError as exc:
                if exc.code == protocol.E_OVERLOAD:
                    # Backoff-not-fault: the server is healthy, just full.
                    # Honor its retry_after_s hint, keep the connection,
                    # and do not consume a retry attempt — only the
                    # overall deadline bounds how long we wait for
                    # admission (with a wait-count backstop when no
                    # deadline is configured).
                    self.overload_backoffs += 1
                    overload_waits += 1
                    if (
                        policy.overall_deadline_s is None
                        and overload_waits >= _MAX_OVERLOAD_WAITS
                    ):
                        raise
                    last_exc = exc
                    delay = exc.retry_after_s
                    if delay is None or delay <= 0:
                        delay = policy.delay_s(
                            min(overload_waits - 1, 8), self._rng
                        )
                    await asyncio.sleep(delay)
                    continue
                if exc.code != protocol.E_SEQ:
                    raise
                # Our idea of the period diverged from the server's (e.g. a
                # stale checkpoint was resumed under our id by someone
                # else).  Rebuild from the journal, which is ground truth.
                last_exc = exc
                self._session_id = None
            except _RETRYABLE as exc:
                last_exc = exc
            self.retries += 1
            await self._teardown()
            await asyncio.sleep(policy.delay_s(attempt, self._rng))
            attempt += 1
        raise ConnectionError(
            f"{label} failed after {policy.max_attempts} attempts"
        ) from last_exc

    # ------------------------------------------------------------- session

    async def open(self, **open_kwargs: Any) -> str:
        """Open the logical session; keywords as
        :meth:`AsyncServiceClient.open_session` (minus ``resume``)."""
        if self._open_request is not None:
            raise ServiceError(
                protocol.E_BAD_REQUEST,
                "ResilientAsyncClient manages a single session; "
                "open() may only be called once",
            )
        open_kwargs["policy_kwargs"] = dict(
            open_kwargs.get("policy_kwargs") or {}
        )
        self._open_request = OpenRequest(id=0, **open_kwargs)
        self.trace = self._open_request.trace

        async def _open(client: AsyncServiceClient) -> str:
            # _ensure_session already opened the session from the stored
            # request; nothing more to send.
            assert self._session_id is not None
            return self._session_id

        return await self._call("open", _open)

    async def observe(self, block: Any) -> PrefetchAdvice:
        """Fold one reference, surviving resets/timeouts in the middle."""
        if self._open_request is None:
            raise ServiceError(protocol.E_BAD_REQUEST,
                               "no session: call open() first")
        seq = len(self._journal)

        async def _observe(client: AsyncServiceClient) -> PrefetchAdvice:
            return await client.observe(self._session_id, block, seq=seq)

        advice = await self._call(f"observe[{seq}]", _observe)
        self._journal.append(block)
        self._advices.append(advice)
        return advice

    async def stats(self) -> Dict[str, Any]:
        async def _stats(client: AsyncServiceClient) -> Dict[str, Any]:
            return await client.stats(self._session_id)

        return await self._call("stats", _stats)

    async def close_session(self) -> Dict[str, Any]:
        async def _close(client: AsyncServiceClient) -> Dict[str, Any]:
            return await client.close_session(self._session_id)

        stats = await self._call("close", _close)
        self._open_request = None
        self._session_id = None
        return stats

    async def aclose(self) -> None:
        await self._teardown()

    async def __aenter__(self) -> "ResilientAsyncClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

"""The NDJSON connection core under ``repro serve`` and the fleet gateway.

Both client-facing endpoints speak the same line protocol over TCP and
must be equally hard to wedge, so everything about a client connection
that does not depend on what a request means lives here, once:

* the listener and its port;
* the HELLO line sent as a connection opens;
* the idle deadline: a connection that stays idle that long is closed,
  counted in ``timeouts``;
* an over-long line: one ``E_BAD_REQUEST`` error line, then a half-close;
  the rest of the client's input is read away until it closes its side
  (or the idle deadline passes), so the close is clean, not a reset;
* one error line per undecodable request, the connection kept;
* an error escaping the decoder or the handler ends only the connection
  whose line raised it, reported to the event loop's exception handler;
* shedding brand-new OPENs with ``E_OVERLOAD`` and ``retry_after_s``;
* the in-flight bracket the admission watermark measures, from decode
  until the reply is handed to the socket;
* the drain bound: a connection whose replies stay unsent that long is
  dropped, counted in ``timeouts``;
* per-connection teardown, and :meth:`LineServer.aclose`, which stops
  accepting, then ends every live connection and awaits its handler.

A connection is an :class:`asyncio.Protocol` (:class:`Connection`), so a
request costs no task, lock or future of the core's own: each line is
decoded, served and answered inside ``data_received``.  Neither bound
costs a timer per request.  The idle deadline is one timer per
connection that checks when the connection last became idle
(:class:`_IdleDeadline`), and the drain bound is armed only while the
transport has paused writing, the one time a reply can be stuck.

What a request *means* belongs to the handler.  ``respond(request,
conn)`` answers one decoded, admitted request: it returns the reply
bytes, written at once, or ``None`` once it has arranged to answer later
through :meth:`Connection.finish` (a callback) or
:meth:`Connection.defer` (a coroutine run as a task).  ``conn.owned`` is
the set of session ids the connection holds, and ``detach(owned)`` runs
once as the connection ends.  Requests on one connection are served in
order: while one is in flight, or while the transport has paused
writing, later lines wait in the connection's buffer, so a slow reader
backpressures its own pipeline, not the whole endpoint.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Optional, Set

from repro.service import protocol
from repro.service.overload import AdmissionGuard
from repro.service.protocol import (
    ErrorReply,
    HelloReply,
    OpenRequest,
    ProtocolError,
    Request,
)

#: Answers one request: its reply bytes, or ``None`` when the handler
#: will answer later through ``conn.finish`` (never from inside this
#: call) or ``conn.defer``.
Respond = Callable[[Request, "Connection"], Optional[bytes]]


class _IdleDeadline:
    """Ends a connection that has stayed idle ``timeout_s`` (``None``:
    never).

    The connection sets ``idle_since`` when it becomes idle and clears it
    while a request is in flight or its replies wait to drain, so a
    request costs two attribute writes and no timer.  The one timer is
    armed when the deadline is made and re-armed only when it fires: at
    the idle connection's deadline, or a full timeout ahead when the
    connection is busy.  Expiry closes the transport, and ``expired``
    says why.
    """

    __slots__ = (
        "idle_since", "expired", "_loop", "_timeout_s", "_transport",
        "_timer",
    )

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        timeout_s: Optional[float],
        transport: asyncio.BaseTransport,
    ) -> None:
        self.idle_since: Optional[float] = loop.time()
        self.expired = False
        self._loop = loop
        self._timeout_s = timeout_s
        self._transport = transport
        self._timer: Optional[asyncio.TimerHandle] = None
        if timeout_s is not None:
            self._timer = loop.call_at(loop.time() + timeout_s, self._fire)

    def _fire(self) -> None:
        now = self._loop.time()
        since = self.idle_since
        if since is None or now - since < self._timeout_s:
            start = now if since is None else since
            self._timer = self._loop.call_at(
                start + self._timeout_s, self._fire
            )
            return
        self._timer = None
        self.expired = True
        # close() would first flush replies the client left unread, and
        # wait for that as long as the client does.
        if self._transport.get_write_buffer_size():
            self._transport.abort()
        else:
            self._transport.close()

    def cancel(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


class Connection(asyncio.Protocol):
    """One client connection of a :class:`LineServer`."""

    def __init__(self, server: "LineServer") -> None:
        self._server = server
        self.owned: Set[str] = set()
        """Session ids this connection holds (the handler's to fill)."""
        self.transport: Optional[asyncio.Transport] = None
        self._loop = server._loop
        self._deadline: Optional[_IdleDeadline] = None
        #: Received bytes not yet served: a partial line, or whole lines
        #: held while a request is in flight or writing is paused.
        self._buffer = b""
        self._busy = False
        self._task: Optional[asyncio.Task] = None
        self._paused = False
        self._drain_timer: Optional[asyncio.TimerHandle] = None
        self._eof = False
        self._discarding = False
        self._lost = False
        self._ended = False

    # ------------------------------------------------------------ asyncio

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        server = self._server
        self.transport = transport  # type: ignore[assignment]
        server._connections.add(self)
        server._counters.connections_opened += 1
        if server._closing:
            transport.abort()
            return
        transport.write(server._hello)  # type: ignore[attr-defined]
        self._deadline = _IdleDeadline(
            self._loop, server._idle_timeout_s, transport
        )

    def data_received(self, data: bytes) -> None:
        if self._discarding:
            return
        self._buffer = self._buffer + data if self._buffer else data
        self._process()

    def eof_received(self) -> bool:
        if self._discarding:
            return False  # the client closed its side: close ours
        self._eof = True
        if self._buffer:
            self._buffer += b"\n"  # a last line without its newline counts
        self._process()
        return True

    def pause_writing(self) -> None:
        self._paused = True
        timeout = self._server._drain_timeout_s
        if timeout is not None:
            self._drain_timer = self._loop.call_later(
                timeout, self._drain_expired
            )

    def resume_writing(self) -> None:
        self._paused = False
        if self._drain_timer is not None:
            self._drain_timer.cancel()
            self._drain_timer = None
        self._process()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._lost = True
        if self._drain_timer is not None:
            self._drain_timer.cancel()
            self._drain_timer = None
        if not self._busy:
            self._end()

    # ------------------------------------------------------------ serving

    def _process(self) -> None:
        """Serve buffered lines in order until a request is in flight,
        writing is paused, or no whole line is left."""
        server = self._server
        limit = server._max_line_bytes
        buffer = self._buffer
        start = 0
        while not (self._busy or self._paused or self._lost):
            end = buffer.find(b"\n", start)
            if end < 0:
                break
            if end - start > limit:
                self._overflow()
                return
            line = buffer[start:end]
            start = end + 1
            self._deadline.idle_since = None
            try:
                self._serve_line(line)
            except Exception as exc:
                self._fail(exc)
                return
        if start:
            buffer = self._buffer = buffer[start:]
        if self._lost or self._discarding:
            return
        transport = self.transport
        if self._busy or self._paused:
            # Hold at most about a line's worth of pipelined input.
            if len(buffer) > limit and transport.is_reading():
                transport.pause_reading()
            return
        if len(buffer) > limit:
            self._overflow()
            return
        if not transport.is_reading():
            transport.resume_reading()
        if self._eof:
            transport.close()
        elif self._deadline.idle_since is None:
            self._deadline.idle_since = self._loop.time()

    def _serve_line(self, line: bytes) -> None:
        server = self._server
        stripped = line.strip()
        if not stripped:
            return
        try:
            request = protocol.decode_request(stripped)
        except ProtocolError as exc:
            server._counters.errors += 1
            self.transport.write(protocol.encode_reply(
                ErrorReply(0, exc.code, str(exc))
            ))
            return
        shed = server.shed_reply(request)
        if shed is not None:
            self.transport.write(protocol.encode_reply(shed))
            return
        guard = server._guard
        guard.begin()
        self._busy = True
        try:
            reply = server._respond(request, self)
        except BaseException:
            self._busy = False
            guard.end()
            raise
        if reply is not None:
            self._busy = False
            self.transport.write(reply)
            guard.end()

    def finish(self, line: bytes) -> None:
        """Answer the request in flight with ``line``, then serve the
        lines held behind it."""
        if not self._busy:
            return  # abandoned by aclose()
        self._busy = False
        self._task = None
        if self._lost:
            self._server._guard.end()
            self._end()
            return
        self.transport.write(line)
        self._server._guard.end()
        self._process()

    def defer(self, reply: Awaitable[bytes]) -> None:
        """Answer the request in flight with the line ``reply`` returns,
        awaited in a task of the endpoint's."""
        if not self._busy:
            reply.close()  # type: ignore[attr-defined]  # abandoned
            return
        task = self._task = asyncio.ensure_future(self._finish_with(reply))
        tasks = self._server._tasks
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    async def _finish_with(self, reply: Awaitable[bytes]) -> None:
        try:
            line = await reply
        except BaseException:
            # No reply to send: drop the connection, as an escaped
            # handler error always has.
            if self._busy:
                self._busy = False
                self._task = None
                self._server._guard.end()
                if self._lost:
                    self._end()
                else:
                    self.transport.abort()
            raise
        self.finish(line)

    def _fail(self, exc: Exception) -> None:
        """Drop this connection after an error serving one of its lines,
        reported as asyncio reports a failed protocol callback.

        The error must not escape: :meth:`finish` serves held lines
        inside whichever callback answered the request in flight (on the
        gateway, the worker link's ``data_received``), and an exception
        raised there would end that connection instead of this one.
        """
        self._buffer = b""
        self._loop.call_exception_handler({
            "message": "error serving a request line",
            "exception": exc,
            "protocol": self,
            "transport": self.transport,
        })
        self.transport.abort()

    def _overflow(self) -> None:
        server = self._server
        server._counters.errors += 1
        self._discarding = True
        self._buffer = b""
        transport = self.transport
        transport.write(protocol.encode_reply(ErrorReply(
            0, protocol.E_BAD_REQUEST, "request line too long",
        )))
        # Framing is lost, but closing with the rest of the line unread
        # makes the kernel reset the connection, which can destroy the
        # error line before the client reads it.  Half-close, and read
        # the input away until the client closes (or the deadline
        # passes).
        transport.write_eof()
        if not transport.is_reading():
            transport.resume_reading()
        self._deadline.idle_since = self._loop.time()

    def _drain_expired(self) -> None:
        # Replies did not drain in time: drop the connection rather than
        # wait for the client to take what it left unread.
        self._drain_timer = None
        self._server._counters.timeouts += 1
        self.transport.abort()

    # ----------------------------------------------------------- teardown

    def _shut(self) -> None:
        """End this connection now (:meth:`LineServer.aclose`)."""
        if self._task is not None:
            self._task.cancel()  # its handler ends the bracket
        elif self._busy:
            # A callback answer is still due: abandon it.
            self._busy = False
            self._server._guard.end()
        transport = self.transport
        if transport.get_write_buffer_size():
            transport.abort()
        else:
            transport.close()
        if self._lost and not self._busy:
            self._end()

    def _end(self) -> None:
        if self._ended:
            return
        self._ended = True
        server = self._server
        server._connections.discard(self)
        counters = server._counters
        deadline = self._deadline
        if deadline is not None:
            deadline.cancel()
            if deadline.expired:
                counters.timeouts += 1
        server._detach(self.owned)
        counters.connections_closed += 1


class LineServer:
    """One listening NDJSON endpoint driving a request handler.

    ``counters`` is the handler's metrics object; the core bumps its
    ``connections_opened``, ``connections_closed``, ``timeouts``,
    ``errors`` and ``overload_rejections``.  ``name`` says who is
    overloaded in a shed reply's message.
    """

    def __init__(
        self,
        respond: Respond,
        detach: Callable[[Set[str]], None],
        *,
        name: str,
        hello: HelloReply,
        guard: AdmissionGuard,
        counters: Any,
        idle_timeout_s: Optional[float],
        drain_timeout_s: Optional[float],
        max_line_bytes: int,
    ) -> None:
        self._respond = respond
        self._detach = detach
        self._name = name
        self._hello = protocol.encode_reply(hello)
        self._guard = guard
        self._counters = counters
        self._idle_timeout_s = idle_timeout_s
        self._drain_timeout_s = drain_timeout_s
        self._max_line_bytes = max_line_bytes
        self.port: Optional[int] = None
        """The bound port, once :meth:`start` has run."""
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[Connection] = set()
        #: Handler tasks of deferred answers (:meth:`Connection.defer`).
        self._tasks: Set[asyncio.Task] = set()
        self._closing = False

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting (``port=0`` picks a free port)."""
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: Connection(self), host, port,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def close(self) -> None:
        """Stop accepting; connections already open are still served."""
        if self._server is not None:
            self._server.close()

    async def aclose(self) -> None:
        """Stop accepting, then end every live connection and await its
        handler, so no handler outlives the event loop."""
        self._closing = True
        self.close()
        while self._connections or self._tasks:
            for conn in list(self._connections):
                conn._shut()
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)
            else:
                await asyncio.sleep(0)  # connection_lost runs next
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    def shed_reply(self, request: Request) -> Optional[ErrorReply]:
        """The load-shedding decision for one decoded request.

        Only brand-new OPENs are sheddable: resumes recover work already
        accepted, and OBSERVE/STATS/CLOSE act on admitted sessions.
        Returns the ``E_OVERLOAD`` reply, with the policy's
        ``retry_after_s`` hint, or ``None`` to admit.  A shed counts as
        an ``overload_rejection``, not an error: backoff, not fault.
        """
        if not isinstance(request, OpenRequest) or request.resume is not None:
            return None
        if not self._guard.shed_open():
            return None
        self._counters.overload_rejections += 1
        retry_after = self._guard.policy.shed_retry_after_s
        return ErrorReply(
            request.id, protocol.E_OVERLOAD,
            f"{self._name} overloaded; retry in {retry_after:g}s",
            retry_after_s=retry_after,
        )

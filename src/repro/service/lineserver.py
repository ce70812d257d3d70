"""The NDJSON connection core under ``repro serve`` and the fleet gateway.

Both client-facing endpoints speak the same line protocol over TCP and
must be equally hard to wedge, so everything about a client connection
that does not depend on what a request means lives here, once:

* the listener and its port;
* the HELLO line sent as a connection opens;
* reads bounded by the idle timeout: a read that waits that long ends
  the connection, counted in ``timeouts``;
* an over-long line: one ``E_BAD_REQUEST`` error line, then a half-close;
  the rest of the client's input is read away until it closes its side
  (or the idle deadline passes), so the close is clean, not a reset;
* one error line per undecodable request, the connection kept;
* shedding brand-new OPENs with ``E_OVERLOAD`` and ``retry_after_s``;
* the in-flight bracket the admission watermark measures, and a drain
  after every reply, bounded by the drain timeout (a stalled reply drops
  the connection, counted in ``timeouts``);
* per-connection teardown, and :meth:`LineServer.aclose`, which stops
  accepting, then cancels and awaits every live connection.

Neither bound costs a timer per request.  The idle deadline is one timer
per connection that checks when the current read started
(:class:`_IdleDeadline`), and a drain can only block when the socket left
bytes unsent, so the drain bound is armed only then (:func:`bounded_drain`,
which the gateway's worker links use too).

What a request *means* belongs to the handler.  ``respond(request,
owned, send)`` answers one decoded, admitted request by awaiting
``send(line)`` with its reply bytes; ``owned`` is the set of session ids
the connection holds, and ``detach(owned)`` runs once as the connection
ends.  Requests on one connection are served in order and every reply
is drained before the next line is read, so a slow reader backpressures
its own pipeline, not the whole endpoint.
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

#: Writes one reply line and waits (boundedly) for it to drain.
Send = Callable[[bytes], Awaitable[None]]
Respond = Callable[[Request, Set[str], Send], Awaitable[None]]


async def bounded_drain(
    writer: asyncio.StreamWriter, timeout_s: Optional[float]
) -> None:
    """``writer.drain()``, raising ``asyncio.TimeoutError`` past
    ``timeout_s``.

    Only a transport holding unsent bytes can pause the writer, so only
    then can a peer that stops reading block the drain, and only then is
    the bound worth a timer (and, before Python 3.12, a task).
    """
    if writer.transport.get_write_buffer_size():
        await asyncio.wait_for(writer.drain(), timeout_s)
    else:
        await writer.drain()


class _IdleDeadline:
    """Ends a connection whose read has waited ``timeout_s`` (``None``:
    never).

    A read sets ``reading_since`` as it starts and clears it when it
    returns, so a request costs two attribute writes and no timer.  The
    one timer is armed when the deadline is made and re-armed only when
    it fires: at the waiting read's deadline, or a full timeout ahead
    when no read waits.  An expired read sees EOF, because the timer
    closes the transport, and ``expired`` says why.
    """

    __slots__ = (
        "reading_since", "expired", "_loop", "_timeout_s", "_transport",
        "_timer",
    )

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        timeout_s: Optional[float],
        transport: asyncio.BaseTransport,
    ) -> None:
        self.reading_since: Optional[float] = None
        self.expired = False
        self._loop = loop
        self._timeout_s = timeout_s
        self._transport = transport
        self._timer: Optional[asyncio.TimerHandle] = None
        if timeout_s is not None:
            self._timer = loop.call_at(loop.time() + timeout_s, self._fire)

    def _fire(self) -> None:
        now = self._loop.time()
        since = self.reading_since
        if since is None or now - since < self._timeout_s:
            start = now if since is None else since
            self._timer = self._loop.call_at(
                start + self._timeout_s, self._fire
            )
            return
        self._timer = None
        self.expired = True
        # close() would first flush replies the client left unread, and
        # the read would wait for that as long as the client does.
        if self._transport.get_write_buffer_size():
            self._transport.abort()
        else:
            self._transport.close()

    def cancel(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


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
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self._closing = False

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting (``port=0`` picks a free port)."""
        self._server = await asyncio.start_server(
            self._accept, host, port, limit=self._max_line_bytes,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def close(self) -> None:
        """Stop accepting; connections already open are still served."""
        if self._server is not None:
            self._server.close()

    async def aclose(self) -> None:
        """Stop accepting, then cancel every live connection and await
        its teardown, so no handler outlives the event loop."""
        # The flag ends a connection before its next read even when its
        # cancel is lost: before Python 3.12, asyncio.wait_for (a bounded
        # drain, a handler's own timeouts) swallows a cancel that lands
        # just as its inner await completes.  A connection whose accept
        # was already under way joins the set late, hence the loop.
        self._closing = True
        self.close()
        while self._connections:
            connections = list(self._connections)
            for task in connections:
                task.cancel()
            await asyncio.gather(*connections, return_exceptions=True)
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

    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Our own task rather than a coroutine callback: asyncio's done
        # callback for those calls task.exception(), which raises on the
        # cancellation aclose() delivers.
        task = asyncio.ensure_future(self._serve(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        counters = self._counters
        counters.connections_opened += 1
        owned: Set[str] = set()
        loop = asyncio.get_running_loop()
        transport = writer.transport
        deadline: Optional[_IdleDeadline] = None

        async def send(line: bytes) -> None:
            # A reader that stops consuming must not wedge this handler.
            writer.write(line)
            await bounded_drain(writer, self._drain_timeout_s)

        try:
            await send(self._hello)
            deadline = _IdleDeadline(loop, self._idle_timeout_s, transport)
            while not self._closing:
                deadline.reading_since = loop.time()
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await send(protocol.encode_reply(ErrorReply(
                        0, protocol.E_BAD_REQUEST, "request line too long",
                    )))
                    counters.errors += 1
                    # Framing is lost, but closing with the rest of the
                    # line unread makes the kernel reset the connection,
                    # which can destroy the error line before the client
                    # reads it.  Half-close, and read the input away
                    # until the client closes (or the deadline passes).
                    writer.write_eof()
                    deadline.reading_since = loop.time()
                    while await reader.read(1 << 16):
                        pass
                    break
                deadline.reading_since = None
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    request = protocol.decode_request(stripped)
                except ProtocolError as exc:
                    counters.errors += 1
                    await send(protocol.encode_reply(
                        ErrorReply(0, exc.code, str(exc))
                    ))
                    continue
                shed = self.shed_reply(request)
                if shed is not None:
                    await send(protocol.encode_reply(shed))
                    continue
                # In flight from decode to drained reply: the interval
                # the admission watermark measures.
                self._guard.begin()
                try:
                    await self._respond(request, owned, send)
                finally:
                    self._guard.end()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except (asyncio.TimeoutError, TimeoutError):
            # A reply did not drain in time: drop the connection rather
            # than wait for the client to take what it left unread.
            counters.timeouts += 1
            transport.abort()
        finally:
            if deadline is not None:
                deadline.cancel()
                if deadline.expired:
                    counters.timeouts += 1
            self._detach(owned)
            counters.connections_closed += 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

"""The NDJSON connection core under ``repro serve`` and the fleet gateway.

Both client-facing endpoints speak the same line protocol over TCP and
must be equally hard to wedge, so everything about a client connection
that does not depend on what a request means lives here, once:

* the listener and its port;
* the HELLO line sent as a connection opens;
* reads bounded by the idle timeout (a silent client is dropped and
  counted in ``timeouts``);
* an over-long line: one ``E_BAD_REQUEST`` error line, then disconnect;
* one error line per undecodable request, the connection kept;
* shedding brand-new OPENs with ``E_OVERLOAD`` and ``retry_after_s``;
* the in-flight bracket the admission watermark measures, and a drain
  bounded by the drain timeout after every reply;
* per-connection teardown, and :meth:`LineServer.aclose`, which stops
  accepting, then cancels and awaits every live connection.

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
        # A cancel can be lost: before Python 3.12, asyncio.wait_for
        # swallows one that lands just as its inner await completes.  The
        # flag then ends that connection before its next read.  A
        # connection whose accept was already under way joins the set
        # late, hence the loop.
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

        async def send(line: bytes) -> None:
            # A reader that stops consuming must not wedge this handler.
            writer.write(line)
            await asyncio.wait_for(writer.drain(), self._drain_timeout_s)

        try:
            await send(self._hello)
            while not self._closing:
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), self._idle_timeout_s
                    )
                except (asyncio.LimitOverrunError, ValueError):
                    await send(protocol.encode_reply(ErrorReply(
                        0, protocol.E_BAD_REQUEST, "request line too long",
                    )))
                    counters.errors += 1
                    break
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
            # An idle read or a bounded drain ran out.
            counters.timeouts += 1
        finally:
            self._detach(owned)
            counters.connections_closed += 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

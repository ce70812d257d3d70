"""Malformed-input fuzz: every garbage line gets one clean error line.

Each case runs against both a bare :class:`PrefetchService` and an
:class:`AdvisoryGateway` fronting one — the gateway speaks the same
protocol and must be exactly as unkillable.  The contract under test:

* a malformed line is answered with a single ``ErrorReply`` line (the
  oversized case may instead close the connection after the error);
* the server never writes a traceback or non-JSON bytes;
* the same connection (or at worst a fresh one) still serves valid
  requests afterwards — no wedged handler, no poisoned state.
"""

import asyncio
import json

import pytest

from repro.cluster import AdvisoryGateway, StaticWorkerDirectory
from repro.service import protocol
from repro.service.server import BackgroundServer, PrefetchService

# (name, payload line, codes acceptable in the error reply)
CASES = [
    ("garbage-text", b"this is not json\n", {protocol.E_BAD_REQUEST}),
    ("binary-noise", b"\x00\xff\xfe\x01\n", {protocol.E_BAD_REQUEST}),
    ("truncated-json", b'{"v": 3, "id": 1, "cmd": "open"\n',
     {protocol.E_BAD_REQUEST}),
    ("json-array", b'[1, 2, 3]\n', {protocol.E_BAD_REQUEST}),
    ("json-scalar", b'42\n', {protocol.E_BAD_REQUEST}),
    ("unknown-command", b'{"v": 3, "id": 1, "cmd": "explode"}\n',
     {protocol.E_BAD_REQUEST}),
    ("bad-version", b'{"v": 99, "id": 1, "cmd": "open"}\n',
     {protocol.E_BAD_VERSION}),
    ("missing-version", b'{"id": 1, "cmd": "open"}\n',
     {protocol.E_BAD_VERSION}),
    ("non-integer-id", b'{"v": 3, "id": "one", "cmd": "open"}\n',
     {protocol.E_BAD_REQUEST}),
    ("observe-sans-block",
     b'{"v": 3, "id": 1, "cmd": "observe", "session": "s1"}\n',
     {protocol.E_BAD_REQUEST}),
    ("open-bad-session-id",
     b'{"v": 3, "id": 1, "cmd": "open", "policy": "no-prefetch",'
     b' "cache_size": 8, "session_id": "../../etc/passwd"}\n',
     {protocol.E_BAD_REQUEST}),
]

OPEN_LINE = (
    b'{"v": 3, "id": 7, "cmd": "open",'
    b' "policy": "no-prefetch", "cache_size": 8}\n'
)


class _Target:
    """A port to fuzz plus the machinery behind it."""

    def __init__(self, flavor):
        self.flavor = flavor
        self.port = None
        self._server = None
        self._gateway = None

    async def __aenter__(self):
        self._server = BackgroundServer(
            service=PrefetchService(identity="w0")
        ).start().wait_ready()
        if self.flavor == "bare":
            self.port = self._server.port
        else:
            directory = StaticWorkerDirectory()
            directory.register("w0", "127.0.0.1", self._server.port)
            self._gateway = AdvisoryGateway(directory, request_timeout_s=5.0)
            await self._gateway.endpoint.start(port=0)
            self.port = self._gateway.endpoint.port
        return self

    async def __aexit__(self, *exc_info):
        if self._gateway is not None:
            await self._gateway.aclose()
        await asyncio.to_thread(self._server.stop)


async def _raw_connect(port):
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=protocol.MAX_LINE_BYTES + 1024
    )
    hello = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
    assert hello["ok"] and hello["cmd"] == "hello"
    return reader, writer


def _assert_clean_error(line, codes):
    """The reply must be one parseable protocol error, not a traceback."""
    assert line, "server closed without replying"
    reply = json.loads(line)  # raises if the server leaked non-JSON
    assert reply["ok"] is False
    assert reply["error"] in codes, reply
    assert "\n" not in reply["message"]
    assert "Traceback" not in reply["message"]


@pytest.mark.parametrize("flavor", ["bare", "gateway"])
@pytest.mark.parametrize(
    "payload,codes", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_malformed_line_gets_one_error_line(flavor, payload, codes):
    async def scenario():
        async with _Target(flavor) as target:
            reader, writer = await _raw_connect(target.port)
            writer.write(payload)
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 5.0)
            _assert_clean_error(line, codes)
            # The same connection is not wedged: a valid OPEN still works.
            writer.write(OPEN_LINE)
            await writer.drain()
            reply = json.loads(
                await asyncio.wait_for(reader.readline(), 5.0)
            )
            assert reply["ok"] and reply["id"] == 7
            writer.close()
            await writer.wait_closed()

    asyncio.run(scenario())


@pytest.mark.parametrize("flavor", ["bare", "gateway"])
def test_oversized_line_errors_then_disconnects(flavor):
    async def scenario():
        async with _Target(flavor) as target:
            reader, writer = await _raw_connect(target.port)
            writer.write(b'{"pad": "' + b"x" * protocol.MAX_LINE_BYTES)
            writer.write(b'"}\n')
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 5.0)
            _assert_clean_error(line, {protocol.E_BAD_REQUEST})
            # Overflow poisons framing, so the server hangs up...
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            await writer.wait_closed()
            # ...but a fresh connection serves normally.
            reader, writer = await _raw_connect(target.port)
            writer.write(OPEN_LINE)
            await writer.drain()
            reply = json.loads(
                await asyncio.wait_for(reader.readline(), 5.0)
            )
            assert reply["ok"] and reply["id"] == 7
            writer.close()
            await writer.wait_closed()

    asyncio.run(scenario())


@pytest.mark.parametrize("flavor", ["bare", "gateway"])
def test_fuzz_burst_never_wedges_the_server(flavor):
    """Many bad lines in one write, interleaved with good ones: every
    good request is answered, every bad line draws exactly one error."""

    async def scenario():
        async with _Target(flavor) as target:
            reader, writer = await _raw_connect(target.port)
            bad = [payload for _, payload, _ in CASES]
            writer.write(b"".join(bad) + OPEN_LINE)
            await writer.drain()
            replies = []
            for _ in range(len(bad) + 1):
                replies.append(json.loads(
                    await asyncio.wait_for(reader.readline(), 5.0)
                ))
            assert [r["ok"] for r in replies] == [False] * len(bad) + [True]
            writer.close()
            await writer.wait_closed()

    asyncio.run(scenario())

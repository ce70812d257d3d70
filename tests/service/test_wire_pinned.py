"""Pin the bytes a bare worker and a 1-worker gateway send back.

The parity tests compare advice as decoded objects; these digests compare
the whole reply stream, byte for byte, with the stream as it was when
they were generated.  A change to the connection core, the gateway's
relay or the codec that moves one byte of any reply (a field order, a
float's spelling, an error message, a reply skipped or sent twice)
changes a digest here.

The script is one OPEN, then 3,000 OBSERVEs of a seeded cad trace,
pipelined 50 lines at a time, with a garbage line, a ``"v":9`` line, a
blank line, an OBSERVE of an unknown session, a per-session STATS and a
double CLOSE mixed in.  Server-level STATS is left out: it carries the
uptime and the pid.  When a deliberate change moves a digest, regenerate
with ``python tests/service/test_wire_pinned.py``.
"""

import asyncio
import hashlib
import json

import pytest

from repro.cluster import AdvisoryGateway, StaticWorkerDirectory
from repro.service import protocol
from repro.service.server import PrefetchService
from repro.traces.synthetic import make_trace

CACHE = 64
REFS = 3000
BATCH = 50

PINNED = {
    "bare":
        "7820d42ea1018a2b4ff10fb240d5ae213ba3720796292eae18998e7a1161ac5f",
    "gateway":
        "700939cb6c02994cca0a60d7e77c1cc095224c2c329bbe8c65f1a782e958852e",
}


def script(sid):
    """The request lines after the OPEN, batched as they are sent."""
    blocks = make_trace("cad", num_references=REFS, seed=1999).as_list()
    lines = [
        protocol.encode_request(protocol.ObserveRequest(
            id=k + 2, session=sid, block=block,
        ))
        for k, block in enumerate(blocks)
    ]
    extras = {
        7: b"not json\n",
        99: b'{"v":9,"cmd":"observe","id":5,"session":"x","block":1}\n',
        150: b"\n",
        777: protocol.encode_request(protocol.ObserveRequest(
            id=9001, session="nope", block=3,
        )),
        1500: protocol.encode_request(protocol.StatsRequest(
            id=9002, session=sid,
        )),
    }
    for at in sorted(extras, reverse=True):
        lines.insert(at, extras[at])
    close = protocol.encode_request(protocol.CloseRequest(id=9003, session=sid))
    lines += [close, close]
    return [lines[i:i + BATCH] for i in range(0, len(lines), BATCH)]


async def _replies(port):
    """Run the script against ``port``; return every byte it read back."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        stream = [await reader.readline()]  # HELLO
        writer.write(protocol.encode_request(protocol.OpenRequest(
            id=1, policy="tree", cache_size=CACHE,
        )))
        stream.append(await reader.readline())
        sid = json.loads(stream[-1])["session"]
        for batch in script(sid):
            writer.write(b"".join(batch))
            for line in batch:
                if line.strip():  # a blank line gets no reply
                    stream.append(await asyncio.wait_for(
                        reader.readline(), 30.0
                    ))
    finally:
        writer.close()
    return b"".join(stream)


async def _run(flavor):
    worker = PrefetchService(identity="w0")
    await worker.endpoint.start("127.0.0.1", 0)
    front = worker
    if flavor == "gateway":
        directory = StaticWorkerDirectory()
        directory.register("w0", "127.0.0.1", worker.endpoint.port)
        front = AdvisoryGateway(directory)
        await front.endpoint.start(port=0)
    try:
        return await _replies(front.endpoint.port)
    finally:
        if front is not worker:
            await front.aclose()
        await worker.aclose()


def reply_stream(flavor):
    return asyncio.run(_run(flavor))


@pytest.mark.parametrize("flavor", ["bare", "gateway"])
def test_reply_stream_matches_pinned_digest(flavor):
    stream = reply_stream(flavor)
    lines = stream.splitlines()
    # HELLO, OPEN, 3,000 advice, STATS, CLOSE and four errors: the
    # garbage, the v9 line, the unknown session and the second CLOSE.
    assert len(lines) == 2 + REFS + 2 + 4
    assert hashlib.sha256(stream).hexdigest() == PINNED[flavor]


if __name__ == "__main__":
    print("PINNED = {")
    for flavor in ("bare", "gateway"):
        digest = hashlib.sha256(reply_stream(flavor)).hexdigest()
        print(f'    "{flavor}":\n        "{digest}",')
    print("}")

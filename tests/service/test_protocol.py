"""Wire-protocol unit tests: a round trip for every message type."""

import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    StatsReply,
    StatsRequest,
    decode_reply,
    decode_request,
    encode_reply,
    encode_request,
)
from repro.service.session import PrefetchAdvice
from repro.sim.engine import PrefetchDecision

ADVICE = PrefetchAdvice(
    block=17, period=3, outcome="miss", stall_ms=0.25,
    prefetch=(PrefetchDecision(18, 0.5, 1, "tree"),
              PrefetchDecision(21, 0.125, 2, "tree")),
    s=1.5,
)

REQUESTS = [
    OpenRequest(id=1, policy="tree", cache_size=512,
                params={"t_cpu": 20.0, "t_disk": 0.1},
                policy_kwargs={"max_tree_nodes": 4096}),
    OpenRequest(id=2),
    ObserveRequest(id=3, session="s1", block=42),
    StatsRequest(id=4, session="s1"),
    CloseRequest(id=5, session="s1"),
]

REPLIES = [
    HelloReply(id=0, max_sessions=64),
    OpenReply(id=1, session="s1", policy="tree", cache_size=512),
    ObserveReply(id=3, session="s1", advice=ADVICE),
    StatsReply(id=4, session="s1", stats={"accesses": 10, "miss_rate": 40.0}),
    CloseReply(id=5, session="s1", stats={"accesses": 10}),
    ErrorReply(id=6, error=protocol.E_UNKNOWN_SESSION, message="nope"),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "request_msg", REQUESTS, ids=lambda r: f"{r.cmd}-{r.id}"
    )
    def test_request_round_trip(self, request_msg):
        assert decode_request(encode_request(request_msg)) == request_msg

    @pytest.mark.parametrize(
        "reply_msg", REPLIES, ids=lambda r: f"{r.cmd}-{r.id}"
    )
    def test_reply_round_trip(self, reply_msg):
        assert decode_reply(encode_reply(reply_msg)) == reply_msg

    def test_one_line_per_message(self):
        for message in REQUESTS:
            encoded = encode_request(message)
            assert encoded.endswith(b"\n")
            assert encoded.count(b"\n") == 1

    def test_wire_is_plain_json_with_version(self):
        obj = json.loads(encode_request(REQUESTS[0]))
        assert obj["v"] == protocol.PROTOCOL_VERSION
        assert obj["cmd"] == "open"
        obj = json.loads(encode_reply(REPLIES[-1]))
        assert obj["ok"] is False


class TestRejects:
    def test_invalid_json(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            decode_request(b"{nope\n")

    def test_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_request(b"[1, 2]\n")

    def test_version_mismatch(self):
        line = json.dumps({"v": 99, "cmd": "open", "id": 1})
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(line)
        assert excinfo.value.code == protocol.E_BAD_VERSION

    def test_missing_version(self):
        line = json.dumps({"cmd": "open", "id": 1})
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_unknown_command(self):
        line = json.dumps({"v": 1, "cmd": "launch", "id": 1})
        with pytest.raises(ProtocolError, match="unknown command"):
            decode_request(line)

    def test_observe_requires_block(self):
        line = json.dumps({"v": 1, "cmd": "observe", "id": 1,
                           "session": "s1"})
        with pytest.raises(ProtocolError, match="observe requires"):
            decode_request(line)

    def test_stats_without_session_is_server_level(self):
        # v3 additive change: a session-less STATS is the server-level
        # probe a fleet supervisor/gateway uses, not a protocol error.
        line = json.dumps({"v": 1, "cmd": "stats", "id": 1})
        request = decode_request(line)
        assert request.session is None

    def test_close_requires_session(self):
        line = json.dumps({"v": 1, "cmd": "close", "id": 1})
        with pytest.raises(ProtocolError, match="close requires"):
            decode_request(line)

    def test_unknown_reply(self):
        line = json.dumps({"v": 1, "cmd": "launch", "id": 1, "ok": True})
        with pytest.raises(ProtocolError, match="unknown reply"):
            decode_reply(line)

    def test_oversized_line(self):
        line = b" " * (protocol.MAX_LINE_BYTES + 1)
        with pytest.raises(ProtocolError, match="MAX_LINE_BYTES"):
            decode_request(line)

    def test_non_integer_id(self):
        line = json.dumps({"v": 1, "cmd": "open", "id": "abc"})
        with pytest.raises(ProtocolError, match="id must be an integer"):
            decode_request(line)

    @pytest.mark.parametrize("decode", [decode_request, decode_reply])
    def test_unhashable_command(self, decode):
        with pytest.raises(ProtocolError, match=r"\[1\]") as excinfo:
            decode(b'{"v":3,"cmd":[1],"id":1}')
        assert excinfo.value.code == protocol.E_BAD_REQUEST

    @pytest.mark.parametrize("line", [
        b'{"v":3,"cmd":"observe","id":1,"session":"s1","block":1e999}',
        b'{"v":3,"cmd":"observe","id":1e999,"session":"s1","block":1}',
        b'{"v":3,"cmd":"observe","id":1,"session":"s1","block":1,'
        b'"seq":-1e999}',
        b'{"v":3,"cmd":"open","id":1,"cache_size":1e999}',
    ])
    def test_infinite_integer_field_in_a_request(self, line):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(line)
        assert excinfo.value.code == protocol.E_BAD_REQUEST

    @pytest.mark.parametrize("line", [
        b'{"v":3,"cmd":"open","id":1e999,"ok":true,"session":"s1",'
        b'"policy":"tree","cache_size":8}',
        b'{"v":3,"cmd":"open","id":1,"ok":true,"session":"s1",'
        b'"policy":"tree","cache_size":1e999}',
    ])
    def test_infinite_integer_field_in_a_reply(self, line):
        with pytest.raises(ProtocolError) as excinfo:
            decode_reply(line)
        assert excinfo.value.code == protocol.E_BAD_REQUEST


# ------------------------------------------------- OBSERVE codec identity


def _oracle_line(obj):
    """The wire line as the codec first wrote every message."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def _oracle_request(request):
    obj = {"v": protocol.PROTOCOL_VERSION, "cmd": request.cmd,
           "id": request.id}
    obj.update(request.payload())
    return _oracle_line(obj)


def _oracle_reply(reply):
    obj = {"v": protocol.PROTOCOL_VERSION, "cmd": reply.cmd, "id": reply.id,
           "ok": reply.ok}
    obj.update(reply.payload())
    return _oracle_line(obj)


def _outcome(fn, *args):
    """``fn(*args)``, or the exception it raised, comparable by value.

    A result compares by ``repr``, which tells apart what ``==`` does not:
    a NaN field from itself, ``1`` from ``1.0`` and ``True``, ``-0.0``
    from ``0.0``."""
    try:
        return ("ok", repr(fn(*args)))
    except ProtocolError as exc:
        return ("protocol", exc.code, str(exc))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raise", type(exc))


#: What a field of the wrong JSON type raises as it is converted; every
#: one of them is a bad line (``int(1e999)`` overflows).
_BAD_FIELD = (KeyError, TypeError, ValueError, OverflowError)


def _oracle_decode_request(line):
    """``decode_request`` as it was before its OBSERVE fast path, except
    that a non-string ``cmd`` and an overflowing field are bad lines."""
    obj = protocol._parse_line(line)
    protocol._check_version(obj)
    cmd = obj.get("cmd")
    cls = _REQ.get(cmd) if isinstance(cmd, str) else None
    if cls is None:
        raise ProtocolError(f"unknown command {cmd!r}")
    try:
        request_id = int(obj.get("id", 0))
    except (TypeError, ValueError, OverflowError):
        raise ProtocolError("request id must be an integer") from None
    try:
        return cls(request_id, obj)
    except ProtocolError:
        raise
    except _BAD_FIELD as exc:
        raise ProtocolError(f"malformed {cmd} request: {exc}") from None


def _oracle_decode_reply(line):
    """``decode_reply`` as it was before its OBSERVE fast path, except
    that a non-string ``cmd`` and an overflowing field are bad lines."""
    obj = protocol._parse_line(line)
    protocol._check_version(obj)
    cmd = obj.get("cmd")
    cls = _REP.get(cmd) if isinstance(cmd, str) else None
    if cls is None:
        raise ProtocolError(f"unknown reply {cmd!r}")
    try:
        return cls(int(obj.get("id", 0)), obj)
    except ProtocolError:
        raise
    except _BAD_FIELD as exc:
        raise ProtocolError(f"malformed {cmd} reply: {exc}") from None


def _oracle_observe_request(request_id, payload):
    if "session" not in payload or "block" not in payload:
        raise ProtocolError("observe requires 'session' and 'block'")
    seq = payload.get("seq")
    return ObserveRequest(id=request_id, session=str(payload["session"]),
                          block=int(payload["block"]),
                          seq=int(seq) if seq is not None else None)


def _oracle_observe_reply(reply_id, payload):
    return ObserveReply(
        id=reply_id,
        session=str(payload["session"]),
        advice=_oracle_advice(payload["advice"]),
    )


def _oracle_advice(payload):
    return PrefetchAdvice(
        block=payload["block"],
        period=int(payload["period"]),
        outcome=str(payload["outcome"]),
        stall_ms=float(payload["stall_ms"]),
        prefetch=tuple(
            PrefetchDecision(d["block"], float(d["probability"]),
                             int(d["depth"]), str(d["tag"]))
            for d in payload["prefetch"]
        ),
        s=float(payload["s"]),
    )


_REQ = {**{cmd: cls.from_payload
            for cmd, cls in protocol._REQUEST_TYPES.items()},
        "observe": _oracle_observe_request}
_REP = {**{cmd: cls.from_payload
            for cmd, cls in protocol._REPLY_TYPES.items()},
        "observe": _oracle_observe_reply}

_texts = st.text()  # quotes, backslashes, control and non-ASCII included
_ints = st.integers() | st.booleans()
_floats = st.floats() | st.sampled_from([
    -0.0, 5e-324, 1e16, 1e22, float("nan"), float("inf"), float("-inf"),
])
_unjsonable = st.sampled_from([b"bytes", {1, 2}, object(), 1j])
_decision = st.builds(
    PrefetchDecision, _ints, _floats | _ints, _ints, _texts,
)
_advice = st.builds(
    PrefetchAdvice,
    block=_ints, period=_ints, outcome=_texts, stall_ms=_floats | _ints,
    prefetch=st.lists(_decision, max_size=4).map(tuple), s=_floats,
)
_observe_requests = st.builds(
    ObserveRequest, id=_ints, session=_texts, block=_ints,
    seq=st.none() | _ints,
)
_observe_replies = st.builds(
    ObserveReply, id=_ints, session=_texts, advice=_advice,
)
#: JSON values of every type a field might arrive as.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _perturbed(draw, messages, oracle):
    """The JSON object of a valid OBSERVE message, perhaps with one field,
    at any depth, dropped or replaced by a JSON value of any type."""
    obj = json.loads(oracle(draw(messages)))
    slots = [(obj, key) for key in obj]
    advice = obj.get("advice")
    if isinstance(advice, dict):
        slots += [(advice, key) for key in advice]
        for decision in advice["prefetch"]:
            slots += [(decision, key) for key in decision]
    slot = draw(st.none() | st.sampled_from(slots))
    if slot is not None:
        container, key = slot
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_json_values | st.sampled_from(
                ["7", "-3", "1.5", "x", "NaN", 3.0, 9]
            ))
    return obj


def _lines(objects):
    """Lines of ``objects``, some cut short or with bytes spliced in, and
    some arbitrary bytes."""
    serialized = objects.map(lambda obj: json.dumps(obj).encode() + b"\n")
    mangled = st.tuples(serialized, st.integers(0, 400), st.binary(
        max_size=3,
    )).map(lambda t: t[0][:t[1]] + t[2] + b"\n")
    return serialized | mangled | st.binary(max_size=40)


_request_lines = _lines(_perturbed(_observe_requests, _oracle_request))
_reply_lines = _lines(_perturbed(_observe_replies, _oracle_reply))


def _codec_settings(examples):
    # Generating nested messages is slow on a loaded host; the property,
    # not the generator's speed, is under test.
    return settings(max_examples=examples, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestObserveCodecIsByteIdentical:
    """The OBSERVE fast paths write and read exactly what the general
    ``json`` path does, for any field values."""

    @_codec_settings(400)
    @given(_observe_requests)
    def test_request_encode(self, request):
        assert _outcome(encode_request, request) == _outcome(
            _oracle_request, request
        )

    @_codec_settings(400)
    @given(_observe_replies)
    def test_reply_encode(self, reply):
        assert _outcome(encode_reply, reply) == _outcome(
            _oracle_reply, reply
        )

    @_codec_settings(100)
    @given(_observe_requests, _observe_replies, _unjsonable,
           st.sampled_from(["id", "session", "block", "seq"]),
           st.sampled_from(["block", "stall_ms", "s", "prefetch"]))
    def test_rejects_what_json_rejects(
        self, request, reply, bad, request_field, advice_field
    ):
        request = replace(request, **{request_field: bad})
        got = _outcome(encode_request, request)
        assert got[0] == "raise"
        assert got == _outcome(_oracle_request, request)
        if advice_field == "prefetch":
            bad = (PrefetchDecision(bad, 0.5, 1, "t"),)
        reply = replace(reply, advice=replace(
            reply.advice, **{advice_field: bad}
        ))
        got = _outcome(encode_reply, reply)
        assert got[0] == "raise"
        assert got == _outcome(_oracle_reply, reply)

    @_codec_settings(400)
    @given(_request_lines)
    def test_request_decode(self, line):
        assert _outcome(decode_request, line) == _outcome(
            _oracle_decode_request, line
        )

    @_codec_settings(400)
    @given(_reply_lines)
    def test_reply_decode(self, line):
        assert _outcome(decode_reply, line) == _outcome(
            _oracle_decode_reply, line
        )

    def test_round_trip_of_real_advice(self):
        from repro.service.session import PrefetchSession
        from repro.traces.synthetic import make_trace

        session = PrefetchSession(policy="tree", cache_size=64)
        blocks = make_trace("cad", num_references=2000, seed=3).as_list()
        for period, block in enumerate(blocks):
            advice = session.observe(block)
            request = ObserveRequest(period, "w0-s1", block, period)
            reply = ObserveReply(period, "w0-s1", advice)
            line = encode_request(request)
            assert line == _oracle_request(request)
            assert decode_request(line) == request
            line = encode_reply(reply)
            assert line == _oracle_reply(reply)
            assert decode_reply(line) == reply

"""Wire protocol for the advisory service: versioned newline-delimited JSON.

Every message is one JSON object on one line, UTF-8, ``\\n``-terminated.
Requests carry ``{"v": 1, "cmd": ..., "id": ...}`` plus command fields;
replies echo the request ``id`` and carry ``"ok": true`` with a payload or
``"ok": false`` with an error code and message.  The server greets each
connection with a HELLO reply (``id`` 0) announcing its protocol version
and limits, so clients can fail fast on a version mismatch.

Commands
--------
``open``     create a session (policy, cache size, system parameters)
``observe``  feed one block reference, get :class:`PrefetchAdvice` back
``stats``    non-destructive mid-session counter snapshot
``close``    seal the session and return the final statistics

The schema is deliberately flat and text-first (cf. redis' RESP or
memcached's text protocol): a session can be driven from ``nc`` by hand,
and any language with a JSON library can implement a client in a page.

Versioning
----------
Protocol v2 added the optional ``model`` field on OPEN (warm-start a
session from a registry snapshot, ``NAME`` or ``NAME@VERSION``).
Protocol v3 added the resilience fields: ``resume`` on OPEN (re-open a
detached or checkpointed session decision-identically), ``seq`` on
OBSERVE (exactly-once retry semantics: a duplicate of the last
observation returns the cached advice instead of re-folding it), and
``period`` / ``resumed`` / ``degraded`` on the OPEN reply.  Both changes
are additive, so the server accepts any version in
``[MIN_PROTOCOL_VERSION, PROTOCOL_VERSION]``: a v1 client simply never
sends the newer fields.  Replies are stamped with the current version;
clients accept the same range.

Two further additive fields serve the fleet layer (:mod:`repro.cluster`)
and stay within v3:

* ``session_id`` on OPEN lets the caller *choose* the session id instead
  of receiving a server-generated one.  The gateway uses it to pin a
  session's identity across workers, so the consistent-hash placement,
  the shared checkpoint file, and the client-visible id are all the same
  string.  Ordinary clients never send it; ids are validated against
  :data:`SAFE_ID` (they become checkpoint filenames).
* ``session`` on STATS became optional: STATS *without* a session returns
  server-level stats — worker identity, live counters, and the full
  :meth:`~repro.service.metrics.ServiceMetrics.to_state` — which is both
  the supervisor's liveness probe and the gateway's fleet-aggregation
  feed.

The multi-tenant layer (:mod:`repro.tenancy`) adds two more additive
fields, still within v3:

* ``tenant`` on OPEN names the tenant whose shared base model (and
  quotas) the session runs under::

      {"v": 3, "cmd": "open", "id": 1, "policy": "tree",
       "cache_size": 1024, "tenant": "acme"}

  Requires the server to be running with a tenant config; an unknown
  tenant is ``bad_request``, and a quota breach is rejected with the
  ``quota_exceeded`` error code.
* ``retry_after_s`` on error replies (quota rejections set it from the
  tenant's configured backoff hint) tells well-behaved clients when to
  try again; absent on all other errors.

The overload-protection layer (:mod:`repro.service.overload`) adds one
more additive error code, still within v3:

* ``overloaded`` rejects a *new* OPEN when the server or gateway is past
  its admission watermark (or deep in brownout).  The reply reuses the
  quota shape — ``retry_after_s`` carries the backoff hint::

      {"v": 3, "id": 1, "error": "overloaded",
       "message": "server overloaded; retry in 0.5s", "retry_after_s": 0.5}

  Unlike ``quota_exceeded`` this is never about *who* is asking, only
  about *when*: already-admitted sessions keep full service, and
  resilient clients treat the error as backoff-not-fault.

The observability layer (:mod:`repro.obs`) adds two more additive
fields, still within v3:

* ``trace`` on OPEN (request and reply) carries a distributed-tracing
  trace id for the session.  A client that wants its session traced
  sends one; a gateway running with tracing assigns one to sampled
  sessions it opens (and echoes back whichever id ends up bound), so
  client, gateway, and worker spans share a single id.  The field is
  pure metadata: it never changes advice, placement, or scheduling,
  and a server without tracing simply ignores it.
* ``format`` on server-level STATS selects an alternate rendering of
  the snapshot.  The only defined value is ``"prometheus"``: the reply
  payload gains an ``exposition`` key holding the Prometheus text
  format over the server's (or the gateway's fleet-merged) metrics.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Type, Union

from repro.service.session import PrefetchAdvice

PROTOCOL_VERSION = 3
#: Oldest protocol version still accepted (v1 lacks only the additive
#: OPEN ``model`` field from v2 and the v3 resilience fields).
MIN_PROTOCOL_VERSION = 1

#: Upper bound on one encoded line; guards the server against a client
#: streaming an unbounded "line" into memory.
MAX_LINE_BYTES = 1 << 20

#: Shape of a caller-supplied session id (OPEN ``session_id`` / ``resume``).
#: Ids become ``<checkpoint-dir>/<id>.snap`` filenames, so anything that
#: could traverse a path ("../", separators, leading dots) is rejected
#: before it reaches the filesystem.
SAFE_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


def is_safe_id(session_id: str) -> bool:
    """True when ``session_id`` is usable as a session/checkpoint name."""
    return bool(SAFE_ID.match(session_id)) and ".." not in session_id

# Error codes carried by ErrorReply.error.
E_BAD_REQUEST = "bad_request"
E_BAD_VERSION = "bad_version"
E_UNKNOWN_SESSION = "unknown_session"
E_SESSION_ERROR = "session_error"
E_LIMIT = "limit_exceeded"
E_SEQ = "seq_mismatch"
E_QUOTA = "quota_exceeded"
E_OVERLOAD = "overloaded"


class ProtocolError(Exception):
    """A line that cannot be parsed into a valid message."""

    def __init__(self, message: str, *, code: str = E_BAD_REQUEST) -> None:
        super().__init__(message)
        self.code = code


# --------------------------------------------------------------- requests


@dataclass(frozen=True)
class OpenRequest:
    """Create a new session."""

    id: int
    policy: str = "tree"
    cache_size: int = 1024
    params: Optional[Dict[str, float]] = None
    """Overrides for :class:`SystemParams` fields (t_cpu, t_disk, ...)."""
    policy_kwargs: Dict[str, Any] = field(default_factory=dict)
    model: Optional[str] = None
    """Registry spec (``NAME`` or ``NAME@VERSION``) to start the session
    from; requires the server to be running with a model store (v2)."""
    resume: Optional[str] = None
    """Session id to resume from the server's detached-session table or
    checkpoint directory, decision-identically (v3)."""
    session_id: Optional[str] = None
    """Caller-chosen id for the new session (v3, fleet-internal): the
    gateway pins a session's identity — ring placement, checkpoint file,
    client-visible id — to one string across workers.  Must satisfy
    :func:`is_safe_id`; collisions with a live session are rejected."""
    tenant: Optional[str] = None
    """Tenant whose shared base model and quotas this session runs under
    (v3, additive); requires a server-side tenant config."""
    trace: Optional[str] = None
    """Distributed-tracing trace id for the session (v3, additive): the
    gateway injects one for sampled sessions so worker spans join the
    gateway's, and clients may supply their own.  Ignored by servers
    that run without tracing; never influences advice or placement."""

    cmd = "open"

    def payload(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "policy": self.policy,
            "cache_size": self.cache_size,
        }
        if self.params is not None:
            out["params"] = self.params
        if self.policy_kwargs:
            out["policy_kwargs"] = self.policy_kwargs
        if self.model is not None:
            out["model"] = self.model
        if self.resume is not None:
            out["resume"] = self.resume
        if self.session_id is not None:
            out["session_id"] = self.session_id
        if self.tenant is not None:
            out["tenant"] = self.tenant
        if self.trace is not None:
            out["trace"] = self.trace
        return out

    @classmethod
    def from_payload(cls, id: int, payload: Dict[str, Any]) -> "OpenRequest":
        model = payload.get("model")
        resume = payload.get("resume")
        session_id = payload.get("session_id")
        tenant = payload.get("tenant")
        trace = payload.get("trace")
        return cls(
            id=id,
            policy=str(payload.get("policy", "tree")),
            cache_size=int(payload.get("cache_size", 1024)),
            params=payload.get("params"),
            policy_kwargs=dict(payload.get("policy_kwargs", {})),
            model=str(model) if model is not None else None,
            resume=str(resume) if resume is not None else None,
            session_id=str(session_id) if session_id is not None else None,
            tenant=str(tenant) if tenant is not None else None,
            trace=str(trace) if trace is not None else None,
        )


@dataclass(frozen=True)
class ObserveRequest:
    """Feed one block reference to a session."""

    id: int
    session: str
    block: int
    seq: Optional[int] = None
    """Expected observation index (0-based; the session's current period).
    When set, a retried duplicate of the last observation is answered from
    the session's cached advice instead of being folded twice (v3)."""

    cmd = "observe"

    def payload(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"session": self.session, "block": self.block}
        if self.seq is not None:
            out["seq"] = self.seq
        return out

    @classmethod
    def from_payload(cls, id: int, payload: Dict[str, Any]) -> "ObserveRequest":
        if "session" not in payload or "block" not in payload:
            raise ProtocolError("observe requires 'session' and 'block'")
        seq = payload.get("seq")
        return cls(id, str(payload["session"]), int(payload["block"]),
                   int(seq) if seq is not None else None)


@dataclass(frozen=True)
class StatsRequest:
    """Request a non-destructive counter snapshot.

    With ``session`` set, a per-session snapshot; without it (v3,
    additive), a server-level snapshot carrying the worker's identity
    and full :class:`~repro.service.metrics.ServiceMetrics` state — the
    probe a fleet supervisor uses for liveness and a gateway folds into
    fleet totals.
    """

    id: int
    session: Optional[str] = None
    format: Optional[str] = None
    """Alternate rendering of a *server-level* snapshot (v3, additive).
    ``"prometheus"`` adds an ``exposition`` key — the Prometheus text
    format over the server's (or fleet-merged) metrics — to the reply."""

    cmd = "stats"

    def payload(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        if self.session is not None:
            out["session"] = self.session
        if self.format is not None:
            out["format"] = self.format
        return out

    @classmethod
    def from_payload(cls, id: int, payload: Dict[str, Any]) -> "StatsRequest":
        session = payload.get("session")
        fmt = payload.get("format")
        return cls(id=id,
                   session=str(session) if session is not None else None,
                   format=str(fmt) if fmt is not None else None)


@dataclass(frozen=True)
class CloseRequest:
    """Seal a session and collect its final statistics."""

    id: int
    session: str

    cmd = "close"

    def payload(self) -> Dict[str, Any]:
        return {"session": self.session}

    @classmethod
    def from_payload(cls, id: int, payload: Dict[str, Any]) -> "CloseRequest":
        if "session" not in payload:
            raise ProtocolError("close requires 'session'")
        return cls(id=id, session=str(payload["session"]))


Request = Union[OpenRequest, ObserveRequest, StatsRequest, CloseRequest]

_REQUEST_TYPES: Dict[str, Type[Any]] = {
    cls.cmd: cls
    for cls in (OpenRequest, ObserveRequest, StatsRequest, CloseRequest)
}


# ---------------------------------------------------------------- replies


@dataclass(frozen=True)
class HelloReply:
    """Server banner, sent unsolicited when a connection opens."""

    id: int
    server: str = "repro.service"
    protocol: int = PROTOCOL_VERSION
    max_sessions: Optional[int] = None

    cmd = "hello"
    ok = True

    def payload(self) -> Dict[str, Any]:
        return {
            "server": self.server,
            "protocol": self.protocol,
            "max_sessions": self.max_sessions,
        }

    @classmethod
    def from_payload(cls, id: int, payload: Dict[str, Any]) -> "HelloReply":
        return cls(
            id=id,
            server=str(payload.get("server", "repro.service")),
            protocol=int(payload.get("protocol", -1)),
            max_sessions=payload.get("max_sessions"),
        )


@dataclass(frozen=True)
class OpenReply:
    id: int
    session: str
    policy: str
    cache_size: int
    period: int = 0
    """Observation count of the (possibly resumed) session: the seq the
    next OBSERVE should carry (v3)."""
    resumed: bool = False
    degraded: bool = False
    """True when a failed model restore fell back to no-prefetch advice
    instead of rejecting the session (v3)."""
    trace: Optional[str] = None
    """Trace id bound to the session, echoed so the client can label its
    own spans with the id the serving side settled on (v3, additive;
    absent when the session is unsampled or tracing is off)."""

    cmd = "open"
    ok = True

    def payload(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "session": self.session,
            "policy": self.policy,
            "cache_size": self.cache_size,
            "period": self.period,
            "resumed": self.resumed,
            "degraded": self.degraded,
        }
        if self.trace is not None:
            out["trace"] = self.trace
        return out

    @classmethod
    def from_payload(cls, id: int, payload: Dict[str, Any]) -> "OpenReply":
        trace = payload.get("trace")
        return cls(
            id=id,
            session=str(payload["session"]),
            policy=str(payload["policy"]),
            cache_size=int(payload["cache_size"]),
            period=int(payload.get("period", 0)),
            resumed=bool(payload.get("resumed", False)),
            degraded=bool(payload.get("degraded", False)),
            trace=str(trace) if trace is not None else None,
        )


@dataclass(frozen=True)
class ObserveReply:
    id: int
    session: str
    advice: PrefetchAdvice

    cmd = "observe"
    ok = True

    def payload(self) -> Dict[str, Any]:
        return {"session": self.session, "advice": self.advice.as_dict()}

    @classmethod
    def from_payload(cls, id: int, payload: Dict[str, Any]) -> "ObserveReply":
        return cls(id, str(payload["session"]),
                   PrefetchAdvice.from_dict(payload["advice"]))


@dataclass(frozen=True)
class StatsReply:
    id: int
    session: str
    stats: Dict[str, Any]

    cmd = "stats"
    ok = True

    def payload(self) -> Dict[str, Any]:
        return {"session": self.session, "stats": self.stats}

    @classmethod
    def from_payload(cls, id: int, payload: Dict[str, Any]) -> "StatsReply":
        return cls(id=id, session=str(payload["session"]),
                   stats=dict(payload["stats"]))


@dataclass(frozen=True)
class CloseReply:
    id: int
    session: str
    stats: Dict[str, Any]

    cmd = "close"
    ok = True

    def payload(self) -> Dict[str, Any]:
        return {"session": self.session, "stats": self.stats}

    @classmethod
    def from_payload(cls, id: int, payload: Dict[str, Any]) -> "CloseReply":
        return cls(id=id, session=str(payload["session"]),
                   stats=dict(payload["stats"]))


@dataclass(frozen=True)
class ErrorReply:
    id: int
    error: str
    message: str
    retry_after_s: Optional[float] = None
    """Backoff hint for retryable rejections (quota breaches); ``None``
    otherwise (v3, additive)."""

    cmd = "error"
    ok = False

    def payload(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"error": self.error, "message": self.message}
        if self.retry_after_s is not None:
            out["retry_after_s"] = self.retry_after_s
        return out

    @classmethod
    def from_payload(cls, id: int, payload: Dict[str, Any]) -> "ErrorReply":
        retry_after = payload.get("retry_after_s")
        return cls(id=id, error=str(payload["error"]),
                   message=str(payload["message"]),
                   retry_after_s=(float(retry_after)
                                  if retry_after is not None else None))


Reply = Union[HelloReply, OpenReply, ObserveReply, StatsReply, CloseReply,
              ErrorReply]

_REPLY_TYPES: Dict[str, Type[Any]] = {
    cls.cmd: cls
    for cls in (HelloReply, OpenReply, ObserveReply, StatsReply, CloseReply,
                ErrorReply)
}


# ------------------------------------------------------------ wire codecs


def _check_version(obj: Dict[str, Any]) -> None:
    version = obj.get("v")
    if not isinstance(version, int) or not (
        MIN_PROTOCOL_VERSION <= version <= PROTOCOL_VERSION
    ):
        raise ProtocolError(
            f"protocol version mismatch: got {version!r}, "
            f"want {MIN_PROTOCOL_VERSION}..{PROTOCOL_VERSION}",
            code=E_BAD_VERSION,
        )


#: What converting a field of the wrong JSON type raises: ``int("x")``,
#: ``int([1])`` and ``int(1e999)`` (an infinity) among them.
_BAD_FIELD = (TypeError, ValueError, OverflowError)


def _parse_line(line: Union[str, bytes]) -> Dict[str, Any]:
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("line exceeds MAX_LINE_BYTES")
        line = line.decode("utf-8", errors="replace")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("message must be a JSON object")
    return obj


#: ``json.dumps(obj, separators=(",", ":"))`` without a new encoder per
#: call: the same settings, so the same bytes.
_JSON = json.JSONEncoder(separators=(",", ":"))
#: The string escaper that encoder uses (``ensure_ascii``), quotes included.
_quote = json.encoder.encode_basestring_ascii
#: ``json`` spells the non-finite floats its own way (``allow_nan``).
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_WORDS.get(text, text)


#: JSON text of a plain scalar, as ``json`` writes it, by exact type; any
#: other type (``bool`` included) raises ``KeyError`` and takes the
#: general encoder.
_SCALAR = {int: int.__repr__, float: _float, str: _quote}


def _observe_request_line(request: ObserveRequest) -> str:
    scalar = _SCALAR
    seq = request.seq
    tail = "" if seq is None else f',"seq":{scalar[type(seq)](seq)}'
    return (
        f'{{"v":{PROTOCOL_VERSION},"cmd":"observe",'
        f'"id":{scalar[type(request.id)](request.id)},'
        f'"session":{scalar[type(request.session)](request.session)},'
        f'"block":{scalar[type(request.block)](request.block)}{tail}}}\n'
    )


def _observe_reply_line(reply: ObserveReply) -> str:
    scalar = _SCALAR
    advice = reply.advice
    if type(advice) is not PrefetchAdvice:
        raise KeyError(advice)
    prefetch = ",".join([
        f'{{"block":{scalar[type(d.block)](d.block)},'
        f'"probability":{scalar[type(d.probability)](d.probability)},'
        f'"depth":{scalar[type(d.depth)](d.depth)},'
        f'"tag":{scalar[type(d.tag)](d.tag)}}}'
        for d in advice.prefetch
    ])
    return (
        f'{{"v":{PROTOCOL_VERSION},"cmd":"observe",'
        f'"id":{scalar[type(reply.id)](reply.id)},"ok":true,'
        f'"session":{scalar[type(reply.session)](reply.session)},'
        f'"advice":{{"block":{scalar[type(advice.block)](advice.block)},'
        f'"period":{scalar[type(advice.period)](advice.period)},'
        f'"outcome":{scalar[type(advice.outcome)](advice.outcome)},'
        f'"stall_ms":{scalar[type(advice.stall_ms)](advice.stall_ms)},'
        f'"prefetch":[{prefetch}],'
        f'"s":{scalar[type(advice.s)](advice.s)}}}}}\n'
    )


def encode_request(request: Request) -> bytes:
    if type(request) is ObserveRequest:
        # The hot line, formatted field by field: the same bytes as the
        # general path, which still takes any field of another type.
        try:
            return _observe_request_line(request).encode()
        except KeyError:
            pass
    obj = {"v": PROTOCOL_VERSION, "cmd": request.cmd, "id": request.id}
    obj.update(request.payload())
    return (_JSON.encode(obj) + "\n").encode("utf-8")


def decode_request(line: Union[str, bytes]) -> Request:
    obj = _parse_line(line)
    _check_version(obj)
    cmd = obj.get("cmd")
    cls = _REQUEST_TYPES.get(cmd) if isinstance(cmd, str) else None
    if cls is None:
        raise ProtocolError(f"unknown command {cmd!r}")
    try:
        request_id = int(obj.get("id", 0))
    except _BAD_FIELD:
        raise ProtocolError("request id must be an integer") from None
    try:
        return cls.from_payload(request_id, obj)
    except ProtocolError:
        raise
    except (KeyError,) + _BAD_FIELD as exc:
        raise ProtocolError(f"malformed {cmd} request: {exc}") from None


def encode_reply(reply: Reply) -> bytes:
    if type(reply) is ObserveReply:
        try:
            return _observe_reply_line(reply).encode()
        except KeyError:
            pass
    obj = {"v": PROTOCOL_VERSION, "cmd": reply.cmd, "id": reply.id,
           "ok": reply.ok}
    obj.update(reply.payload())
    return (_JSON.encode(obj) + "\n").encode("utf-8")


def decode_reply(line: Union[str, bytes]) -> Reply:
    obj = _parse_line(line)
    _check_version(obj)
    cmd = obj.get("cmd")
    cls = _REPLY_TYPES.get(cmd) if isinstance(cmd, str) else None
    if cls is None:
        raise ProtocolError(f"unknown reply {cmd!r}")
    try:
        return cls.from_payload(int(obj.get("id", 0)), obj)
    except ProtocolError:
        raise
    except (KeyError,) + _BAD_FIELD as exc:
        raise ProtocolError(f"malformed {cmd} reply: {exc}") from None

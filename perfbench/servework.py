"""``gateway``: the advisory service over real sockets.

A fresh ``repro fleet --workers 1`` (a gateway and one ``repro serve``
worker) serves a seeded cad trace to two :class:`AsyncServiceClient`
connections, each with its own session, so the gateway's single worker
link carries pipelined requests from both.  It is a closed loop: every
client waits for each reply before sending the next reference.  The
fleet runs with default flags on port 0; the port comes from the
gateway's banner, and the HELLO reply must name the gateway.

After the run, the offline engine (``Simulator.step``) replays each
session's stream, and every served advice must match its step: same
outcome, same prefetch blocks in the same order.
"""

from __future__ import annotations

import asyncio
import math
import os
import re
import signal
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from harness import (
    ROOT,
    SRC,
    BenchError,
    Spans,
    median,
    pid_alive,
    print_accounting,
    proc_cpu_s,
    proc_hwm_mb,
    quantile,
    ruler_s,
    self_cpu_s,
    speed,
    zeros,
)
from repro.params import PAPER_PARAMS
from repro.policies.registry import make_policy
from repro.service import protocol
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.protocol import ObserveReply, ObserveRequest, OpenRequest
from repro.service.server import PrefetchService
from repro.sim.engine import Simulator
from repro.traces.synthetic import make_trace
from simwork import CandidateCounter, instrument

STREAM_REFS = 60_000
CACHE_BLOCKS = 1024
SETUPS = 5
#: Untimed references per session before measuring; peak RSS is read
#: right after them, so it reflects a fixed amount of work and a faster
#: program does not read as a bigger one.
WARMUP_REFS = 2000
#: Untimed runs stream in slices of this length, with a ruler timed
#: between slices; traced runs alternate untraced and traced slices.
SLICE_S = 0.25
#: Traced gateway runs then alternate gateway and direct-to-worker slices.
HOP_S = 4.0
HOP_SLICE_S = 0.5
#: References of the recorded stream replayed through an in-process server.
REPLAY_REFS = 20_000
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

CLIENTS = 2
COMMAND = ["fleet", "--workers", "1", "--port", "0"]
#: The gateway's banner.  The fleet echoes its worker's
#: ``repro.service listening on`` line first, so only this one will do.
BANNER = "repro.gateway listening on "
GATEWAY_NAME = "repro.gateway"
WORKER_NAME = "repro.service"
_WORKER_UP = re.compile(r"^fleet: worker w0 pid=(\d+) port=(\d+) up")

#: Per-layer metrics no service run measures: the engine's own counts and
#: the policy rows, which need a fixed amount of work to repeat exactly.
SIM_ONLY = (
    "sim.step_us.no-prefetch", "sim.step_us.cb-markov", "sim.step_us.deep",
    "sim.miss_rate", "sim.prefetches_per_ref", "sim.proposed_per_ref",
    "sim.issued_per_proposed", "sim.prefetch_precision", "sim.tree_nodes",
)


class Fleet:
    """One ``repro fleet`` child and its worker, from spawn to exit."""

    def __init__(self) -> None:
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port = 0
        self.worker_pid = 0
        self.worker_port = 0
        self.lines: List[str] = []
        self._drain: Optional[asyncio.Task] = None

    async def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        # A session of its own, so a failed run can kill the fleet's
        # worker along with the fleet.
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", *COMMAND,
            stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.STDOUT,
            cwd=str(ROOT), env=env, start_new_session=True)
        while not self.port:
            raw = await asyncio.wait_for(self.proc.stdout.readline(),
                                         START_TIMEOUT_S)
            if not raw:
                raise BenchError(f"fleet exited before its banner: "
                                 f"{self.lines[-5:]}")
            line = raw.decode("utf-8", "replace").rstrip()
            self.lines.append(line)
            up = _WORKER_UP.match(line)
            if up:
                self.worker_pid, self.worker_port = int(up[1]), int(up[2])
            if line.startswith(BANNER):
                self.port = int(line[len(BANNER):].split()[0].rsplit(":", 1)[1])
        if not self.worker_pid:
            raise BenchError("fleet banner came before its worker was up")
        self._drain = asyncio.ensure_future(self._read_rest())

    async def _read_rest(self) -> None:
        while True:
            raw = await self.proc.stdout.readline()
            if not raw:
                return
            self.lines.append(raw.decode("utf-8", "replace").rstrip())

    def cpu_s(self) -> Tuple[float, float]:
        """CPU seconds of (gateway process, worker)."""
        return proc_cpu_s(self.proc.pid), proc_cpu_s(self.worker_pid)

    def hwm_mb(self) -> float:
        """Peak RSS of the processes serving: gateway plus worker."""
        return proc_hwm_mb(self.proc.pid) + proc_hwm_mb(self.worker_pid)

    async def stop(self) -> List[str]:
        """SIGTERM, wait for exit; returns what went wrong, if anything."""
        problems: List[str] = []
        if self.proc is None:
            return problems
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
            except asyncio.TimeoutError:
                problems.append("fleet ignored SIGTERM")
                await self.kill()
        if self._drain is not None:
            await self._drain
        if self.proc.returncode != 0:
            problems.append(f"fleet exit code {self.proc.returncode}")
        summary = [l for l in self.lines if l.startswith("fleet: workers=")]
        if not summary or " sessions_lost=0 " not in summary[-1]:
            problems.append(f"fleet summary lacks sessions_lost=0: {summary}")
        elif " journal_compactions=0 " not in summary[-1]:
            problems.append("gateway compacted its journal")
        if not await self._worker_gone(STOP_TIMEOUT_S):
            problems.append("worker outlived the fleet")
            try:
                os.kill(self.worker_pid, signal.SIGKILL)
            except ProcessLookupError:
                pass   # it ended after all
            await self._worker_gone(STOP_TIMEOUT_S)
        return problems

    async def kill(self) -> None:
        """Last resort on a failed run: SIGKILL the whole process group,
        then wait until the fleet and its worker have ended."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass   # the group is already gone
        await self.proc.wait()
        await self._worker_gone(STOP_TIMEOUT_S)

    async def _worker_gone(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for the worker to end."""
        deadline = time.monotonic() + timeout
        while self.worker_pid and pid_alive(self.worker_pid):
            if time.monotonic() > deadline:
                return False
            await asyncio.sleep(0.05)
        return True


class Session:
    """One client connection with one open session and what it was told."""

    def __init__(self, client: AsyncServiceClient, sid: str) -> None:
        self.client = client
        self.sid = sid
        self.advice: List[object] = []   # PrefetchAdvice, or None on error
        self.rtts: List[float] = []
        self.errors = 0


async def _open(port: int, expect: str) -> Tuple[Session, float]:
    """Connect, check who said HELLO, open a session; returns OPEN seconds."""
    client = await AsyncServiceClient.connect("127.0.0.1", port, timeout=30.0)
    if client.hello.server != expect:
        await client.aclose()
        raise BenchError(f"port {port} greeted as {client.hello.server!r}, "
                         f"expected {expect!r}")
    t0 = time.perf_counter()
    sid = await client.open(policy="tree", cache_size=CACHE_BLOCKS)
    return Session(client, sid), time.perf_counter() - t0


async def _setup():
    """Spawn through HELLO and OPEN; returns (fleet, sessions, s, open s)."""
    fleet = Fleet()
    t0 = time.perf_counter()
    try:
        await fleet.start()
        opened = [await _open(fleet.port, GATEWAY_NAME)
                  for _ in range(CLIENTS)]
    except BaseException:
        await fleet.kill()
        raise
    return (fleet, [s for s, _ in opened], time.perf_counter() - t0,
            [o for _, o in opened])


async def _close(sessions: List[Session]) -> None:
    for s in sessions:
        await s.client.close_session(s.sid)
        await s.client.aclose()


async def _stream(session: Session, blocks: List[int], stop_at: float,
                  spans: Optional[Spans] = None,
                  limit: Optional[int] = None) -> None:
    """Closed loop: one OBSERVE at a time until ``stop_at`` or until the
    session has seen ``limit`` references.  With ``spans``, the loop is a
    root span of its own and each OBSERVE a child of it."""
    observe = session.client.observe
    if spans is not None:
        observe = spans.wrap_async("client.observe", observe)
        token = spans.open("client.session")
    n = len(blocks)
    advice, rtts, sid = session.advice, session.rtts, session.sid
    clock = time.perf_counter
    while clock() < stop_at and len(advice) != limit:
        block = blocks[len(advice) % n]
        t0 = clock()
        try:
            reply = await observe(sid, block)
        except ServiceError:
            reply = None
            session.errors += 1
        rtts.append(clock() - t0)
        advice.append(reply)
    if spans is not None:
        spans.close(token)


async def _phase(sessions: List[Session], blocks: List[int], seconds: float,
                 spans: Optional[Spans] = None) -> Tuple[int, float]:
    """Stream every session for ``seconds``; returns (replies, wall s)."""
    before = sum(len(s.advice) for s in sessions)
    t0 = time.perf_counter()
    await asyncio.gather(*(_stream(s, blocks, t0 + seconds, spans)
                           for s in sessions))
    wall = time.perf_counter() - t0
    return sum(len(s.advice) for s in sessions) - before, wall


def _parity(sessions: List[Session], blocks: List[int]) -> int:
    """Served advice that differs from the offline engine's step."""
    longest = max(len(s.advice) for s in sessions)
    engine = Simulator(PAPER_PARAMS, make_policy("tree"), CACHE_BLOCKS)
    n = len(blocks)
    expected = []
    for i in range(longest):
        step = engine.step(blocks[i % n])
        expected.append((step.outcome, tuple(d.block for d in step.decisions)))
    failed = 0
    for s in sessions:
        for advice, want in zip(s.advice, expected):
            if advice is None or (
                advice.outcome,
                tuple(d.block for d in advice.prefetch)) != want:
                failed += 1
    return failed


def _message_bytes(sessions: List[Session], stride: int = 16):
    """Mean OBSERVE request and reply line sizes, re-encoded exactly from
    every ``stride``-th exchange."""
    req = rep = count = 0
    for s in sessions:
        for k in range(0, len(s.advice), stride):
            advice = s.advice[k]
            if advice is None:
                continue
            # Request ids: OPEN took 1, the k-th OBSERVE takes k + 2.
            req += len(protocol.encode_request(
                ObserveRequest(id=k + 2, session=s.sid, block=advice.block)))
            rep += len(protocol.encode_reply(
                ObserveReply(id=k + 2, session=s.sid, advice=advice)))
            count += 1
    return req / max(count, 1), rep / max(count, 1)


class _ProtocolSpans:
    """Spans around the client's codec calls while tracing a slice."""

    def __init__(self, spans: Spans) -> None:
        self._patched = {
            "encode_request": spans.wrap("protocol.encode_request",
                                         protocol.encode_request),
            "decode_reply": spans.wrap("protocol.decode_reply",
                                       protocol.decode_reply),
        }
        self._original = {name: getattr(protocol, name)
                          for name in self._patched}

    def __enter__(self) -> None:
        for name, fn in self._patched.items():
            setattr(protocol, name, fn)

    def __exit__(self, *exc_info) -> None:
        for name, fn in self._original.items():
            setattr(protocol, name, fn)


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Returns ``(correct, attempted, failed, metric values, spans)``."""
    blocks = make_trace("cad", STREAM_REFS, seed=seed).as_list()
    return asyncio.run(_run(workload, blocks, seconds, trace))


async def _run(workload: str, blocks: List[int], seconds: float,
               trace: bool):
    # Every process of the run shares one CPU: the fleet's inherit this
    # one's.  Each hand-off between them is then a local context switch,
    # not a cross-CPU wake-up whose latency is the host's, and the rulers
    # timed here read the speed of the CPU that does all of the work.
    _pin_self()
    setups: List[float] = []
    opens: List[float] = []
    problems: List[str] = []
    for i in range(SETUPS):
        before = ruler_s()
        fleet, sessions, secs, open_s = await _setup()
        setups.append(secs * speed([before, ruler_s()]))
        opens.extend(open_s)
        if i < SETUPS - 1:
            try:
                await _close(sessions)
            finally:
                problems += await fleet.stop()
    try:
        await asyncio.gather(*(_stream(s, blocks, math.inf, limit=WARMUP_REFS)
                               for s in sessions))
        rss_mb = fleet.hwm_mb()
        if trace:
            out = await _traced(workload, fleet, sessions, blocks, seconds)
        else:
            out = await _untraced(fleet, sessions, blocks, seconds)
        await _close(sessions)
    except BaseException:
        await fleet.kill()
        raise
    problems += await fleet.stop()
    values, served, spans = out
    for problem in problems:
        print(f"{workload}: {problem}")
    print(f"{workload}: rss_mb={rss_mb:.1f} after {WARMUP_REFS} references "
          "per session")
    attempted = sum(len(s.advice) for s in served)
    failed = _parity(served, blocks)
    print(f"{workload}: ops_attempted={attempted} ops_failed={failed}")
    if trace:
        values.update({"client.open_ms": 1e3 * median(opens),
                       "ops_attempted": float(attempted),
                       "ops_failed": float(failed)})
    else:
        values.update({"setup_s": median(setups), "rss_mb": rss_mb})
    return failed == 0 and not problems, attempted, failed, values, spans


def _pin_self() -> None:
    """Pin every thread of this process to the lowest CPU it may use."""
    cpu = {min(os.sched_getaffinity(0))}
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpu)
        except ProcessLookupError:
            pass   # the thread ended since the listing


def _cpu_snapshot(fleet: Fleet) -> Tuple[float, float, float]:
    main, worker = fleet.cpu_s()
    return self_cpu_s(), main, worker


async def _untraced(fleet: Fleet, sessions: List[Session],
                    blocks: List[int], seconds: float):
    """Stream in slices with a ruler between them; each slice's time and
    round trips are scaled by the host speed the rulers on either side of
    it read."""
    replies = 0
    wall = scaled = 0.0
    cpu = [0.0, 0.0, 0.0]
    rtts: List[float] = []
    scaled_rtts: List[float] = []
    before = ruler_s()
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        marks = [len(s.rtts) for s in sessions]
        cpu0 = _cpu_snapshot(fleet)
        n, w = await _phase(sessions, blocks, SLICE_S)
        cpu1 = _cpu_snapshot(fleet)
        after = ruler_s()
        host = speed([before, after])
        before = after
        cpu = [c + b - a for c, a, b in zip(cpu, cpu0, cpu1)]
        replies += n
        wall += w
        scaled += w * host
        new = [r for s, m in zip(sessions, marks) for r in s.rtts[m:]]
        rtts += new
        scaled_rtts += [r * host for r in new]
    per_ref = [1e6 * c / replies for c in cpu]
    req_b, rep_b = _message_bytes(sessions)
    p50 = 1e3 * median(scaled_rtts)
    print(f"gateway: replies={replies} wall_s={wall:.3f} "
          f"advice_per_s={replies / scaled:.1f} "
          f"raw_advice_per_s={replies / wall:.1f} p50_ms={p50:.4f} "
          f"raw_p50_ms={1e3 * median(rtts):.4f} "
          f"p99_ms={1e3 * quantile(rtts, 0.99):.4f} samples={len(rtts)} "
          f"host_speed={scaled / wall:.3f} "
          f"client_cpu_us={per_ref[0]:.1f} "
          f"gateway_cpu_us={per_ref[1]:.1f} worker_cpu_us={per_ref[2]:.1f} "
          f"wait_us={1e6 * sum(rtts) / len(rtts) - sum(per_ref):.1f} "
          f"request_bytes={req_b:.1f} reply_bytes={rep_b:.1f} "
          f"errors={sum(s.errors for s in sessions)}")

    values = {
        # Every reference a client streams is one OBSERVE reply.
        "refs_per_s": replies / scaled,
        "advice_per_s": replies / scaled,
        "advice_p50_ms": p50,
    }
    return values, sessions, None


async def _traced(workload: str, fleet: Fleet,
                  sessions: List[Session], blocks: List[int], seconds: float):
    """Alternate untraced and client-traced slices, then the server side."""
    spans = Spans()
    codec = _ProtocolSpans(spans)
    plain_refs = traced_refs = 0
    plain_s = traced_s = 0.0
    plain_cpu = [0.0, 0.0, 0.0]
    plain_rtts: List[float] = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        marks = [len(s.rtts) for s in sessions]
        cpu0 = _cpu_snapshot(fleet)
        replies, wall = await _phase(sessions, blocks, SLICE_S)
        cpu1 = _cpu_snapshot(fleet)
        plain_refs += replies
        plain_s += wall
        plain_cpu = [c + b - a for c, a, b in zip(plain_cpu, cpu0, cpu1)]
        plain_rtts += [r for s, m in zip(sessions, marks) for r in s.rtts[m:]]
        with codec:
            replies, wall = await _phase(sessions, blocks, SLICE_S, spans)
        traced_refs += replies
        traced_s += wall
    overhead = 100.0 * (1.0 - (traced_refs / traced_s) / (plain_refs / plain_s))
    client_self, _ = print_accounting(f"{workload} client", spans,
                                      traced_refs, overhead)

    hop_us, direct = await _hop(fleet, blocks)
    journal = sum(len(s.advice) for s in sessions)
    await _close(direct)

    replay_spans = Spans()
    replay = _replay(replay_spans, sessions, blocks)
    replay_refs = replay.refs
    replay_self, _ = print_accounting(
        f"{workload} server (in-process replay)", replay_spans, replay_refs)

    def us(self_s: Dict[str, float], name: str, refs: int) -> float:
        return 1e6 * self_s.get(name, 0.0) / refs

    def total_us(name: str) -> float:
        return 1e6 * replay_spans.total(name) / replay_refs

    client_us, gateway_us, worker_us = (
        1e6 * c / plain_refs for c in plain_cpu)
    mean_rtt_us = 1e6 * sum(plain_rtts) / len(plain_rtts)
    print(f"{workload}: cpu us/ref client={client_us:.1f} "
          f"gateway={gateway_us:.1f} "
          f"worker={worker_us:.1f} mean_rtt_us={mean_rtt_us:.1f} "
          f"hop_us={hop_us:.1f}")

    values = zeros(SIM_ONLY)
    values.update({
        "sim.step_self_us": us(replay_self, "sim.step", replay_refs),
        "policies.observe_us": us(replay_self, "policies.observe",
                                  replay_refs),
        "policies.prefetch_round_us": us(
            replay_self, "policies.prefetch_round", replay_refs),
        "policies.candidates_scored_per_ref":
            replay.candidates_scored / replay_refs,
        "cache.reference_us": us(replay_self, "cache.reference",
                                 replay_refs),
        "cache.reclaim_us": us(replay_self, "cache.reclaim", replay_refs),
        "session.observe_self_us": us(replay_self, "session.observe",
                                      replay_refs),
        "protocol.encode_request_us": us(
            client_self, "protocol.encode_request", traced_refs),
        "protocol.decode_request_us": us(
            replay_self, "protocol.decode_request", replay_refs),
        "protocol.encode_reply_us": us(
            replay_self, "protocol.encode_reply", replay_refs),
        "protocol.decode_reply_us": us(
            client_self, "protocol.decode_reply", traced_refs),
        "protocol.request_bytes": replay.request_bytes,
        "protocol.reply_bytes": replay.reply_bytes,
        "server.handle_self_us": us(replay_self, "server.handle",
                                    replay_refs),
        # The worker is the fleet's ``repro serve`` process.
        "server.cpu_us_per_ref": worker_us,
        "server.transport_us": worker_us - sum(
            total_us(name) for name in (
                "protocol.decode_request", "server.handle",
                "protocol.encode_reply")),
        "client.cpu_us_per_ref": client_us,
        "client.wait_us_per_ref":
            mean_rtt_us - client_us - gateway_us - worker_us,
        "client.rtt_p99_ms": 1e3 * quantile(plain_rtts, 0.99),
        "client.rtt_samples": float(len(plain_rtts)),
        "gateway.cpu_us_per_ref": gateway_us,
        "gateway.hop_us": hop_us,
        "gateway.journal_entries": float(journal),
        "worker.cpu_us_per_ref": worker_us,
        "trace.overhead_pct": overhead,
        "trace.unattributed_us": us(client_self, "client.session",
                                    traced_refs)
        + us(replay_self, "server.replay", replay_refs),
    })
    return values, sessions + direct, {"client": spans, "server": replay_spans}


async def _hop(fleet: Fleet, blocks: List[int]):
    """Gateway round-trip p50 minus direct-to-worker p50, one client each."""
    via, _ = await _open(fleet.port, GATEWAY_NAME)
    direct, _ = await _open(fleet.worker_port, WORKER_NAME)
    end = time.perf_counter() + HOP_S
    while time.perf_counter() < end:
        for s in (via, direct):
            await _phase([s], blocks, HOP_SLICE_S)
    hop_us = 1e6 * (median(via.rtts) - median(direct.rtts))
    return hop_us, [via, direct]


class Replay(NamedTuple):
    refs: int
    candidates_scored: int
    request_bytes: float
    reply_bytes: float


def _replay(spans: Spans, sessions: List[Session],
            blocks: List[int]) -> Replay:
    """Feed the workload's request lines through an in-process service.

    The lines are the ones each client sent, rebuilt byte for byte (the
    k-th OBSERVE of a connection carries id k + 2), interleaved across
    sessions the way the server received them.
    """
    service = PrefetchService()
    owned: set = set()
    for s in sessions:
        service.handle(OpenRequest(id=1, policy="tree",
                                   cache_size=CACHE_BLOCKS, session_id=s.sid),
                       owned)
        session = service.sessions[s.sid]
        session.observe = spans.wrap("session.observe", session.observe)
        instrument(spans, session.simulator)
    per_session = REPLAY_REFS // len(sessions)
    n = len(blocks)
    lines = [protocol.encode_request(ObserveRequest(
        id=k + 2, session=s.sid, block=blocks[k % n]))
        for k in range(per_session) for s in sessions]
    decode = spans.wrap("protocol.decode_request", protocol.decode_request)
    handle = spans.wrap("server.handle", service.handle)
    encode = spans.wrap("protocol.encode_reply", protocol.encode_reply)
    reply_bytes = 0
    with CandidateCounter() as candidates:
        token = spans.open("server.replay")
        for line in lines:
            reply_bytes += len(encode(handle(decode(line), owned)))
        spans.close(token)
    if service.metrics.errors:
        raise BenchError(f"in-process replay answered "
                         f"{service.metrics.errors} request(s) with errors")
    return Replay(len(lines), candidates.scored,
                  sum(map(len, lines)) / len(lines), reply_bytes / len(lines))

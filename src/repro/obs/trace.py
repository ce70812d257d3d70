"""Distributed request tracing: spans, deterministic sampling, NDJSON.

The serving stack emits *spans* — flat one-line records of a named stage
(``gateway.worker_rpc``, ``worker.predictor_step``) tied to a trace id
that rides protocol v3's additive ``trace`` field from client to gateway
to worker.  Three properties matter more than features:

* **Determinism.**  Trace ids (:func:`derive_trace_id`) and the
  head-based sampling decision (:func:`trace_fraction`) are pure
  functions of ``(seed, key)``, so a campaign replay traces the same
  sessions every run and bundle hashes stay byte-identical — trace data
  never feeds the hash, and the sampling never perturbs scheduling.
* **Bounded memory.**  Spans land in a fixed-capacity buffer.  With a
  trace directory configured the buffer flushes to disk when full; with
  none it degrades to a ring that drops the oldest span and counts the
  drop.
* **Cheap absence.**  Components hold an ``Optional[Tracer]``; a single
  ``None`` check is the whole cost when tracing is off.

Trace files are NDJSON — one JSON object per line, one file per
component (``gateway.ndjson``, ``w0.ndjson``, ``client.ndjson``) — so a
fleet's trace directory reassembles into per-request timelines with
nothing fancier than :func:`read_spans` and a sort on ``(trace, seq)``.

Every tracer also keeps per-stage totals (calls, total and max duration
per span name), folded in where a span leaves the buffer — a flushed
batch on the writer thread, a ring drop — and, for spans still
buffered, at read time, so recording a span pays nothing for them.
``--profile`` prints them (:meth:`Tracer.format_stages`), from a
ring-only tracer when no trace directory is given.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, Iterator, List, Optional

__all__ = ["Tracer", "derive_trace_id", "trace_fraction", "read_spans"]

#: Default span-buffer capacity; at ~160 bytes a span this bounds a
#: tracer to well under a megabyte.
DEFAULT_CAPACITY = 4096


def derive_trace_id(seed: int, key: str) -> str:
    """A 16-hex-digit trace id, a pure function of ``(seed, key)``.

    The gateway keys on the session id it just minted, replay clients on
    ``c<client>:s<session>`` — either way the same scenario seed yields
    the same ids run after run.
    """
    digest = hashlib.blake2b(
        f"{seed}:trace:{key}".encode("utf-8"), digest_size=8
    )
    return digest.hexdigest()


def trace_fraction(seed: int, trace_id: str) -> float:
    """Map a trace id to a deterministic fraction in ``[0, 1)``.

    Head-based sampling keeps a trace iff its fraction is below the
    sample rate, so every hop that knows the seed agrees on the keep
    decision without coordination.
    """
    digest = hashlib.blake2b(
        f"{seed}:sample:{trace_id}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


class _Stage:
    """Running totals for one span name."""

    __slots__ = ("calls", "total_s", "max_s")

    def __init__(
        self, calls: int = 0, total_s: float = 0.0, max_s: float = 0.0
    ) -> None:
        self.calls = calls
        self.total_s = total_s
        self.max_s = max_s


def _fold(totals: Dict[str, _Stage], entries: Iterable[tuple]) -> None:
    """Add buffered span tuples into per-span-name ``totals``."""
    for entry in entries:
        stage = totals.get(entry[1])
        if stage is None:
            stage = totals[entry[1]] = _Stage()
        duration_s = entry[3]
        stage.calls += 1
        stage.total_s += duration_s
        if duration_s > stage.max_s:
            stage.max_s = duration_s


class Tracer:
    """One component's span recorder: sample, buffer, flush.

    Thread-safe; the serve path records from the event loop while
    checkpoint/watchdog threads may flush.
    """

    def __init__(
        self,
        component: str,
        *,
        trace_dir: Optional[str] = None,
        sample: float = 1.0,
        seed: int = 0,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        self.component = component
        self.sample = sample
        self.seed = int(seed)
        self.capacity = capacity
        self.path: Optional[Path] = None
        if trace_dir is not None:
            root = Path(trace_dir)
            root.mkdir(parents=True, exist_ok=True)
            self.path = root / f"{component}.ndjson"
        self._buffer: Deque[Dict[str, Any]] = deque()
        self._lock = threading.Lock()
        self._seq = 0
        self.spans_dropped = 0
        self.spans_flushed = 0
        # Totals of the spans that have left the buffer: dropped ones at
        # once, a flushed batch when its write lands.  _stage_totals()
        # adds the spans still buffered.
        self._totals: Dict[str, _Stage] = {}
        # JSON encoding is the expensive part of a flush; cache one
        # encoder and do the work on a writer thread (chained via
        # ``_writer`` so batches land in seq order) to keep it off the
        # serving event loop.
        self._encode = json.JSONEncoder(
            sort_keys=True, separators=(",", ":")
        ).encode
        self._writer: Optional[threading.Thread] = None

    # -- sampling -----------------------------------------------------

    def new_trace_id(self, key: str) -> str:
        return derive_trace_id(self.seed, key)

    def sampled(self, trace_id: str) -> bool:
        if self.sample >= 1.0:
            return True
        if self.sample <= 0.0:
            return False
        return trace_fraction(self.seed, trace_id) < self.sample

    # -- recording ----------------------------------------------------

    def record(
        self,
        trace_id: str,
        span: str,
        start_s: float,
        duration_s: float,
        **fields: Any,
    ) -> None:
        """Buffer one span; flushes (or drops the oldest) when full.

        ``start_s`` is a local ``perf_counter`` reading — meaningful for
        ordering and deltas within one component, not across processes;
        cross-component ordering comes from ``(trace, seq)`` and the
        stage names themselves.

        The hot path buffers a raw tuple; dict assembly, rounding, and
        JSON encoding all happen at flush time on the writer thread, so
        a traced OBSERVE pays little more than a lock and an append.
        """
        with self._lock:
            self._seq += 1
            if len(self._buffer) >= self.capacity:
                if self.path is not None:
                    self._flush_locked()
                else:
                    _fold(self._totals, (self._buffer.popleft(),))
                    self.spans_dropped += 1
            self._buffer.append(
                (trace_id, span, start_s, duration_s, fields, self._seq)
            )

    @property
    def spans_recorded(self) -> int:
        """Total spans ever recorded (flushed + buffered + dropped).

        Every :meth:`record` stamps a fresh ``seq``, so the sequence
        counter *is* the recorded count — no second counter on the hot
        path.  Cumulative; survives :meth:`close`.
        """
        return self._seq

    def _record_dict(self, entry: tuple) -> Dict[str, Any]:
        trace_id, span, start_s, duration_s, fields, seq = entry
        record: Dict[str, Any] = {
            "trace": trace_id,
            "span": span,
            "ts": round(start_s, 6),
            "dur_us": round(duration_s * 1e6, 2),
        }
        if fields:
            record.update(fields)
        record["seq"] = seq
        return record

    def _format_entry(self, entry: tuple) -> str:
        """One NDJSON line straight from a buffered tuple — the fixed
        head is f-string-formatted without ever building the dict; only
        the variable ``fields`` tail goes through :meth:`_format`'s
        per-type dispatch (falling back to ``json`` on exotic values)."""
        trace_id, span, start_s, duration_s, fields, seq = entry
        if '"' in trace_id or "\\" in trace_id:
            # Foreign trace ids arrive off the wire unvalidated; anything
            # that would break the f-string JSON goes the slow safe way.
            return self._encode(self._record_dict(entry))
        head = (
            f'{{"trace":"{trace_id}","span":"{span}"'
            f',"ts":{round(start_s, 6)!r}'
            f',"dur_us":{round(duration_s * 1e6, 2)!r}'
        )
        if not fields:
            return f'{head},"seq":{seq}}}'
        parts = []
        for key, value in fields.items():
            kind = type(value)
            if kind is str:
                if '"' in value or "\\" in value:
                    return self._encode(self._record_dict(entry))
                parts.append(f'"{key}":"{value}"')
            elif kind is bool:
                parts.append(f'"{key}":{"true" if value else "false"}')
            elif kind is int or kind is float:
                parts.append(f'"{key}":{value!r}')
            else:
                return self._encode(self._record_dict(entry))
        return f'{head},{",".join(parts)},"seq":{seq}}}'

    def _write_batch(
        self, batch: List[tuple],
        after: Optional[threading.Thread],
    ) -> None:
        if after is not None:
            after.join()
        lines = "\n".join(map(self._format_entry, batch))
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(lines + "\n")
        with self._lock:
            self.spans_flushed += len(batch)
            # Per-stage accounting happens here, off the hot path.
            _fold(self._totals, batch)

    def timed(self, trace_id: str, span: str, **fields: Any) -> "_SpanTimer":
        """``with tracer.timed(tid, "gateway.worker_rpc"): ...``"""
        return _SpanTimer(self, trace_id, span, fields)

    # -- draining -----------------------------------------------------

    def _flush_locked(self) -> None:
        """Hand the buffered batch to a writer thread (lock held).

        The recording side pays only for the list copy; encoding and the
        file append happen off-thread, chained on the previous batch's
        writer so the NDJSON file stays in seq order.
        """
        if self.path is None or not self._buffer:
            return
        batch = list(self._buffer)
        self._buffer.clear()
        writer = threading.Thread(
            target=self._write_batch, args=(batch, self._writer),
            name=f"trace-flush-{self.component}", daemon=True,
        )
        self._writer = writer
        writer.start()

    def flush(self) -> None:
        """Write every buffered span to the NDJSON sink (if any), and
        wait until all pending batches are on disk."""
        with self._lock:
            self._flush_locked()
            writer = self._writer
            self._writer = None
        if writer is not None:
            writer.join()

    def close(self) -> None:
        self.flush()

    def spans(self) -> List[Dict[str, Any]]:
        """Buffered (not yet flushed) spans, oldest first."""
        with self._lock:
            entries = list(self._buffer)
        out = []
        for entry in entries:
            record = self._record_dict(entry)
            record["component"] = self.component
            out.append(record)
        return out

    def _stage_totals(self) -> Dict[str, _Stage]:
        """Totals over every span recorded so far (lock held): the
        flushed and dropped ones plus those still in the buffer."""
        totals = {
            name: _Stage(stage.calls, stage.total_s, stage.max_s)
            for name, stage in self._totals.items()
        }
        _fold(totals, self._buffer)
        return totals

    def summary(self) -> Dict[str, Any]:
        """Per-stage span counts plus buffer accounting — safe to ship
        in campaign ``results.json`` (never hash-covered)."""
        with self._lock:
            totals = self._stage_totals()
            return {
                "component": self.component,
                "sample": self.sample,
                "seed": self.seed,
                "spans_recorded": self.spans_recorded,
                "spans_flushed": self.spans_flushed,
                "spans_dropped": self.spans_dropped,
                "by_span": {
                    name: totals[name].calls for name in sorted(totals)
                },
            }

    def stages(self) -> Dict[str, Dict[str, float]]:
        """Snapshot ``{span: {calls, total_s, avg_us, max_us}}``."""
        with self._lock:
            totals = self._stage_totals()
        return {
            name: {
                "calls": stage.calls,
                "total_s": round(stage.total_s, 6),
                "avg_us": round(stage.total_s / stage.calls * 1e6, 3),
                "max_us": round(stage.max_s * 1e6, 3),
            }
            for name, stage in totals.items()
        }

    def format_stages(self, title: str = "profile") -> str:
        """:meth:`stages` as an aligned table, heaviest total first."""
        stages = self.stages()
        if not stages:
            return f"{title}: no stages recorded"
        order = sorted(
            stages.items(), key=lambda item: item[1]["total_s"], reverse=True
        )
        width = max(len(name) for name in stages)
        lines = [
            f"{title}: per-stage breakdown",
            f"  {'stage'.ljust(width)}  {'calls':>9}  {'total_s':>10}  "
            f"{'avg_us':>10}  {'max_us':>10}",
        ]
        for name, row in order:
            lines.append(
                f"  {name.ljust(width)}  {row['calls']:>9}  "
                f"{row['total_s']:>10.4f}  {row['avg_us']:>10.2f}  "
                f"{row['max_us']:>10.2f}"
            )
        return "\n".join(lines)


class _SpanTimer:
    __slots__ = ("_tracer", "_trace_id", "_span", "_fields", "_t0")

    def __init__(self, tracer, trace_id, span, fields) -> None:
        self._tracer = tracer
        self._trace_id = trace_id
        self._span = span
        self._fields = fields
        self._t0 = 0.0

    def __enter__(self) -> "_SpanTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        now = time.perf_counter()
        self._tracer.record(
            self._trace_id, self._span, self._t0, now - self._t0,
            **self._fields,
        )


def read_spans(path: str) -> Iterator[Dict[str, Any]]:
    """Yield spans from one ``.ndjson`` file or a whole trace directory.

    Blank lines are skipped; a torn final line (a crashed writer) is
    tolerated and dropped.  The ``component`` comes from the file name
    (``w0.ndjson`` → ``w0``) — the writers deliberately leave it out of
    every line rather than repeat it 4096 times a flush.
    """
    root = Path(path)
    files = (
        sorted(root.glob("*.ndjson")) if root.is_dir() else [root]
    )
    for file in files:
        try:
            text = file.read_text(encoding="utf-8")
        except FileNotFoundError:
            continue
        component = file.stem
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            record.setdefault("component", component)
            yield record

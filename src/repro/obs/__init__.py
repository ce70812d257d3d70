"""Observability: distributed tracing, metrics exposition, a live view.

Three instruments over one serving stack, built to answer "where does a
reference's 0.15 ms actually go?" without perturbing the answer:

* :mod:`repro.obs.trace` — per-request spans with a trace id that rides
  protocol v3's additive ``trace`` field client -> gateway -> worker,
  deterministic head-based sampling, bounded buffers, NDJSON sinks, and
  per-stage totals over the spans.  ``--profile`` prints those totals
  from a ring-only tracer that writes no file.
* :mod:`repro.obs.prom` — a Prometheus-text-format renderer over
  ``ServiceMetrics`` state (bare server or fleet-merged), served from
  the STATS path and the ``repro metrics`` CLI.
* :mod:`repro.obs.top` — the ``repro top`` live terminal view over
  fleet STATS.

Nothing in here is imported by the hot path unless switched on; tracing
costs one ``None`` check when idle.
"""

from repro.obs.trace import Tracer, derive_trace_id, read_spans, trace_fraction
from repro.obs.prom import render_exposition
from repro.obs.top import render_top, run_top

__all__ = [
    "Tracer",
    "derive_trace_id",
    "read_spans",
    "trace_fraction",
    "render_exposition",
    "render_top",
    "run_top",
]

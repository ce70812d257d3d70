"""``repro top``: a live terminal view over server-level STATS.

One STATS round trip per refresh — the same snapshot the Prometheus
exposition renders — formatted for a human watching a serve or fleet
run.  Against a bare server the view shows that worker; against a
gateway it shows fleet totals plus a per-worker table.  Rates
(advice/s) come from counter deltas between consecutive snapshots, so
the first frame shows totals only.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["render_top", "run_top"]


def _fmt_bytes(n: Any) -> str:
    try:
        value = float(n)
    except (TypeError, ValueError):
        return "-"
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{value:.1f}GiB"


def _rate(
    current: Dict[str, Any],
    prev: Optional[Dict[str, Any]],
    key: str,
    interval_s: Optional[float],
) -> str:
    if prev is None or not interval_s or interval_s <= 0:
        return "-"
    try:
        delta = float(current.get(key, 0)) - float(prev.get(key, 0))
    except (TypeError, ValueError):
        return "-"
    return f"{max(0.0, delta) / interval_s:.1f}/s"


def _latency_cell(metrics: Dict[str, Any]) -> str:
    observe = (metrics.get("command_latency") or {}).get("observe")
    if not observe or not observe.get("count"):
        return "p50=- p99=-"
    return (
        f"p50={observe['p50_ms']:.2f}ms p99={observe['p99_ms']:.2f}ms"
    )


def _accuracy_cell(metrics: Dict[str, Any]) -> str:
    accuracy = metrics.get("advice_accuracy")
    return "-" if accuracy is None else f"{100.0 * accuracy:.1f}%"


def _header(stats: Dict[str, Any]) -> str:
    uptime = stats.get("uptime_s")
    uptime_cell = "-" if uptime is None else f"{float(uptime):.0f}s"
    return (
        f"{stats.get('server', '?')}  pid={stats.get('pid', '-')}  "
        f"proto=v{stats.get('proto_version', stats.get('protocol', '?'))}  "
        f"up={uptime_cell}"
    )


def _server_lines(
    stats: Dict[str, Any],
    prev: Optional[Dict[str, Any]],
    interval_s: Optional[float],
) -> List[str]:
    metrics = stats.get("metrics") or {}
    prev_metrics = (prev or {}).get("metrics") or {}
    lines = [
        _header(stats) + f"  worker={stats.get('worker', '-')}",
        (
            f"sessions live={stats.get('live_sessions', 0)} "
            f"evicted={stats.get('evicted_sessions', 0)}  "
            f"model={_fmt_bytes(stats.get('model_bytes'))}  "
            f"brownout={stats.get('brownout_level', 0)}  "
            f"inflight={stats.get('inflight', 0)}"
        ),
        (
            f"advice issued={metrics.get('advice_issued', 0)} "
            f"({_rate(metrics, prev_metrics, 'advice_issued', interval_s)})  "
            f"accuracy={_accuracy_cell(metrics)}  "
            f"{_latency_cell(metrics)}"
        ),
        (
            f"errors={metrics.get('errors', 0)} "
            f"overload_rejections={metrics.get('overload_rejections', 0)} "
            f"tenants_rejected={metrics.get('tenants_rejected', 0)}"
        ),
    ]
    tenants = stats.get("tenants") or {}
    for name, gauges in sorted(tenants.items()):
        lines.append(
            f"  tenant {name}: sessions={gauges.get('sessions', 0)} "
            f"model={_fmt_bytes(gauges.get('model_bytes'))}"
        )
    return lines


def _fleet_lines(
    stats: Dict[str, Any],
    prev: Optional[Dict[str, Any]],
    interval_s: Optional[float],
) -> List[str]:
    fleet = stats.get("fleet") or {}
    prev_fleet = (prev or {}).get("fleet") or {}
    gateway = stats.get("gateway") or {}
    lines = [
        _header(stats) + f"  workers={stats.get('workers', 0)}",
        (
            f"fleet advice={fleet.get('advice_issued', 0)} "
            f"({_rate(fleet, prev_fleet, 'advice_issued', interval_s)})  "
            f"accuracy={_accuracy_cell(fleet)}  "
            f"{_latency_cell(fleet)}"
        ),
        (
            f"gateway failovers={gateway.get('failovers_resumed', 0)}"
            f"+{gateway.get('failovers_rebuilt', 0)}r "
            f"lost={gateway.get('sessions_lost', 0)}  "
            f"breakers={gateway.get('breakers_opened', 0)}  "
            f"shed={gateway.get('overload_rejections', 0)}"
        ),
        "  worker       sessions   advice      errors",
    ]
    per_worker = stats.get("per_worker") or {}
    for worker_id in sorted(per_worker):
        metrics = per_worker[worker_id]
        if metrics is None:
            lines.append(f"  {worker_id:<12} (unreachable)")
            continue
        lines.append(
            f"  {worker_id:<12} "
            f"{metrics.get('live_sessions', 0):>8}   "
            f"{metrics.get('advice_issued', 0):>6}      "
            f"{metrics.get('errors', 0):>6}"
        )
    return lines


def render_top(
    stats: Dict[str, Any],
    *,
    prev: Optional[Dict[str, Any]] = None,
    interval_s: Optional[float] = None,
) -> str:
    """Format one STATS snapshot; ``prev`` (the previous snapshot) and
    ``interval_s`` turn monotone counters into rates."""
    if stats.get("server") == "repro.gateway":
        lines = _fleet_lines(stats, prev, interval_s)
    else:
        lines = _server_lines(stats, prev, interval_s)
    return "\n".join(lines)


def run_top(
    host: str,
    port: int,
    *,
    interval_s: float = 2.0,
    iterations: Optional[int] = None,
    echo: Callable[[str], None] = print,
) -> None:
    """Poll server-level STATS every ``interval_s`` and echo the view.

    ``iterations`` bounds the loop for scripts and CI (``None`` = until
    interrupted).  One blocking connection is held for the whole run so
    the view costs a single round trip per frame.
    """
    from repro.service.client import ServiceClient

    prev: Optional[Dict[str, Any]] = None
    shown = 0
    with ServiceClient.connect(host, port) as client:
        while iterations is None or shown < iterations:
            stats = client.server_stats()
            frame = render_top(
                stats, prev=prev, interval_s=interval_s if prev else None
            )
            echo(frame)
            echo("")
            prev = stats
            shown += 1
            if iterations is not None and shown >= iterations:
                break
            try:
                time.sleep(interval_s)
            except KeyboardInterrupt:
                break

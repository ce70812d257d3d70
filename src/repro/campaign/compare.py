"""Compare two campaign bundles: per-metric deltas + regression flags.

The comparison has three verdict tiers:

* **reproduced** — the bundle hashes match.  Same scenario, same
  deterministic outcomes; nothing else to check.
* **regression** — the scenario hashes match but a deterministic field
  differs (or the candidate lost sessions, or a phase went missing).
  The runs should have been bit-identical and were not: the advisory
  stack changed behaviour.  ``repro campaign compare`` exits non-zero.
* **perf drift** — wall-clock metrics (advice/sec, latency percentiles)
  moved beyond tolerance.  Reported and flagged, but non-fatal by
  default: perf fields are machine-dependent, and the committed CI
  baseline was produced on different hardware.  ``--fail-on-perf``
  promotes drift to a failure for same-machine A/B runs.

When the scenario hashes differ the runs measured different experiments;
deterministic deltas are then expected and reported as informational
only (never a regression), so bundles can still be eyeballed across
scenario edits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.bundle import VOLATILE_PHASE_FLAGS, Bundle

#: Deterministic scalar metrics compared per phase (hash-covered).
DETERMINISTIC_METRICS = (
    "requests",
    "prefetches_recommended",
    "sessions",
    "churn_opened",
    "churn_closed",
    "sessions_lost",
)

#: Outcome counters, compared individually (hash-covered via "outcomes").
OUTCOME_KEYS = ("demand_hit", "prefetch_hit", "miss")

#: Wall-clock metrics from results.json: (name, higher_is_better).
PERF_METRICS = (
    ("advice_per_second", True),
    ("latency_p50_ms", False),
    ("latency_p95_ms", False),
    ("latency_p99_ms", False),
)

#: Relative drift in a perf metric tolerated before flagging.
DEFAULT_PERF_TOLERANCE = 0.5


@dataclass
class DeltaRow:
    """One metric of one phase, side by side."""

    phase: str
    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    kind: str  # "det" | "perf"
    flag: str = ""  # "", "REGRESSION", "PERF"

    @property
    def delta(self) -> Optional[float]:
        if self.baseline is None or self.candidate is None:
            return None
        return self.candidate - self.baseline


@dataclass
class Comparison:
    """The full verdict of one baseline-vs-candidate comparison."""

    baseline: Bundle
    candidate: Bundle
    scenario_match: bool
    reproduced: bool
    rows: List[DeltaRow] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)
    perf_flags: List[str] = field(default_factory=list)

    def passed(self, *, fail_on_perf: bool = False) -> bool:
        if self.regressions:
            return False
        if fail_on_perf and self.perf_flags:
            return False
        return True


def _phase_index(phases: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    return {str(phase.get("name")): phase for phase in phases}


def _number(record: Optional[Dict[str, Any]], key: str) -> Optional[float]:
    if record is None:
        return None
    value = record.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _outcome(record: Optional[Dict[str, Any]], key: str) -> Optional[float]:
    if record is None:
        return None
    outcomes = record.get("outcomes")
    if not isinstance(outcomes, dict):
        return None
    value = outcomes.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def compare_bundles(
    baseline: Bundle,
    candidate: Bundle,
    *,
    perf_tolerance: float = DEFAULT_PERF_TOLERANCE,
) -> Comparison:
    """Build the per-metric delta table and collect regressions."""
    scenario_match = (
        bool(baseline.scenario_hash)
        and baseline.scenario_hash == candidate.scenario_hash
        and baseline.workers == candidate.workers
    )
    comparison = Comparison(
        baseline=baseline,
        candidate=candidate,
        scenario_match=scenario_match,
        reproduced=(
            bool(baseline.bundle_hash)
            and baseline.bundle_hash == candidate.bundle_hash
        ),
    )
    base_det = _phase_index(baseline.deterministic_phases)
    cand_det = _phase_index(candidate.deterministic_phases)
    base_res = _phase_index(baseline.result_phases)
    cand_res = _phase_index(candidate.result_phases)

    if scenario_match:
        missing = sorted(set(base_det) - set(cand_det))
        extra = sorted(set(cand_det) - set(base_det))
        for name in missing:
            comparison.regressions.append(
                f"phase {name!r} missing from candidate"
            )
        for name in extra:
            comparison.regressions.append(
                f"phase {name!r} not present in baseline"
            )

    for name, base_phase in base_det.items():
        cand_phase = cand_det.get(name)
        volatile = any(
            bool(base_phase.get(flag)) or bool((cand_phase or {}).get(flag))
            for flag in VOLATILE_PHASE_FLAGS
        )
        det_metrics: Tuple[str, ...] = (
            ("sessions_lost",) if volatile else DETERMINISTIC_METRICS
        )
        for metric in det_metrics:
            row = DeltaRow(
                phase=name,
                metric=metric,
                baseline=_number(base_phase, metric),
                candidate=_number(cand_phase, metric),
                kind="det",
            )
            _flag_deterministic(comparison, row)
            comparison.rows.append(row)
        if not volatile:
            for key in OUTCOME_KEYS:
                row = DeltaRow(
                    phase=name,
                    metric=f"outcomes.{key}",
                    baseline=_outcome(base_phase, key),
                    candidate=_outcome(cand_phase, key),
                    kind="det",
                )
                _flag_deterministic(comparison, row)
                comparison.rows.append(row)
        for metric, higher_better in PERF_METRICS:
            row = DeltaRow(
                phase=name,
                metric=metric,
                baseline=_number(base_res.get(name), metric),
                candidate=_number(cand_res.get(name), metric),
                kind="perf",
            )
            _flag_perf(comparison, row, higher_better, perf_tolerance)
            comparison.rows.append(row)

    # Losing sessions is a regression regardless of what the baseline did.
    lost = sum(
        int(_number(phase, "sessions_lost") or 0)
        for phase in cand_det.values()
    )
    if lost > 0:
        comparison.regressions.append(
            f"candidate lost {lost} session(s) (sessions_lost > 0)"
        )
    return comparison


def _flag_deterministic(comparison: Comparison, row: DeltaRow) -> None:
    if not comparison.scenario_match:
        return  # different experiments; deltas are informational
    if row.candidate is None or row.baseline is None:
        return  # missing-phase regressions are reported separately
    if row.candidate != row.baseline:
        row.flag = "REGRESSION"
        comparison.regressions.append(
            f"{row.phase}: deterministic field {row.metric} changed "
            f"{row.baseline:g} -> {row.candidate:g} under an identical "
            "scenario"
        )


def _flag_perf(
    comparison: Comparison,
    row: DeltaRow,
    higher_better: bool,
    tolerance: float,
) -> None:
    if row.baseline is None or row.candidate is None or row.baseline <= 0:
        return
    drift = (row.candidate - row.baseline) / row.baseline
    worse = -drift if higher_better else drift
    if worse > tolerance:
        row.flag = "PERF"
        comparison.perf_flags.append(
            f"{row.phase}: {row.metric} moved {drift:+.0%} "
            f"({row.baseline:g} -> {row.candidate:g}), beyond "
            f"{tolerance:.0%} tolerance"
        )


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.2f}"


def _format_delta(row: DeltaRow) -> str:
    delta = row.delta
    if delta is None:
        return "-"
    if row.kind == "perf" and row.baseline:
        return f"{delta / row.baseline:+.1%}"
    if float(delta).is_integer():
        return f"{int(delta):+d}"
    return f"{delta:+.2f}"


def render_comparison(comparison: Comparison) -> str:
    """The human-facing report: header, per-phase table, verdict."""
    base, cand = comparison.baseline, comparison.candidate
    lines = [
        "campaign compare",
        f"  baseline:  {base.name} (bundle {base.bundle_hash[:12]}, "
        f"workers={base.workers}) at {base.path}",
        f"  candidate: {cand.name} (bundle {cand.bundle_hash[:12]}, "
        f"workers={cand.workers}) at {cand.path}",
        "  scenario:  "
        + (
            f"MATCH ({base.scenario_hash[:12]})"
            if comparison.scenario_match
            else f"DIFFER ({base.scenario_hash[:12]} vs "
            f"{cand.scenario_hash[:12]}) — deltas informational"
        ),
    ]
    if comparison.reproduced:
        lines.append(
            "  verdict:   REPRODUCED — bundle hashes are identical"
        )
    if not any(
        (_number(phase, "prefetches_recommended") or 0) > 0
        for phase in base.deterministic_phases
    ):
        lines.append(
            "  warning:   baseline hashes no prefetch decision; REPRODUCED "
            "does not exercise the cost-benefit gate"
        )
    header = f"  {'metric':<28}{'baseline':>14}{'candidate':>14}" \
             f"{'delta':>12}  flag"
    current_phase = None
    for row in comparison.rows:
        if row.phase != current_phase:
            current_phase = row.phase
            lines.append("")
            lines.append(f"phase {row.phase!r}")
            lines.append(header)
        lines.append(
            f"  {row.metric:<28}"
            f"{_format_value(row.baseline):>14}"
            f"{_format_value(row.candidate):>14}"
            f"{_format_delta(row):>12}"
            f"  {row.flag}".rstrip()
        )
    lines.append("")
    if comparison.regressions:
        lines.append(f"regressions ({len(comparison.regressions)}):")
        for note in comparison.regressions:
            lines.append(f"  ! {note}")
    if comparison.perf_flags:
        lines.append(f"perf drift ({len(comparison.perf_flags)}):")
        for note in comparison.perf_flags:
            lines.append(f"  ~ {note}")
    if not comparison.regressions and not comparison.perf_flags:
        lines.append(
            "ok: no deterministic regressions, perf within tolerance"
        )
    return "\n".join(lines)

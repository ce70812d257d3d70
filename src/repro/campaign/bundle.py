"""Reproducible campaign bundles: snapshot + results + content hash.

Every campaign run writes one *bundle directory*::

    <out>/<name>-<scenario_hash[:10]>-w<workers>/
        scenario.json   resolved scenario snapshot + its hash
        results.json    full phase reports, fleet metrics, environment
        bundle.json     the deterministic core + the bundle hash

``bundle.json`` is the comparison currency.  Its ``bundle_hash`` is the
SHA-256 of the canonical JSON of ``{scenario snapshot, workers,
deterministic phase outcomes}`` — and *only* the deterministic outcomes:
request counts, outcome totals, prefetch counts, session churn, and
sessions lost, all of which are pure functions of the scenario seed
(sessions are deterministic given their reference streams, and the
resilience layer guarantees advice parity across injected faults).
Wall-clock metrics — advice/sec, latency percentiles, retry counts,
fault-injection tallies — vary run to run and live only in
``results.json``.

The payoff: **two runs of one scenario produce byte-identical bundle
hashes**, on any machine, so a hash match *is* a reproduction and a
deterministic-field mismatch *is* a regression (see
:mod:`repro.campaign.compare`).  Phases that tolerate quota rejections
are the one exception — how many opens a busy worker refuses depends on
timing — so their volatile fields are excluded from the hash (flagged
``quota_tolerant``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaign.spec import ScenarioSpec, scenario_hash
from repro.store.codec import atomic_write, canonical_json

#: Bundle format marker, independent of the scenario schema.
BUNDLE_FORMAT = 1

#: Per-phase result fields that are pure functions of the scenario seed.
DETERMINISTIC_PHASE_FIELDS = (
    "requests",
    "outcomes",
    "prefetches_recommended",
    "sessions",
    "churn_opened",
    "churn_closed",
    "sessions_lost",
)


class BundleError(Exception):
    """A bundle directory is missing, malformed, or unreadable."""


#: Phase-result flags that mark a phase's counts as timing-dependent:
#: quota and overload rejections depend on admission timing, and a
#: worker kill makes request totals depend on checkpoint/failover races.
#: Only the flag itself and losslessness stay hash-covered for them.
VOLATILE_PHASE_FLAGS = ("quota_tolerant", "overload_tolerant", "failover")


def deterministic_phase_record(phase_result: Dict[str, Any]) -> Dict[str, Any]:
    """The hash-covered slice of one phase's result record."""
    record: Dict[str, Any] = {"name": phase_result["name"]}
    volatile = False
    for flag in VOLATILE_PHASE_FLAGS:
        if phase_result.get(flag):
            record[flag] = True
            volatile = True
    if volatile:
        record["sessions_lost"] = phase_result["sessions_lost"]
        return record
    for field in DETERMINISTIC_PHASE_FIELDS:
        record[field] = phase_result[field]
    return record


def bundle_hash_payload(
    scenario_snapshot: Dict[str, Any],
    workers: int,
    phase_results: List[Dict[str, Any]],
) -> Dict[str, Any]:
    return {
        "bundle_format": BUNDLE_FORMAT,
        "scenario": scenario_snapshot,
        "workers": workers,
        "phases": [
            deterministic_phase_record(result) for result in phase_results
        ],
    }


def compute_bundle_hash(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


def bundle_dir_name(scenario: ScenarioSpec, workers: int) -> str:
    return f"{scenario.name}-{scenario_hash(scenario)[:10]}-w{workers}"


def _write_json(path: Path, doc: Dict[str, Any]) -> None:
    """Atomic, newline-terminated, key-sorted JSON (diff-friendly)."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    atomic_write(path, text.encode("utf-8"))


def write_bundle(
    out_dir: str,
    scenario: ScenarioSpec,
    workers: int,
    phase_results: List[Dict[str, Any]],
    *,
    fleet_metrics: Optional[Dict[str, Any]] = None,
    environment: Optional[Dict[str, Any]] = None,
    trace_summary: Optional[Dict[str, Any]] = None,
) -> "Bundle":
    """Write one run's bundle directory; returns the loaded :class:`Bundle`.

    Re-running the same scenario overwrites the same directory — that is
    the point: the contents (minus ``results.json`` wall-clock fields)
    must come out identical.  ``trace_summary`` (span accounting from a
    traced run) is wall-clock territory: it lives in ``results.json``
    only and never enters the bundle hash.
    """
    snapshot = scenario.as_dict()
    s_hash = scenario_hash(scenario)
    payload = bundle_hash_payload(snapshot, workers, phase_results)
    b_hash = compute_bundle_hash(payload)
    root = Path(out_dir) / bundle_dir_name(scenario, workers)
    root.mkdir(parents=True, exist_ok=True)
    _write_json(root / "scenario.json", {
        "scenario": snapshot,
        "scenario_hash": s_hash,
    })
    _write_json(root / "results.json", {
        "phases": phase_results,
        "fleet_metrics": fleet_metrics,
        "environment": environment or {},
        "trace_summary": trace_summary,
    })
    _write_json(root / "bundle.json", {
        **payload,
        "name": scenario.name,
        "scenario_hash": s_hash,
        "bundle_hash": b_hash,
    })
    return load_bundle(root)


class Bundle:
    """One run's bundle, loaded back from disk."""

    def __init__(self, path: Path, doc: Dict[str, Any],
                 results: Optional[Dict[str, Any]]) -> None:
        self.path = path
        self.doc = doc
        self.results = results

    @property
    def name(self) -> str:
        return str(self.doc.get("name", self.path.name))

    @property
    def workers(self) -> int:
        return int(self.doc.get("workers", 0))

    @property
    def scenario_hash(self) -> str:
        return str(self.doc.get("scenario_hash", ""))

    @property
    def bundle_hash(self) -> str:
        return str(self.doc.get("bundle_hash", ""))

    @property
    def deterministic_phases(self) -> List[Dict[str, Any]]:
        return list(self.doc.get("phases", []))

    @property
    def result_phases(self) -> List[Dict[str, Any]]:
        if self.results is None:
            return []
        return list(self.results.get("phases", []))

    def verify(self) -> None:
        """Re-derive the bundle hash; raise on tampering/corruption."""
        payload = bundle_hash_payload(
            self.doc.get("scenario", {}), self.workers,
            self.deterministic_phases,
        )
        expected = compute_bundle_hash(payload)
        if expected != self.bundle_hash:
            raise BundleError(
                f"bundle {self.path} fails verification: stored hash "
                f"{self.bundle_hash[:12]} != recomputed {expected[:12]}"
            )


def load_bundle(path: str) -> Bundle:
    """Load a bundle directory (or a direct path to its bundle.json)."""
    root = Path(path)
    if root.is_file():
        root = root.parent
    bundle_path = root / "bundle.json"
    try:
        with open(bundle_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise BundleError(
            f"{root} is not a campaign bundle (no bundle.json)"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise BundleError(f"cannot read {bundle_path}: {exc}") from None
    results = None
    try:
        with open(root / "results.json", "r", encoding="utf-8") as fh:
            results = json.load(fh)
    except (OSError, json.JSONDecodeError):
        pass  # results are informational; the bundle core stands alone
    return Bundle(root, doc, results)


def list_bundles(out_dir: str) -> List[Bundle]:
    """Every bundle under ``out_dir``, sorted by directory name."""
    root = Path(out_dir)
    if not root.is_dir():
        return []
    bundles = []
    for entry in sorted(root.iterdir()):
        if (entry / "bundle.json").is_file():
            try:
                bundles.append(load_bundle(entry))
            except BundleError:
                continue
    return bundles

"""Bundle write/load/verify and the comparison verdict logic."""

import json

import pytest

from repro.campaign.bundle import (
    BundleError,
    bundle_dir_name,
    compute_bundle_hash,
    deterministic_phase_record,
    list_bundles,
    load_bundle,
    write_bundle,
)
from repro.campaign.compare import compare_bundles, render_comparison
from repro.campaign.spec import parse_scenario


def scenario(seed=11):
    return parse_scenario({
        "scenario": {"name": "demo", "seed": seed, "mode": "server"},
        "phase": [{"name": "one", "clients": 2, "refs": 100,
                   "mix": {"cello": 1.0}}],
    })


def phase_result(**overrides):
    base = {
        "name": "one",
        "clients": 2,
        "refs": 100,
        "quota_tolerant": False,
        "requests": 200,
        "outcomes": {"demand_hit": 20, "prefetch_hit": 5, "miss": 175},
        "prefetches_recommended": 9,
        "sessions": 2,
        "quota_rejected": 0,
        "churn_opened": 2,
        "churn_closed": 2,
        "sessions_lost": 0,
        "wall_seconds": 0.5,
        "advice_per_second": 400.0,
        "latency_p50_ms": 1.0,
        "latency_p95_ms": 2.0,
        "latency_p99_ms": 3.0,
        "retries": 0,
        "resumes": 0,
        "cold_restarts": 0,
        "degraded_clients": 0,
        "chaos": None,
    }
    base.update(overrides)
    return base


def write(tmp_path, sub="a", seed=11, results=None):
    return write_bundle(
        str(tmp_path / sub), scenario(seed), 1,
        [phase_result(**(results or {}))],
        environment={"python": "test"},
    )


class TestBundle:
    def test_write_and_load_round_trip(self, tmp_path):
        bundle = write(tmp_path)
        loaded = load_bundle(str(bundle.path))
        assert loaded.bundle_hash == bundle.bundle_hash
        assert loaded.workers == 1
        assert loaded.deterministic_phases[0]["requests"] == 200
        assert loaded.result_phases[0]["advice_per_second"] == 400.0
        loaded.verify()

    def test_load_accepts_bundle_json_path(self, tmp_path):
        bundle = write(tmp_path)
        loaded = load_bundle(str(bundle.path / "bundle.json"))
        assert loaded.bundle_hash == bundle.bundle_hash

    def test_dir_name_embeds_scenario_hash_and_workers(self, tmp_path):
        bundle = write(tmp_path)
        assert bundle.path.name == bundle_dir_name(scenario(), 1)
        assert bundle.path.name.startswith("demo-")
        assert bundle.path.name.endswith("-w1")

    def test_hash_ignores_wall_clock_fields(self, tmp_path):
        fast = write(tmp_path, "fast")
        slow = write(tmp_path, "slow", results={
            "advice_per_second": 4.0, "latency_p99_ms": 900.0,
            "wall_seconds": 60.0, "retries": 7,
        })
        assert fast.bundle_hash == slow.bundle_hash

    def test_hash_covers_deterministic_fields(self, tmp_path):
        a = write(tmp_path, "a")
        b = write(tmp_path, "b", results={"requests": 201})
        assert a.bundle_hash != b.bundle_hash

    def test_hash_covers_scenario(self, tmp_path):
        assert write(tmp_path, "a").bundle_hash != write(
            tmp_path, "b", seed=12
        ).bundle_hash

    def test_quota_tolerant_phase_hashes_only_losslessness(self):
        volatile = deterministic_phase_record(
            phase_result(quota_tolerant=True, requests=150)
        )
        assert volatile == {"name": "one", "quota_tolerant": True,
                            "sessions_lost": 0}

    def test_verify_catches_tampering(self, tmp_path):
        bundle = write(tmp_path)
        doc = json.loads((bundle.path / "bundle.json").read_text())
        doc["phases"][0]["requests"] = 999
        (bundle.path / "bundle.json").write_text(json.dumps(doc))
        with pytest.raises(BundleError, match="fails verification"):
            load_bundle(str(bundle.path)).verify()

    def test_missing_bundle(self, tmp_path):
        with pytest.raises(BundleError, match="no bundle.json"):
            load_bundle(str(tmp_path))

    def test_list_bundles(self, tmp_path):
        write(tmp_path, "out")
        (tmp_path / "out" / "not-a-bundle").mkdir()
        bundles = list_bundles(str(tmp_path / "out"))
        assert len(bundles) == 1
        assert list_bundles(str(tmp_path / "nowhere")) == []

    def test_rewrite_is_idempotent(self, tmp_path):
        first = write(tmp_path)
        second = write(tmp_path)
        assert first.path == second.path
        assert first.bundle_hash == second.bundle_hash

    def test_hash_is_recomputable(self, tmp_path):
        bundle = write(tmp_path)
        payload = {key: bundle.doc[key] for key in
                   ("bundle_format", "scenario", "workers", "phases")}
        assert compute_bundle_hash(payload) == bundle.bundle_hash


class TestCompare:
    def test_identical_runs_reproduce(self, tmp_path):
        comparison = compare_bundles(write(tmp_path, "a"),
                                     write(tmp_path, "b"))
        assert comparison.reproduced
        assert comparison.scenario_match
        assert comparison.passed()
        assert not comparison.regressions
        text = render_comparison(comparison)
        assert "REPRODUCED" in text
        assert "requests" in text

    def test_baseline_without_prefetches_warns(self, tmp_path):
        quiet = {"prefetches_recommended": 0}
        comparison = compare_bundles(write(tmp_path, "a", results=quiet),
                                     write(tmp_path, "b", results=quiet))
        text = render_comparison(comparison)
        assert "warning:   baseline hashes no prefetch decision" in text
        # the warning is advisory: verdict and gate are unchanged
        assert "REPRODUCED" in text
        assert comparison.passed()
        # a volatile phase hashes no advice either, whatever it recorded
        volatile = {"quota_tolerant": True, "prefetches_recommended": 9}
        comparison = compare_bundles(write(tmp_path, "c", results=volatile),
                                     write(tmp_path, "d", results=volatile))
        assert "no prefetch decision" in render_comparison(comparison)

    def test_baseline_with_prefetches_does_not_warn(self, tmp_path):
        comparison = compare_bundles(write(tmp_path, "a"),
                                     write(tmp_path, "b"))
        assert "warning:" not in render_comparison(comparison)

    def test_deterministic_mismatch_is_regression(self, tmp_path):
        comparison = compare_bundles(
            write(tmp_path, "a"),
            write(tmp_path, "b", results={
                "requests": 150,
                "outcomes": {"demand_hit": 10, "prefetch_hit": 5,
                             "miss": 135},
            }),
        )
        assert not comparison.reproduced
        assert not comparison.passed()
        assert any("requests" in note for note in comparison.regressions)
        assert "REGRESSION" in render_comparison(comparison)

    def test_sessions_lost_is_always_a_regression(self, tmp_path):
        comparison = compare_bundles(
            write(tmp_path, "a", results={"sessions_lost": 1}),
            write(tmp_path, "b", results={"sessions_lost": 1}),
        )
        # Even though baseline and candidate agree (hashes match), a
        # candidate that lost sessions must fail the gate.
        assert comparison.reproduced
        assert not comparison.passed()
        assert any("lost" in note for note in comparison.regressions)

    def test_perf_drift_is_flagged_but_non_fatal(self, tmp_path):
        comparison = compare_bundles(
            write(tmp_path, "a"),
            write(tmp_path, "b", results={"latency_p99_ms": 30.0}),
        )
        assert comparison.passed()
        assert not comparison.passed(fail_on_perf=True)
        assert any("latency_p99_ms" in note
                   for note in comparison.perf_flags)

    def test_perf_within_tolerance_is_clean(self, tmp_path):
        comparison = compare_bundles(
            write(tmp_path, "a"),
            write(tmp_path, "b", results={"latency_p99_ms": 3.3}),
        )
        assert not comparison.perf_flags
        assert "ok:" in render_comparison(comparison)

    def test_throughput_gain_is_not_flagged(self, tmp_path):
        comparison = compare_bundles(
            write(tmp_path, "a"),
            write(tmp_path, "b", results={"advice_per_second": 4000.0}),
        )
        assert not comparison.perf_flags

    def test_different_scenarios_never_regress(self, tmp_path):
        comparison = compare_bundles(
            write(tmp_path, "a", seed=11),
            write(tmp_path, "b", seed=12, results={"requests": 155}),
        )
        assert not comparison.scenario_match
        assert comparison.passed()
        assert "DIFFER" in render_comparison(comparison)

    def test_missing_phase_is_regression(self, tmp_path):
        baseline = write_bundle(
            str(tmp_path / "a"), scenario(), 1,
            [phase_result(),
             phase_result(name="two")],
        )
        candidate = write(tmp_path, "b")
        comparison = compare_bundles(baseline, candidate)
        assert any("missing" in note for note in comparison.regressions)
        assert not comparison.passed()

    def test_quota_tolerant_volatile_fields_not_compared(self, tmp_path):
        a = write(tmp_path, "a", results={"quota_tolerant": True,
                                          "requests": 100})
        b = write(tmp_path, "b", results={"quota_tolerant": True,
                                          "requests": 177})
        comparison = compare_bundles(a, b)
        assert comparison.reproduced
        assert comparison.passed()

"""Tests for RunSpec, spec hashing, and the batch execution wrapper."""

import pytest

from repro.analysis.scheduler import RunSpec, execute, run_batch, spec_hash


def spec(**overrides):
    base = dict(
        trace_name="cad",
        policy_name="no-prefetch",
        cache_size=64,
        num_references=1500,
        seed=3,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestRunSpec:
    def test_label(self):
        assert spec().label() == "cad/no-prefetch@64x1500"

    def test_frozen(self):
        s = spec()
        with pytest.raises(Exception):
            s.cache_size = 1  # type: ignore[misc]


class TestSpecHash:
    def test_stable_across_calls(self):
        assert spec_hash(spec()) == spec_hash(spec())
        assert len(spec_hash(spec())) == 64  # sha256 hex

    @pytest.mark.parametrize("change", [
        {"trace_name": "sitar"},
        {"policy_name": "tree"},
        {"cache_size": 128},
        {"num_references": 1501},
        {"seed": 4},
        {"t_cpu": 20.0},
        {"t_disk": 10.0},
        {"t_driver": 1.0},
        {"t_hit": 0.5},
        {"policy_kwargs": {"threshold": 0.1}},
        {"sim_kwargs": {"collect_per_file": True}},
    ])
    def test_every_field_is_load_bearing(self, change):
        assert spec_hash(spec(**change)) != spec_hash(spec())

    def test_kwargs_order_is_irrelevant(self):
        a = spec(policy_kwargs={"threshold": 0.1, "max_tree_nodes": 500})
        b = spec(policy_kwargs={"max_tree_nodes": 500, "threshold": 0.1})
        assert spec_hash(a) == spec_hash(b)

    def test_numerically_equal_but_distinct_types_collide_not(self):
        # str()-based keys conflated 0.1 (float) with "0.1" (string);
        # canonical JSON keeps them distinct.
        a = spec(policy_kwargs={"threshold": 0.1})
        b = spec(policy_kwargs={"threshold": "0.1"})
        assert spec_hash(a) != spec_hash(b)

    def test_non_json_kwargs_fail_loudly(self):
        with pytest.raises(TypeError):
            spec_hash(spec(policy_kwargs={"hook": object()}))


class TestExecute:
    def test_runs_and_tags(self):
        stats = execute(spec())
        stats.check_conservation()
        assert stats.extra["spec"] == "cad/no-prefetch@64x1500"
        assert stats.accesses == 1500

    def test_policy_kwargs(self):
        stats = execute(
            spec(policy_name="tree-threshold",
                 policy_kwargs={"threshold": 0.1})
        )
        assert stats.extra["threshold"] == 0.1

    def test_t_cpu_override(self):
        fast = execute(spec(policy_name="tree", t_cpu=5.0))
        slow = execute(spec(policy_name="tree", t_cpu=640.0))
        assert fast.elapsed_time < slow.elapsed_time

    def test_t_disk_override(self):
        fast = execute(spec(t_disk=1.0))
        slow = execute(spec(t_disk=150.0))
        assert fast.elapsed_time < slow.elapsed_time

    def test_overrides_default_to_paper_params(self):
        from repro.params import PAPER_PARAMS

        params = spec().params()
        assert params == PAPER_PARAMS
        assert spec(t_disk=10.0).params().t_disk == 10.0

    def test_cacheable_only_for_synthetic_names(self):
        assert spec().cacheable
        assert not spec(trace_name="/tmp/some.trace").cacheable


class TestRunBatch:
    def test_serial_order_preserved(self):
        specs = [spec(cache_size=c) for c in (32, 64, 128)]
        results = run_batch(specs)
        assert [r.extra["cache_size"] for r in results] == [32, 64, 128]

    def test_deterministic_across_modes(self):
        specs = [spec(policy_name="tree", cache_size=c) for c in (32, 64)]
        serial = run_batch(specs, max_workers=1)
        parallel = run_batch(specs, max_workers=2)
        assert [r.misses for r in serial] == [r.misses for r in parallel]
        assert [r.prefetches_issued for r in serial] == [
            r.prefetches_issued for r in parallel
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_batch([spec()], max_workers=0)

    def test_empty_batch(self):
        assert run_batch([]) == []

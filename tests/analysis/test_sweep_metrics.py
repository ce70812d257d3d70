"""Unit tests for cross-run metrics and the memoised runner."""

import pytest

from repro.analysis.metrics import miss_reduction
from repro.analysis.runner import ExperimentContext


class TestMetrics:
    def test_miss_reduction(self):
        assert miss_reduction(50.0, 25.0) == pytest.approx(50.0)
        assert miss_reduction(0.0, 10.0) == 0.0
        assert miss_reduction(40.0, 50.0) == pytest.approx(-25.0)


class TestRunner:
    def test_trace_memoised(self):
        ctx = ExperimentContext(num_references=500)
        assert ctx.trace("cad") is ctx.trace("cad")

    def test_run_memoised(self):
        ctx = ExperimentContext(num_references=500)
        a = ctx.run("cad", "no-prefetch", 16)
        b = ctx.run("cad", "no-prefetch", 16)
        assert a is b
        c = ctx.run("cad", "no-prefetch", 32)
        assert c is not a

    def test_policy_kwargs_distinguish_runs(self):
        ctx = ExperimentContext(num_references=500)
        a = ctx.run("cad", "tree-threshold", 16, policy_kwargs={"threshold": 0.1})
        b = ctx.run("cad", "tree-threshold", 16, policy_kwargs={"threshold": 0.3})
        assert a is not b

    def test_tcpu_distinguishes_runs(self):
        ctx = ExperimentContext(num_references=500)
        a = ctx.run("cad", "tree", 16, t_cpu=20.0)
        b = ctx.run("cad", "tree", 16, t_cpu=640.0)
        assert a is not b

    def test_sweep_uses_context_sizes(self):
        ctx = ExperimentContext(num_references=300, cache_sizes=(8, 16))
        runs = ctx.sweep("cad", "no-prefetch")
        assert len(runs) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentContext(num_references=0)


class TestDefaultContext:
    def test_singleton_and_conflict(self):
        import repro.analysis.runner as runner_mod

        # Isolate from any earlier initialisation.
        old = runner_mod._default_context
        runner_mod._default_context = None
        try:
            ctx = runner_mod.default_context(num_references=1000)
            assert runner_mod.default_context() is ctx
            assert runner_mod.default_context(num_references=1000) is ctx
            with pytest.raises(RuntimeError):
                runner_mod.default_context(num_references=2000)
        finally:
            runner_mod._default_context = old

    def test_seed_conflict_detected_without_refs(self):
        """A differing seed raises even when num_references is left unset.

        The old guard only compared seeds inside the ``num_references is
        not None`` branch, so ``default_context(seed=7)`` silently handed
        back a context built with another seed.
        """
        import repro.analysis.runner as runner_mod

        old = runner_mod._default_context
        runner_mod._default_context = None
        try:
            ctx = runner_mod.default_context(num_references=1000, seed=3)
            assert runner_mod.default_context(seed=3) is ctx
            with pytest.raises(RuntimeError):
                runner_mod.default_context(seed=7)
        finally:
            runner_mod._default_context = old

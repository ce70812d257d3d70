"""Scheduler fault tolerance: worker crashes, hangs, and the retry pass.

The stand-in task functions live at module level so the process pool can
pickle them by reference; "fail exactly once" is coordinated through a
marker file whose path rides in the ``REPRO_TEST_FAULT_MARKER``
environment variable (fork-inherited by workers).
"""

import os
import time

import pytest

from repro.analysis import scheduler as scheduler_module
from repro.analysis.scheduler import RunSpec, Scheduler, SchedulerError, execute

_MARKER_ENV = "REPRO_TEST_FAULT_MARKER"


def spec(**overrides):
    base = dict(
        trace_name="cad",
        policy_name="no-prefetch",
        cache_size=64,
        num_references=300,
        seed=3,
    )
    base.update(overrides)
    return RunSpec(**base)


def _marker_absent_then_created():
    """True exactly once per marker file (the first caller wins)."""
    marker = os.environ[_MARKER_ENV]
    if os.path.exists(marker):
        return False
    with open(marker, "w"):
        pass
    return True


def _crash_once(run_spec):
    if _marker_absent_then_created():
        os._exit(17)  # simulate a segfaulting worker
    return execute(run_spec)


def _hang_once(run_spec):
    if _marker_absent_then_created():
        time.sleep(300.0)
    return execute(run_spec)


def _always_crash(run_spec):
    os._exit(17)


def _always_hang(run_spec):
    time.sleep(300.0)


@pytest.fixture
def marker(tmp_path, monkeypatch):
    path = tmp_path / "fault-already-fired"
    monkeypatch.setenv(_MARKER_ENV, str(path))
    return path


def record_sans_walltime(stats):
    record = stats.to_record()
    record["extra"] = {
        k: v for k, v in record["extra"].items() if k != "wall_time_s"
    }
    return record


class TestWorkerCrash:
    def test_one_crash_poisons_nothing(self, marker):
        """A worker that dies mid-batch costs a retry, not the batch."""
        specs = [spec(seed=s) for s in (1, 2, 3, 4)]
        sch = Scheduler(max_workers=2, task=_crash_once)
        results = sch.run_all(specs)
        want = [execute(s) for s in specs]
        for got, expected in zip(results, want):
            assert record_sans_walltime(got) == record_sans_walltime(expected)
        assert sch.counters.retried >= 1
        assert sch.counters.executed == len(specs)

    def test_crash_while_queueing_is_retried(self, marker, monkeypatch):
        """A worker that dies before the batch is queued breaks the pool
        under the next submit; the unqueued specs are retried too."""

        class QueuesAfterACrash(scheduler_module.ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                if getattr(self, "queued", 0):
                    deadline = time.monotonic() + 10.0
                    while not self._broken and time.monotonic() < deadline:
                        time.sleep(0.01)
                self.queued = getattr(self, "queued", 0) + 1
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(scheduler_module, "ProcessPoolExecutor",
                            QueuesAfterACrash)
        specs = [spec(seed=s) for s in (1, 2, 3)]
        sch = Scheduler(max_workers=2, task=_crash_once)
        results = sch.run_all(specs)
        want = [execute(s) for s in specs]
        for got, expected in zip(results, want):
            assert record_sans_walltime(got) == record_sans_walltime(expected)
        assert sch.counters.retried == len(specs)

    def test_persistent_crash_is_a_scheduler_error(self):
        specs = [spec(seed=s) for s in (1, 2)]
        sch = Scheduler(max_workers=2, task=_always_crash)
        with pytest.raises(SchedulerError, match="crashed twice"):
            sch.run_all(specs)


class TestRunTimeout:
    def test_hung_worker_is_terminated_and_retried(self, marker):
        specs = [spec(seed=s) for s in (1, 2, 3)]
        sch = Scheduler(max_workers=2, task=_hang_once, run_timeout_s=1.5)
        started = time.monotonic()
        results = sch.run_all(specs)
        elapsed = time.monotonic() - started
        want = [execute(s) for s in specs]
        for got, expected in zip(results, want):
            assert record_sans_walltime(got) == record_sans_walltime(expected)
        assert sch.counters.retried >= 1
        # one timeout plus retries, not 300 s of sleeping
        assert elapsed < 30.0

    def test_persistent_hang_is_a_scheduler_error(self):
        specs = [spec(seed=s) for s in (1, 2)]
        sch = Scheduler(
            max_workers=2, task=_always_hang, run_timeout_s=0.5
        )
        with pytest.raises(SchedulerError, match="timed out twice"):
            sch.run_all(specs)

    def test_run_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="run_timeout_s"):
            Scheduler(run_timeout_s=0.0)


class TestCounters:
    def test_retried_is_reported(self, marker):
        sch = Scheduler(max_workers=2, task=_crash_once)
        sch.run_all([spec(seed=s) for s in (1, 2)])
        assert sch.counters.as_dict()["retried"] >= 1
        assert "retried=" in sch.counters.summary()

    def test_fault_free_batch_never_retries(self):
        sch = Scheduler(max_workers=2)
        sch.run_all([spec(seed=s) for s in (1, 2)])
        assert sch.counters.retried == 0

"""Tracer core: deterministic ids, sampling, buffering, NDJSON fidelity.

Every line a tracer writes must parse back to exactly what was recorded
— the formatter's f-string fast path and its ``json`` fallback have to
be indistinguishable to a reader — and the accounting (recorded /
flushed / dropped) must add up no matter how the buffer cycled.
"""

import json
import sys
import threading

import pytest

from repro.obs.trace import (
    Tracer, derive_trace_id, read_spans, trace_fraction,
)


class TestDeterminism:
    def test_trace_id_is_a_pure_function_of_seed_and_key(self):
        assert derive_trace_id(7, "c0:s0") == derive_trace_id(7, "c0:s0")
        assert derive_trace_id(7, "c0:s0") != derive_trace_id(8, "c0:s0")
        assert derive_trace_id(7, "c0:s0") != derive_trace_id(7, "c0:s1")

    def test_trace_id_shape(self):
        trace_id = derive_trace_id(0, "anything")
        assert len(trace_id) == 16
        int(trace_id, 16)  # hex or raise

    def test_fraction_is_deterministic_and_bounded(self):
        ids = [derive_trace_id(1, f"k{i}") for i in range(200)]
        for trace_id in ids:
            fraction = trace_fraction(1, trace_id)
            assert 0.0 <= fraction < 1.0
            assert fraction == trace_fraction(1, trace_id)

    def test_fraction_spreads(self):
        """Head sampling at rate r should keep roughly r of the ids."""
        ids = [derive_trace_id(2, f"k{i}") for i in range(1000)]
        kept = sum(1 for t in ids if trace_fraction(2, t) < 0.25)
        assert 150 < kept < 350


class TestSampling:
    def test_sample_one_keeps_everything(self):
        tracer = Tracer("t", sample=1.0, seed=3)
        assert all(
            tracer.sampled(tracer.new_trace_id(f"k{i}")) for i in range(50)
        )

    def test_sample_zero_keeps_nothing(self):
        tracer = Tracer("t", sample=0.0, seed=3)
        assert not any(
            tracer.sampled(tracer.new_trace_id(f"k{i}")) for i in range(50)
        )

    def test_partial_sampling_agrees_with_fraction(self):
        tracer = Tracer("t", sample=0.5, seed=9)
        for i in range(100):
            trace_id = tracer.new_trace_id(f"k{i}")
            assert tracer.sampled(trace_id) == (
                trace_fraction(9, trace_id) < 0.5
            )

    def test_every_hop_agrees_without_coordination(self):
        """Two tracers with the same seed make identical keep decisions."""
        a = Tracer("client", sample=0.3, seed=5)
        b = Tracer("gateway", sample=0.3, seed=5)
        ids = [a.new_trace_id(f"s{i}") for i in range(100)]
        assert [a.sampled(t) for t in ids] == [b.sampled(t) for t in ids]

    @pytest.mark.parametrize("sample", [-0.1, 1.5])
    def test_bad_sample_rejected(self, sample):
        with pytest.raises(ValueError):
            Tracer("t", sample=sample)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer("t", capacity=0)


class TestRingMode:
    """No trace_dir: a bounded ring that drops the oldest and counts it."""

    def test_drops_oldest_and_counts(self):
        tracer = Tracer("ring", capacity=4)
        for i in range(10):
            tracer.record("tid", f"stage.{i}", float(i), 0.001)
        assert tracer.spans_recorded == 10
        assert tracer.spans_dropped == 6
        spans = tracer.spans()
        assert len(spans) == 4
        assert [s["span"] for s in spans] == [
            "stage.6", "stage.7", "stage.8", "stage.9"
        ]
        # seq is global, not per-buffer: survivors keep their stamps
        assert [s["seq"] for s in spans] == [7, 8, 9, 10]

    def test_summary_counts_buffered_spans(self):
        tracer = Tracer("ring", capacity=8)
        for _ in range(3):
            tracer.record("tid", "a.b", 0.0, 0.0)
        summary = tracer.summary()
        assert summary["by_span"] == {"a.b": 3}
        assert summary["spans_recorded"] == 3
        assert summary["spans_flushed"] == 0

    def test_totals_count_dropped_spans(self):
        tracer = Tracer("ring", capacity=4)
        for i in range(10):
            tracer.record("tid", "a.b", 0.0, 0.001 * (i + 1))
        assert tracer.spans_dropped == 6
        stage = tracer.stages()["a.b"]
        assert stage["calls"] == 10
        assert abs(stage["max_us"] - 10000.0) < 0.01
        assert abs(stage["total_s"] - 0.055) < 1e-9
        by_span = tracer.summary()["by_span"]
        assert sum(by_span.values()) == tracer.spans_recorded == 10


class TestStageMath:
    """Per-span-name calls / total / max — what ``--profile`` prints."""

    def test_record_accumulates(self):
        tracer = Tracer("t")
        for duration in (0.002, 0.004, 0.003):
            tracer.record("tid", "x.y", 0.0, duration)
        stage = tracer.stages()["x.y"]
        assert stage["calls"] == 3
        assert abs(stage["total_s"] - 0.009) < 1e-9
        assert abs(stage["avg_us"] - 3000.0) < 0.01
        assert abs(stage["max_us"] - 4000.0) < 0.01

    def test_stages_is_a_snapshot(self):
        tracer = Tracer("t")
        tracer.record("tid", "x.y", 0.0, 0.001)
        snapshot = tracer.stages()
        tracer.record("tid", "x.y", 0.0, 0.001)
        assert snapshot["x.y"]["calls"] == 1
        assert tracer.stages()["x.y"]["calls"] == 2

    def test_totals_span_flushed_and_buffered(self, tmp_path):
        tracer = Tracer("w0", trace_dir=str(tmp_path), capacity=8)
        for _ in range(20):  # two background flushes on the way
            tracer.record("tid", "a.b", 0.0, 0.001)
        tracer.flush()
        for _ in range(3):  # still buffered
            tracer.record("tid", "a.b", 0.0, 0.001)
        assert tracer.stages()["a.b"]["calls"] == 23
        assert tracer.summary()["by_span"] == {"a.b": 23}
        tracer.close()
        assert tracer.stages()["a.b"]["calls"] == 23

    @pytest.mark.parametrize("sink", ["ring", "dir"])
    def test_concurrent_recorders_lose_no_count(self, tmp_path, sink):
        """Recorders race each other and the writer threads (or the
        ring's drop) for the totals; every span must still count."""
        tracer = Tracer(
            "w0", capacity=16,
            trace_dir=str(tmp_path) if sink == "dir" else None,
        )
        per_thread = 2000

        def _record():
            for _ in range(per_thread):
                tracer.record("tid", "a.b", 0.0, 0.001)

        threads = [threading.Thread(target=_record) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        tracer.close()
        total = per_thread * len(threads)
        assert tracer.stages()["a.b"]["calls"] == total
        assert tracer.summary()["by_span"] == {"a.b": total}


class TestFormatReport:
    def test_empty_report_says_so(self):
        assert "no stages recorded" in Tracer("t").format_stages()

    def test_table_orders_by_total_and_includes_stages(self):
        tracer = Tracer("t")
        tracer.record("tid", "worker.open", 0.0, 0.1)
        tracer.record("tid", "worker.predictor_step", 0.0, 0.5)
        lines = tracer.format_stages("serve profile").split("\n")
        assert lines[0] == "serve profile: per-stage breakdown"
        assert lines[1].split() == [
            "stage", "calls", "total_s", "avg_us", "max_us"
        ]
        assert [line.split()[0] for line in lines[2:]] == [
            "worker.predictor_step", "worker.open"
        ]


class TestFlush:
    def test_every_span_lands_in_seq_order(self, tmp_path):
        """More spans than capacity forces mid-run background flushes;
        nothing may be lost or reordered across batch boundaries."""
        tracer = Tracer(
            "w0", trace_dir=str(tmp_path), capacity=128, sample=1.0
        )
        total = 1000
        for i in range(total):
            tracer.record("tid", "worker.step", float(i), 0.0001, i=i)
        tracer.close()
        spans = list(read_spans(str(tmp_path / "w0.ndjson")))
        assert len(spans) == total
        assert [s["seq"] for s in spans] == list(range(1, total + 1))
        assert [s["i"] for s in spans] == list(range(total))
        assert tracer.spans_flushed == total
        assert tracer.spans_dropped == 0

    def test_spans_recorded_survives_close(self, tmp_path):
        tracer = Tracer("w0", trace_dir=str(tmp_path))
        tracer.record("tid", "a.b", 0.0, 0.0)
        tracer.close()
        assert tracer.spans_recorded == 1
        tracer.record("tid", "a.b", 0.0, 0.0)
        tracer.close()
        assert tracer.spans_recorded == 2
        assert tracer.spans_flushed == 2

    def test_summary_merges_flushed_and_buffered(self, tmp_path):
        tracer = Tracer("w0", trace_dir=str(tmp_path))
        tracer.record("tid", "a.b", 0.0, 0.0)
        tracer.flush()
        tracer.record("tid", "c.d", 0.0, 0.0)  # still buffered
        summary = tracer.summary()
        assert summary["by_span"] == {"a.b": 1, "c.d": 1}
        tracer.close()


class TestNdjsonFidelity:
    """The fast-path formatter and the json fallback must agree."""

    def _roundtrip(self, tmp_path, *records):
        tracer = Tracer("w0", trace_dir=str(tmp_path), sample=1.0)
        for trace_id, span, fields in records:
            tracer.record(trace_id, span, 1.25, 0.000333, **fields)
        tracer.close()
        lines = (tmp_path / "w0.ndjson").read_text().splitlines()
        assert len(lines) == len(records)
        return [json.loads(line) for line in lines]

    def test_plain_fields(self, tmp_path):
        (got,) = self._roundtrip(
            tmp_path, ("abc123", "worker.open", {"session": "s-1",
                                                 "resumed": 0}),
        )
        assert got["trace"] == "abc123"
        assert got["span"] == "worker.open"
        assert got["session"] == "s-1"
        assert got["resumed"] == 0
        assert got["ts"] == 1.25
        assert got["dur_us"] == 333.0
        assert got["seq"] == 1

    def test_bool_float_and_negative_fields(self, tmp_path):
        (got,) = self._roundtrip(
            tmp_path,
            ("t", "x.y", {"ok": True, "bad": False, "ratio": -0.5}),
        )
        assert got["ok"] is True
        assert got["bad"] is False
        assert got["ratio"] == -0.5

    def test_fields_needing_escapes_fall_back_to_real_json(self, tmp_path):
        (got,) = self._roundtrip(
            tmp_path, ("t", "x.y", {"msg": 'say "hi"\\now'}),
        )
        assert got["msg"] == 'say "hi"\\now'

    def test_exotic_field_values_fall_back(self, tmp_path):
        (got,) = self._roundtrip(
            tmp_path, ("t", "x.y", {"workers": ["w0", "w1"], "none": None}),
        )
        assert got["workers"] == ["w0", "w1"]
        assert got["none"] is None

    def test_hostile_trace_id_off_the_wire(self, tmp_path):
        """Foreign OPENs carry unvalidated trace ids; quoting must hold."""
        (got,) = self._roundtrip(tmp_path, ('evil"\\id', "x.y", {}))
        assert got["trace"] == 'evil"\\id'

    def test_component_is_not_repeated_per_line(self, tmp_path):
        """The component lives in the file name, not in 4096 copies."""
        tracer = Tracer("gateway", trace_dir=str(tmp_path))
        tracer.record("t", "gateway.admission", 0.0, 0.0)
        tracer.close()
        raw = (tmp_path / "gateway.ndjson").read_text()
        assert "component" not in raw
        (span,) = read_spans(str(tmp_path))
        assert span["component"] == "gateway"


class TestReadSpans:
    def test_directory_read_merges_files_with_components(self, tmp_path):
        for component in ("client", "gateway", "w0"):
            tracer = Tracer(component, trace_dir=str(tmp_path))
            tracer.record("shared", f"{component}.stage", 0.0, 0.0)
            tracer.close()
        spans = list(read_spans(str(tmp_path)))
        assert {s["component"] for s in spans} == {"client", "gateway", "w0"}
        assert all(s["trace"] == "shared" for s in spans)

    def test_blank_and_torn_lines_tolerated(self, tmp_path):
        path = tmp_path / "w0.ndjson"
        good = '{"trace":"t","span":"a.b","ts":0,"dur_us":1,"seq":1}'
        path.write_text(f"{good}\n\n{good[:20]}")  # blank + torn tail
        spans = list(read_spans(str(path)))
        assert len(spans) == 1
        assert spans[0]["span"] == "a.b"

    def test_empty_directory_yields_nothing(self, tmp_path):
        assert list(read_spans(str(tmp_path))) == []


class TestSpanTimer:
    def test_timed_context_manager_records_duration(self, tmp_path):
        tracer = Tracer("w0", trace_dir=str(tmp_path), sample=1.0)
        with tracer.timed("tid", "gateway.worker_rpc", worker="w3"):
            sum(range(1000))
        tracer.close()
        (span,) = read_spans(str(tmp_path))
        assert span["span"] == "gateway.worker_rpc"
        assert span["worker"] == "w3"
        assert span["dur_us"] >= 0

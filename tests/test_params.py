"""Unit tests for the system-model parameters."""

import pytest

from repro.params import PAPER_PARAMS, SystemParams


class TestPaperConstants:
    def test_section_8_1_values(self):
        assert PAPER_PARAMS.t_hit == 0.243
        assert PAPER_PARAMS.t_driver == 0.580
        assert PAPER_PARAMS.t_disk == 15.0
        assert PAPER_PARAMS.t_cpu == 50.0

    def test_t_miss(self):
        """T_miss = T_driver + T_disk + T_hit (Section 6.2)."""
        assert PAPER_PARAMS.t_miss == pytest.approx(0.58 + 15.0 + 0.243)


class TestSystemParams:
    def test_access_period_compute(self):
        p = SystemParams()
        assert p.access_period_compute(2.0) == pytest.approx(
            50.0 + 0.243 + 2 * 0.58
        )

    def test_access_period_compute_validation(self):
        with pytest.raises(ValueError):
            SystemParams().access_period_compute(-1.0)

    def test_bytes_to_blocks(self):
        p = SystemParams(block_size=8192)
        assert p.bytes_to_blocks(30 * 1024 * 1024) == 3840
        assert p.bytes_to_blocks(5 * 1024 * 1024) == 640

    def test_with_t_cpu(self):
        p = PAPER_PARAMS.with_t_cpu(640.0)
        assert p.t_cpu == 640.0
        assert p.t_disk == PAPER_PARAMS.t_disk
        assert PAPER_PARAMS.t_cpu == 50.0  # original untouched

    def test_immutable(self):
        with pytest.raises(Exception):
            PAPER_PARAMS.t_disk = 1.0  # type: ignore[misc]

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(t_disk=0.0)
        with pytest.raises(ValueError):
            SystemParams(t_hit=-1.0)
        with pytest.raises(ValueError):
            SystemParams(block_size=0)
        with pytest.raises(ValueError):
            SystemParams().bytes_to_blocks(-1)

    @pytest.mark.parametrize("name", ["t_hit", "t_driver", "t_disk", "t_cpu"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_timing_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SystemParams(**{name: value})

    def test_as_dict(self):
        d = SystemParams().as_dict()
        assert d["t_disk"] == 15.0
        assert set(d) == {"t_hit", "t_driver", "t_disk", "t_cpu", "block_size"}

    def test_hashable(self):
        assert hash(SystemParams()) == hash(SystemParams())

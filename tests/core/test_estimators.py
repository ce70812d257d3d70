"""Unit tests for the online estimator of ``s``."""

import pytest

from repro.core.estimators import EwmaRate, PrefetchRateEstimator


class TestEwmaRate:
    def test_initial_value(self):
        e = EwmaRate(alpha=0.1, initial=2.0)
        assert e.value == 2.0

    def test_first_observation_snaps(self):
        e = EwmaRate(alpha=0.1, initial=5.0)
        e.observe(1.0)
        assert e.value == 1.0

    def test_smoothing(self):
        e = EwmaRate(alpha=0.5)
        e.observe(0.0)
        e.observe(4.0)
        assert e.value == pytest.approx(2.0)

    def test_converges_to_constant(self):
        e = EwmaRate(alpha=0.2)
        for _ in range(200):
            e.observe(3.0)
        assert e.value == pytest.approx(3.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            EwmaRate(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaRate(alpha=1.5)


class TestPrefetchRateEstimator:
    def test_lifetime_mean(self):
        est = PrefetchRateEstimator()
        for n in (2, 0, 4):
            est.end_period(n)
        assert est.lifetime_mean == pytest.approx(2.0)
        assert est.periods == 3

    def test_s_tracks_recent(self):
        est = PrefetchRateEstimator(alpha=0.5)
        for _ in range(50):
            est.end_period(2)
        assert est.s == pytest.approx(2.0, abs=1e-6)

    def test_negative_rejected(self):
        est = PrefetchRateEstimator()
        with pytest.raises(ValueError):
            est.end_period(-1)

    def test_empty(self):
        est = PrefetchRateEstimator(initial=1.0)
        assert est.lifetime_mean == 0.0
        assert est.s == 1.0

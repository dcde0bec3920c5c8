"""Tests for repro.metrics.quality."""

import numpy as np
import pytest

from repro.metrics import max_abs_error, mean_abs_error, nrmse, psnr, quality_report, rmse


class TestRmse:
    def test_identical_arrays_zero(self):
        a = np.linspace(0, 1, 100)
        assert rmse(a, a) == 0.0

    def test_known_value(self):
        a = np.array([0.0, 0.0, 0.0, 0.0])
        b = np.array([1.0, -1.0, 1.0, -1.0])
        assert rmse(a, b) == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same size"):
            rmse(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rmse(np.zeros(0), np.zeros(0))


class TestNrmse:
    def test_normalisation_by_range(self):
        a = np.array([0.0, 10.0])
        b = np.array([1.0, 10.0])
        # rmse = sqrt(0.5), range = 10
        assert nrmse(a, b) == pytest.approx(np.sqrt(0.5) / 10.0)

    def test_constant_original_uses_unit_range(self):
        a = np.full(10, 3.0)
        b = a + 0.5
        assert nrmse(a, b) == pytest.approx(0.5)


class TestPsnr:
    def test_exact_reconstruction_is_infinite(self):
        a = np.linspace(0, 1, 50)
        assert psnr(a, a) == float("inf")

    def test_known_value(self):
        a = np.array([0.0, 1.0])
        b = np.array([0.1, 1.0])
        expected = 20 * np.log10(1.0 / rmse(a, b))
        assert psnr(a, b) == pytest.approx(expected)

    def test_psnr_increases_as_error_decreases(self):
        a = np.linspace(0, 1, 1000)
        noisy_big = a + 1e-2
        noisy_small = a + 1e-4
        assert psnr(a, noisy_small) > psnr(a, noisy_big)

    def test_typical_error_bound_regime(self):
        """An additive error of ~1e-3 of the range gives PSNR around 60 dB,
        matching the magnitudes reported in Figures 14/15 of the paper."""
        rng = np.random.default_rng(0)
        a = rng.random(100_000)
        b = a + rng.uniform(-1e-3, 1e-3, a.size)
        assert 55.0 < psnr(a, b) < 70.0


class TestMaxMeanError:
    def test_max_abs_error(self):
        a = np.array([0.0, 0.0, 0.0])
        b = np.array([0.1, -0.5, 0.2])
        assert max_abs_error(a, b) == pytest.approx(0.5)

    def test_mean_abs_error(self):
        a = np.zeros(4)
        b = np.array([1.0, -1.0, 3.0, -3.0])
        assert mean_abs_error(a, b) == pytest.approx(2.0)


class TestQualityReport:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(1)
        a = rng.random(1000)
        b = a + rng.uniform(-1e-2, 1e-2, a.size)
        report = quality_report(a, b)
        assert report.psnr == pytest.approx(psnr(a, b))
        assert report.nrmse == pytest.approx(nrmse(a, b))
        assert report.max_abs_error <= 1e-2 + 1e-12

"""Tests for compression-error distribution analysis (Figures 5 and 6)."""

import numpy as np
import pytest

from repro.analysis import (
    compression_errors,
    fit_normal_mle,
    normality_report,
    second_generation_errors,
)
from repro.compression import SZxCompressor, ZFPCompressor
from repro.datasets import load_field


class TestErrorSampling:
    def test_errors_bounded_by_codec_bound(self, smooth_signal):
        errors = compression_errors(SZxCompressor(error_bound=1e-3), smooth_signal)
        assert errors.shape == smooth_signal.shape
        assert np.max(np.abs(errors)) <= 1e-3 * 1.001

    def test_second_generation_errors_smaller_or_similar(self, smooth_signal):
        codec = SZxCompressor(error_bound=1e-3)
        first = compression_errors(codec, smooth_signal)
        second = second_generation_errors(codec, smooth_signal)
        assert np.max(np.abs(second)) <= np.max(np.abs(first)) * 1.001


class TestNormalFit:
    def test_mle_recovers_parameters(self, rng):
        sample = rng.normal(0.2, 1.5, size=100_000)
        fit = fit_normal_mle(sample)
        assert fit.mu == pytest.approx(0.2, abs=0.02)
        assert fit.sigma == pytest.approx(1.5, rel=0.02)
        assert fit.n_samples == 100_000

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_normal_mle(np.array([]))


class TestNormalityReport:
    def test_gaussian_sample_matches_expected_coverage(self, rng):
        report = normality_report(rng.normal(0, 1e-4, size=50_000))
        assert report["within_1sigma"] == pytest.approx(0.683, abs=0.02)
        assert report["within_2sigma"] == pytest.approx(0.954, abs=0.01)
        assert report["within_3sigma"] == pytest.approx(0.997, abs=0.01)
        assert abs(report["skewness"]) < 0.05

    @pytest.mark.parametrize(
        "app,field", [("cesm", "CLOUD"), ("hurricane", "QVAPORf"), ("rtm", None)]
    )
    def test_real_codec_errors_are_roughly_normal(self, app, field):
        """The paper's Figure 5 observation: errors of error-bounded compression
        on scientific fields are approximately normal (here: mean ~0 and 2-sigma
        coverage within a reasonable band of the Gaussian value)."""
        data = load_field(app, field, seed=2).flatten()[:100_000]
        eb = 1e-3 * float(data.max() - data.min())
        report = normality_report(compression_errors(SZxCompressor(error_bound=eb), data))
        assert abs(report["mu"]) < 0.2 * report["sigma"] + 1e-12
        assert 0.80 <= report["within_2sigma"] <= 1.0

    def test_zfp_second_generation_errors_also_fit(self):
        """Figure 6: the e2 (second-generation) errors keep the same character."""
        data = load_field("cesm", "CLOUD", seed=2).flatten()[:60_000]
        codec = ZFPCompressor(mode="abs", error_bound=1e-3)
        report = normality_report(second_generation_errors(codec, data))
        assert report["n_samples"] == data.size
        assert report["within_3sigma"] >= 0.95

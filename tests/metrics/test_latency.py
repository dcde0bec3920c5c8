"""Percentile/summary helpers (`repro.metrics.latency`)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.metrics.latency import _percentile_sorted, mean_slowdown, summarize


class TestPercentileSorted:
    """The one interpolation behind ``summarize``'s p50 and p99."""

    @pytest.mark.parametrize("q", [0.0, 50.0, 99.0, 100.0])
    def test_single_value_is_every_percentile(self, q):
        assert _percentile_sorted([3.5], q) == 3.5

    def test_endpoints_are_min_and_max(self):
        ordered = [1.0, 3.0, 5.0, 9.0]
        assert _percentile_sorted(ordered, 0.0) == 1.0
        assert _percentile_sorted(ordered, 100.0) == 9.0

    @pytest.mark.parametrize("q", [-1.0, 100.5, float("nan")])
    def test_out_of_range_q_rejected(self, q):
        with pytest.raises(ValueError, match="percentile q"):
            _percentile_sorted([1.0, 2.0], q)

    @pytest.mark.parametrize("q", [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0])
    def test_matches_numpy_linear_interpolation(self, q):
        rng = random.Random(3)
        ordered = sorted(rng.gauss(0.0, 1.0) for _ in range(257))
        assert _percentile_sorted(ordered, q) == pytest.approx(
            float(np.percentile(ordered, q)), rel=1e-12, abs=1e-15
        )


class TestSummarize:
    def test_empty_summary_keeps_full_schema(self):
        # regression: the empty case used to return {"count": 0} (int, no
        # percentile keys), so callers indexing ["p50"] on a quiet interval
        # crashed with KeyError
        out = summarize([])
        assert out == {
            "count": 0.0,
            "mean": 0.0,
            "p50": 0.0,
            "p99": 0.0,
            "min": 0.0,
            "max": 0.0,
        }
        assert all(isinstance(v, float) for v in out.values())
        assert set(out) == set(summarize([1.0]))

    def test_single_value_is_every_statistic(self):
        assert set(summarize([3.5]).values()) == {1.0, 3.5}

    def test_median_interpolates(self):
        assert summarize([1.0, 2.0, 3.0, 4.0])["p50"] == pytest.approx(2.5)
        assert summarize([3.0, 1.0, 2.0])["p50"] == pytest.approx(2.0)

    def test_percentiles_match_numpy_linear_interpolation(self):
        rng = random.Random(3)
        values = [rng.gauss(0.0, 1.0) for _ in range(257)]
        out = summarize(values)
        for key, q in (("p50", 50.0), ("p99", 99.0)):
            assert out[key] == pytest.approx(float(np.percentile(values, q)), rel=1e-12)

    def test_basic_stats(self):
        out = summarize(iter([4.0, 1.0, 7.0]))  # any iterable, consumed once
        assert out["count"] == 3
        assert out["mean"] == pytest.approx(4.0)
        assert out["min"] == 1.0 and out["max"] == 7.0
        assert out["p50"] == pytest.approx(4.0)

    def test_mean_accumulates_left_to_right(self):
        # a printed mean must not depend on the Python version: sum() compensates
        # on Python >= 3.12, the summary adds in sample order
        values = [1e16, 1.0, -1e16, 1.0]
        total = 0.0
        for value in values:
            total += value
        assert summarize(values)["mean"] == total / 4 == 0.25


class TestMeanSlowdown:
    def test_empty_is_zero(self):
        assert mean_slowdown([]) == 0.0

    def test_arithmetic_mean(self):
        assert mean_slowdown([1.0, 3.0]) == pytest.approx(2.0)

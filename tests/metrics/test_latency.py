"""Percentile/summary helpers (`repro.metrics.latency`)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.metrics.latency import mean_slowdown, percentile, summarize


class TestPercentile:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_single_value_is_every_percentile(self):
        for q in (0.0, 50.0, 99.0, 100.0):
            assert percentile([3.5], q) == 3.5

    def test_endpoints_are_min_and_max(self):
        values = [5.0, 1.0, 9.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 9.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0], 50.0) == pytest.approx(2.0)

    def test_matches_numpy_linear_interpolation(self):
        rng = random.Random(3)
        values = [rng.gauss(0.0, 1.0) for _ in range(257)]
        for q in (1.0, 10.0, 50.0, 90.0, 99.0):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q)), rel=1e-12
            )

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


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

    def test_percentiles_match_the_module_percentile(self):
        # one interpolation serves percentile() and summarize(): they agree exactly
        rng = random.Random(29)
        values = [rng.gauss(0.0, 1.0) for _ in range(101)]
        out = summarize(values)
        assert out["p50"] == percentile(values, 50.0)
        assert out["p99"] == percentile(values, 99.0)

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

"""Tests for repro.metrics.ratios."""

import pytest

from repro.metrics import CompressionStats, aggregate_ratio_stats, compression_ratio


class TestCompressionRatio:
    def test_basic(self):
        assert compression_ratio(1000, 100) == pytest.approx(10.0)

    def test_empty_data(self):
        assert compression_ratio(0, 0) == 1.0

    def test_zero_compressed_nonempty_rejected(self):
        with pytest.raises(ValueError):
            compression_ratio(10, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            compression_ratio(-1, 10)


class TestCompressionStats:
    def test_record(self):
        stats = CompressionStats()
        assert stats.record(1000, 100) == pytest.approx(10.0)
        assert stats.record(1000, 500) == pytest.approx(2.0)
        assert stats.ratios == [pytest.approx(10.0), pytest.approx(2.0)]
        assert stats.overall_ratio == pytest.approx(2000 / 600)
        assert stats.count == 2


class TestAggregate:
    def test_aggregate(self):
        out = aggregate_ratio_stats([1.0, 2.0, 3.0])
        assert out == {"min": 1.0, "avg": 2.0, "max": 3.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_ratio_stats([])

"""Tests for the calibrated cost model and network presets."""

import pytest

from repro.compression import SZxCompressor
from repro.perfmodel import (
    DEFAULT_CODEC_SPEEDS,
    CodecSpeed,
    CostModel,
    async_progress_network,
    default_cost_model,
    default_network,
    line_rate_network,
)


class TestCostModel:
    def test_codec_speed_lookup_by_name_and_instance(self):
        cost = default_cost_model()
        by_name = cost.compress_seconds("szx", 1_000_000)
        by_instance = cost.compress_seconds(SZxCompressor(error_bound=1e-3), 1_000_000)
        assert by_name == pytest.approx(by_instance)

    def test_unknown_codec_rejected(self):
        with pytest.raises(KeyError):
            default_cost_model().compress_seconds("gzip", 100)
        with pytest.raises(TypeError):
            default_cost_model().compress_seconds(123, 100)

    def test_decompress_faster_than_compress_for_szx(self):
        cost = default_cost_model()
        assert cost.decompress_seconds("szx", 1e8) < cost.compress_seconds("szx", 1e8)

    def test_szx_faster_than_zfp(self):
        cost = default_cost_model()
        assert cost.compress_seconds("szx", 1e8) < cost.compress_seconds("zfp_abs", 1e8)
        assert cost.compress_seconds("zfp_abs", 1e8) < cost.compress_seconds("zfp_fxr", 1e8)

    def test_ratio_speedup_monotone_and_clamped(self):
        cost = default_cost_model()
        slow = cost.compress_seconds("szx", 1e8, ratio=2)
        mid = cost.compress_seconds("szx", 1e8, ratio=8)
        fast = cost.compress_seconds("szx", 1e8, ratio=100)
        assert slow > mid > fast
        # clamping: ratio 100 and ratio 10000 give the same speed-up
        assert fast == pytest.approx(cost.compress_seconds("szx", 1e8, ratio=10_000))

    def test_local_costs_scale_linearly(self):
        cost = default_cost_model()
        assert cost.memcpy_seconds(2e6) == pytest.approx(2 * cost.memcpy_seconds(1e6))
        assert cost.reduce_seconds(0) == 0.0
        assert cost.compressor_buffer_seconds(1e6) > cost.alloc_seconds(1e6) / 4

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            default_cost_model().compress_seconds("szx", -1)

    def test_with_codec_speed(self):
        base = default_cost_model()
        cost = base.with_codec_speed("szx", 2e9, 4e9)
        assert cost.compress_seconds("szx", 2e9, ratio=8) == pytest.approx(
            1.0, rel=0.01
        )
        assert cost.codec_speeds["szx"] == CodecSpeed(2e9, 4e9)
        assert {k: v for k, v in cost.codec_speeds.items() if k != "szx"} == {
            k: v for k, v in base.codec_speeds.items() if k != "szx"
        }
        assert base.codec_speeds == DEFAULT_CODEC_SPEEDS

    @pytest.mark.parametrize("bad", [0.0, -1e9, float("nan"), float("inf")])
    def test_codec_speed_refuses_non_positive_or_non_finite(self, bad):
        with pytest.raises(ValueError, match="compress_bps"):
            CodecSpeed(bad, 1e9)
        with pytest.raises(ValueError, match="decompress_bps"):
            CodecSpeed(1e9, bad)
        with pytest.raises(ValueError):
            default_cost_model().with_codec_speed("szx", bad, 3.3e9)

    def test_the_default_model_is_the_calibration(self):
        assert default_cost_model() == CostModel()
        assert CostModel().codec_speeds == DEFAULT_CODEC_SPEEDS


class TestNetworkPresets:
    def test_presets_distinct(self):
        assert default_network().progress == "on-poll"
        assert async_progress_network().progress == "async"
        assert line_rate_network().bandwidth > 10 * default_network().bandwidth

    def test_calibrated_bandwidth_regime(self):
        # effective application-level collective bandwidth, far below line rate
        assert 0.3e9 < default_network().bandwidth < 1.5e9

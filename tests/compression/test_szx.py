"""Tests for the SZx-style error-bounded compressor."""

import numpy as np
import pytest

import repro.compression.szx as szx
from repro.compression import (
    CompressionError,
    DecompressionError,
    SZxCompressor,
    UnsupportedDataError,
)


def max_err(a, b):
    return float(np.max(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))))


class TestErrorBound:
    @pytest.mark.parametrize("eb", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_bound_respected_smooth(self, smooth_signal, eb, assert_error_bounded):
        codec = SZxCompressor(error_bound=eb)
        recon = codec.roundtrip(smooth_signal)
        assert_error_bounded(smooth_signal, recon, eb)

    @pytest.mark.parametrize("eb", [1e-1, 1e-2, 1e-3])
    def test_bound_respected_rough(self, rough_signal, eb, assert_error_bounded):
        codec = SZxCompressor(error_bound=eb)
        recon = codec.roundtrip(rough_signal)
        assert_error_bounded(rough_signal, recon, eb)

    def test_bound_respected_sparse(self, sparse_signal, assert_error_bounded):
        codec = SZxCompressor(error_bound=1e-3)
        recon = codec.roundtrip(sparse_signal)
        assert_error_bounded(sparse_signal, recon, 1e-3)

    def test_bound_exact_in_double_precision(self, smooth_signal):
        """With float64 input (no output-cast rounding) the bound is strict."""
        data = smooth_signal.astype(np.float64)
        for eb in (1e-2, 1e-4, 1e-6):
            recon = SZxCompressor(error_bound=eb).roundtrip(data)
            assert max_err(data, recon) <= eb * (1 + 1e-12)

    def test_a_relative_bound_is_scaled_by_the_caller(self, rng, assert_error_bounded):
        """The bound is absolute; a bound relative to the value range is resolved
        first, as the relative rows of Figs. 14-15 do."""
        data = 1000.0 * rng.random(10_000)
        bound = 1e-3 * float(data.max() - data.min())
        recon = SZxCompressor(error_bound=bound).roundtrip(data)
        assert_error_bounded(data, recon, bound)


class TestCompressionBehaviour:
    def test_constant_data_compresses_to_near_max_ratio(self):
        data = np.full(128 * 1000, 3.14159, dtype=np.float32)
        buf = SZxCompressor(error_bound=1e-3).compress(data)
        # constant blocks: ~4.125 bytes per 512-byte block -> ratio close to 124
        assert buf.ratio > 100

    def test_smooth_compresses_better_than_rough(self, smooth_signal, rough_signal):
        codec = SZxCompressor(error_bound=1e-3)
        assert codec.compress(smooth_signal).ratio > codec.compress(rough_signal).ratio

    def test_larger_bound_gives_larger_ratio(self, smooth_signal):
        loose = SZxCompressor(error_bound=1e-2).compress(smooth_signal)
        tight = SZxCompressor(error_bound=1e-5).compress(smooth_signal)
        assert loose.ratio > tight.ratio

    def test_dtype_preserved(self, smooth_signal):
        codec = SZxCompressor(error_bound=1e-3)
        assert codec.roundtrip(smooth_signal).dtype == np.float32
        assert codec.roundtrip(smooth_signal.astype(np.float64)).dtype == np.float64

    def test_length_preserved_for_non_multiple_of_block(self):
        data = np.linspace(0, 1, 1001)
        codec = SZxCompressor(error_bound=1e-4)
        assert codec.roundtrip(data).size == 1001

    def test_empty_array_round_trips(self):
        codec = SZxCompressor(error_bound=1e-3)
        out = codec.roundtrip(np.zeros(0, dtype=np.float32))
        assert out.size == 0

    def test_single_element(self):
        codec = SZxCompressor(error_bound=1e-3)
        out = codec.roundtrip(np.array([42.5]))
        assert abs(out[0] - 42.5) <= 1e-3

    def test_buffer_metadata(self, smooth_signal):
        buf = SZxCompressor(error_bound=1e-3).compress(smooth_signal)
        assert buf.codec == "szx"
        assert buf.original_count == smooth_signal.size
        assert buf.original_nbytes == smooth_signal.nbytes
        assert buf.nbytes == len(buf.payload)

    def test_block_size_variants_round_trip(self, smooth_signal, assert_error_bounded):
        """The decoder reads the block size from the payload, whatever the kernel wrote."""
        codec = SZxCompressor(error_bound=1e-3)
        for block in (16, 64, 256, 1000):
            (payload,) = szx.compress_chunks(smooth_signal, [smooth_signal.size], block, 1e-3)
            recon = codec.decompress(payload)
            assert_error_bounded(smooth_signal, recon, 1e-3)


class TestValidation:
    def test_rejects_nan(self):
        codec = SZxCompressor(error_bound=1e-3)
        with pytest.raises(UnsupportedDataError):
            codec.compress(np.array([1.0, np.nan]))

    def test_rejects_inf(self):
        codec = SZxCompressor(error_bound=1e-3)
        with pytest.raises(UnsupportedDataError):
            codec.compress(np.array([np.inf, 1.0]))

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            SZxCompressor(error_bound=0.0)
        with pytest.raises(ValueError):
            SZxCompressor(error_bound=-1e-3)

    def test_too_small_bound_for_huge_range_rejected(self):
        data = np.array([0.0, 1e12], dtype=np.float64).repeat(128)
        with pytest.raises(CompressionError):
            SZxCompressor(error_bound=1e-12).compress(data)

    def test_decompress_garbage_rejected(self):
        codec = SZxCompressor(error_bound=1e-3)
        with pytest.raises(DecompressionError):
            codec.decompress(b"not a payload")

    def test_decompress_truncated_rejected(self, smooth_signal):
        codec = SZxCompressor(error_bound=1e-3)
        payload = codec.compress(smooth_signal).payload
        with pytest.raises(DecompressionError):
            codec.decompress(payload[: len(payload) // 2])

    def test_decompress_wrong_magic_rejected(self, smooth_signal):
        from repro.compression import ZFPCompressor

        payload = ZFPCompressor(mode="abs", error_bound=1e-3).compress(smooth_signal).payload
        with pytest.raises(DecompressionError, match="magic"):
            SZxCompressor(error_bound=1e-3).decompress(payload)

    def test_describe(self):
        codec = SZxCompressor(error_bound=1e-4)
        assert codec.describe() == {"name": "szx", "error_bounded": True, "error_bound": 1e-4}
        assert codec.block_size == 128

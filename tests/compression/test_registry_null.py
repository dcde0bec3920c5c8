"""Tests for the codec registry and the null codec."""

import numpy as np
import pytest

from repro.compression import (
    Compressor,
    NullCompressor,
    available_compressors,
    make_compressor,
)


class TestNullCompressor:
    def test_lossless_round_trip(self, rough_signal):
        codec = NullCompressor()
        np.testing.assert_array_equal(codec.roundtrip(rough_signal), rough_signal)

    def test_ratio_close_to_one(self, rough_signal):
        buf = NullCompressor().compress(rough_signal)
        assert 0.9 < buf.ratio <= 1.0

    def test_dtype_preserved(self, smooth_signal):
        assert NullCompressor().roundtrip(smooth_signal).dtype == np.float32

    def test_empty(self):
        assert NullCompressor().roundtrip(np.zeros(0)).size == 0


class TestRegistry:
    def test_expected_codecs_available(self):
        assert available_compressors() == ["null", "pipe_szx", "szx", "zfp_abs", "zfp_fxr"]

    def test_make_szx(self):
        codec = make_compressor("szx", error_bound=1e-4)
        assert codec.name == "szx"
        assert codec.error_bound == 1e-4

    def test_make_zfp_modes(self):
        assert make_compressor("zfp_abs", error_bound=1e-3).name == "zfp_abs"
        assert make_compressor("zfp_fxr", rate=8).name == "zfp_fxr"

    @pytest.mark.parametrize("name", ["SZX", "Szx", " szx", "szx "])
    def test_names_are_exact(self, name):
        with pytest.raises(KeyError, match="unknown compressor"):
            make_compressor(name, error_bound=1e-3)

    def test_unknown_codec_rejected(self):
        with pytest.raises(KeyError, match="unknown compressor"):
            make_compressor("gzip")

    def test_all_registered_codecs_are_compressors(self, smooth_signal):
        kwargs = {
            "szx": {"error_bound": 1e-3},
            "pipe_szx": {"error_bound": 1e-3},
            "zfp_abs": {"error_bound": 1e-3},
            "zfp_fxr": {"rate": 8},
            "null": {},
        }
        for name, kw in kwargs.items():
            codec = make_compressor(name, **kw)
            assert isinstance(codec, Compressor)
            out = codec.roundtrip(smooth_signal)
            assert out.size == smooth_signal.size

"""Regression: codec corner cases crashed mid-pack or corrupted payloads.

Bug classes fixed together (all surfaced by the invariant harness's
warnings-as-errors round-trip sweep):

* **SZx / ZFP magnitude overflow**: values beyond the float32 anchor range
  (SZx) or half the float64 range (ZFP's Haar transform doubles magnitudes)
  overflowed mid-pack — RuntimeWarnings followed by garbage payloads.  Both
  now raise :class:`UnsupportedDataError` before touching the payload.
* **SZx degenerate bounds**: a bound too small for the data range made the
  quantiser cast out-of-range offsets to int64 garbage.  Now a typed error,
  raised before the cast.
* **ZFP fixed-rate sign flip**: saturated magnitudes were cast to int64
  *before* clipping; positives wrapped to INT64_MIN and were "clipped" to
  ``-limit``, silently flipping the sign of reconstructed values.  Clipping
  now happens in the float domain first, so saturation preserves sign.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.compression.errors import CompressionError, UnsupportedDataError
from repro.compression.szx import SZxCompressor
from repro.compression.zfp import ZFPCompressor


class TestMagnitudeOverflowRegression:
    def test_szx_rejects_beyond_float32_anchor_range(self):
        data = np.array([0.0, 1e39], dtype=np.float64)
        with pytest.raises(UnsupportedDataError, match="float32 anchor range"):
            SZxCompressor(error_bound=1e-3).compress_bytes(data)

    def test_zfp_rejects_transform_unsafe_magnitudes(self):
        data = np.full(4, 1.7e308)
        with pytest.raises(CompressionError):
            ZFPCompressor(error_bound=1e-3).compress_bytes(data)

    def test_no_runtime_warnings_on_any_rejection(self):
        huge = np.array([1.7e308, -1.7e308, 0.0, 1.0])
        for codec in (SZxCompressor(1e-3), ZFPCompressor(error_bound=1e-3)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    payload = codec.compress_bytes(huge)
                except CompressionError:
                    continue  # typed rejection is the expected outcome
                restored = codec.decompress_bytes(payload)
                assert np.all(np.sign(restored) == np.sign(huge))


class TestDegenerateBoundRegression:
    def test_degenerate_bound_is_a_typed_error_not_garbage(self):
        """A bound too small for the data range must raise, never mis-encode."""
        codec = SZxCompressor(error_bound=1e-300)
        data = np.array([0.0, 1e9] * 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CompressionError):
                codec.compress_bytes(data)


class TestFixedRateSignRegression:
    def test_saturated_positive_values_keep_their_sign(self):
        """The minimal reproducer: one huge positive value, fxr rate 8.

        Before the fix the scaled coefficient overflowed the int64 cast to
        INT64_MIN and clipping dragged it to -limit: the reconstruction came
        back *negative*.
        """
        codec = ZFPCompressor(mode="fxr", rate=8.0)
        data = np.array([1.0e300, 0.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restored = codec.decompress_bytes(codec.compress_bytes(data))
        assert restored[0] > 0.0

    def test_saturated_mixed_signs_roundtrip_sign_exact(self):
        codec = ZFPCompressor(mode="fxr", rate=8.0)
        data = np.array([1.0e290, -1.0e290, 1.0e290, -1.0e290])
        restored = codec.decompress_bytes(codec.compress_bytes(data))
        assert np.all(np.sign(restored) == np.sign(data))

"""Tests for the ZFP-style transform codec (ABS and FXR modes)."""

import dataclasses
import struct

import numpy as np
import pytest

import repro.compression.zfp as zfp
from repro.compression import CompressionError, DecompressionError, ZFPCompressor
from repro.compression.header import PayloadHeader
from repro.compression.zfp import _haar_forward, _haar_inverse


def max_err(a, b):
    return float(np.max(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))))


class TestHaarTransform:
    def test_forward_inverse_identity(self, rng):
        blocks = rng.standard_normal((100, 16))
        recon = _haar_inverse(_haar_forward(blocks))
        np.testing.assert_allclose(recon, blocks, atol=1e-12)

    def test_dc_is_block_mean(self, rng):
        blocks = rng.standard_normal((10, 16))
        coeffs = _haar_forward(blocks)
        np.testing.assert_allclose(coeffs[:, 0], blocks.mean(axis=1), atol=1e-12)

    def test_constant_block_has_zero_details(self):
        blocks = np.full((3, 16), 7.5)
        coeffs = _haar_forward(blocks)
        np.testing.assert_allclose(coeffs[:, 1:], 0.0, atol=1e-12)


class TestAbsMode:
    @pytest.mark.parametrize("eb", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_error_bound_respected(self, smooth_signal, eb, assert_error_bounded):
        codec = ZFPCompressor(mode="abs", error_bound=eb)
        recon = codec.roundtrip(smooth_signal)
        assert_error_bounded(smooth_signal, recon, eb)

    def test_error_bound_respected_rough(self, rough_signal, assert_error_bounded):
        codec = ZFPCompressor(mode="abs", error_bound=1e-2)
        recon = codec.roundtrip(rough_signal)
        assert_error_bounded(rough_signal, recon, 1e-2)

    def test_error_bound_respected_sparse(self, sparse_signal, assert_error_bounded):
        codec = ZFPCompressor(mode="abs", error_bound=1e-3)
        recon = codec.roundtrip(sparse_signal)
        assert_error_bounded(sparse_signal, recon, 1e-3)

    def test_zero_blocks_cost_almost_nothing(self):
        data = np.zeros(16 * 10_000, dtype=np.float32)
        buf = ZFPCompressor(mode="abs", error_bound=1e-3).compress(data)
        assert buf.ratio > 200

    def test_smooth_better_than_rough(self, smooth_signal, rough_signal):
        codec = ZFPCompressor(mode="abs", error_bound=1e-3)
        assert codec.compress(smooth_signal).ratio > codec.compress(rough_signal).ratio

    def test_is_error_bounded_flag(self):
        assert ZFPCompressor(mode="abs", error_bound=1e-3).error_bounded is True

    def test_dtype_and_length_preserved(self):
        data = np.linspace(-1, 1, 1003).astype(np.float32)
        codec = ZFPCompressor(mode="abs", error_bound=1e-4)
        out = codec.roundtrip(data)
        assert out.dtype == np.float32
        assert out.size == 1003


class TestFxrMode:
    @pytest.mark.parametrize("rate,expected_ratio", [(4, 8.0), (8, 4.0), (16, 2.0)])
    def test_exact_ratio_float32(self, rate, expected_ratio, rng):
        data = rng.standard_normal(64_000).astype(np.float32)
        buf = ZFPCompressor(mode="fxr", rate=rate).compress(data)
        assert buf.ratio == pytest.approx(expected_ratio, rel=0.02)

    def test_ratio_independent_of_content(self, smooth_signal, rough_signal):
        codec = ZFPCompressor(mode="fxr", rate=8)
        smooth_bytes = codec.compress(smooth_signal).nbytes / smooth_signal.size
        rough_bytes = codec.compress(rough_signal).nbytes / rough_signal.size
        assert smooth_bytes == pytest.approx(rough_bytes, rel=0.01)

    def test_higher_rate_gives_better_quality(self, smooth_signal):
        from repro.metrics import psnr

        low = ZFPCompressor(mode="fxr", rate=4).roundtrip(smooth_signal)
        high = ZFPCompressor(mode="fxr", rate=16).roundtrip(smooth_signal)
        assert psnr(smooth_signal, high) > psnr(smooth_signal, low) + 20

    def test_abs_beats_fxr_at_same_ratio(self, smooth_signal):
        """The key observation from Section III-C / prior work: at a similar
        compressed size, the fixed-accuracy mode reconstructs better than the
        fixed-rate mode."""
        from repro.metrics import psnr

        fxr = ZFPCompressor(mode="fxr", rate=8)
        fxr_buf = fxr.compress(smooth_signal)
        fxr_psnr = psnr(smooth_signal, fxr.decompress(fxr_buf))

        # pick an ABS bound that compresses at least as much as rate-8 FXR
        abs_codec = ZFPCompressor(mode="abs", error_bound=2e-3)
        abs_buf = abs_codec.compress(smooth_signal)
        assert abs_buf.nbytes <= fxr_buf.nbytes * 1.1
        abs_psnr = psnr(smooth_signal, abs_codec.decompress(abs_buf))
        assert abs_psnr > fxr_psnr

    def test_not_error_bounded(self):
        assert ZFPCompressor(mode="fxr", rate=8).error_bounded is False

    def test_zero_data_round_trips(self):
        data = np.zeros(1000, dtype=np.float32)
        out = ZFPCompressor(mode="fxr", rate=8).roundtrip(data)
        np.testing.assert_array_equal(out, 0.0)

    def test_length_preserved(self, rng):
        data = rng.standard_normal(1001)
        assert ZFPCompressor(mode="fxr", rate=8).roundtrip(data).size == 1001


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ZFPCompressor(mode="lossless")

    def test_rate_too_small_rejected(self):
        with pytest.raises(ValueError):
            ZFPCompressor(mode="fxr", rate=1)

    def test_names(self):
        assert ZFPCompressor(mode="abs", error_bound=1e-3).name == "zfp_abs"
        assert ZFPCompressor(mode="fxr", rate=8).name == "zfp_fxr"

    def test_describe(self):
        info = ZFPCompressor(mode="fxr", rate=8).describe()
        assert info["rate"] == 8
        info = ZFPCompressor(mode="abs", error_bound=1e-3).describe()
        assert info["error_bound"] == 1e-3

    def test_truncated_payload_rejected(self, smooth_signal):
        codec = ZFPCompressor(mode="abs", error_bound=1e-3)
        payload = codec.compress(smooth_signal).payload
        with pytest.raises(DecompressionError):
            codec.decompress(payload[: len(payload) // 3])

    def test_empty_round_trip(self):
        codec = ZFPCompressor(mode="abs", error_bound=1e-3)
        assert codec.roundtrip(np.zeros(0)).size == 0


class TestFxrNonFinite:
    def test_inf_input_raises_instead_of_corrupt_payload(self):
        data = np.array([1.0, np.inf] + [0.5] * 30)
        with pytest.raises(CompressionError, match="non-finite"):
            ZFPCompressor(mode="fxr", rate=8).compress_bytes(data)

    def test_nan_input_raises(self):
        data = np.array([1.0, np.nan] + [0.5] * 30)
        with pytest.raises(CompressionError, match="non-finite"):
            ZFPCompressor(mode="fxr", rate=8).compress_bytes(data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 7, 15])
    def test_a_non_finite_coefficient_reaches_the_encoders_refusal(self, bad, position):
        """Behind ``compress_bytes``' own finite-input check, the FXR encoder
        refuses a non-finite coefficient too: each block's maximum carries a
        NaN or an infinity from any position of the block through to it."""
        coeffs = np.full((3, 16), 0.25)
        coeffs[1, position] = bad
        with pytest.raises(CompressionError, match="non-finite values cannot be fixed-rate"):
            ZFPCompressor(mode="fxr", rate=8)._quantise_fxr(coeffs)


def _with_param(payload: bytes, param: float) -> bytes:
    """``payload`` with its header's error bound / rate replaced by ``param``."""
    header = PayloadHeader.unpack(payload, payload[:4])
    return dataclasses.replace(header, param=param).pack() + payload[PayloadHeader.SIZE :]


class TestDecoderRefusesWhatTheConstructorRefuses:
    """A header parameter no codec can be built with is a ``DecompressionError``,
    not NaNs, zeros, garbage or another exception type (a ``RuntimeWarning`` is
    an error under ``pytest.ini``)."""

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), -1.0, 0.0])
    def test_abs_error_bound(self, bound, smooth_signal):
        codec = ZFPCompressor(mode="abs", error_bound=1e-3)
        payload = _with_param(codec.compress_bytes(smooth_signal), bound)
        with pytest.raises(DecompressionError, match="error bound must be"):
            codec.decompress_bytes(payload)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -8.0, 0.0, 0.5, 100.0])
    def test_fxr_rate(self, rate, smooth_signal):
        codec = ZFPCompressor(mode="fxr", rate=8)
        payload = _with_param(codec.compress_bytes(smooth_signal), rate)
        with pytest.raises(DecompressionError, match="unusable ZFP payload rate"):
            codec.decompress_bytes(payload)

    @pytest.mark.parametrize("block", [3, 12])
    def test_a_block_size_the_transform_cannot_halve(self, block):
        """The Haar levels halve a block down to its DC value: any other block
        size is no ZFP payload (it decoded to garbage or raised ``ValueError``)."""
        data = np.linspace(-1.0, 1.0, 96)
        codec = ZFPCompressor(mode="abs", error_bound=1e-3)
        payload = codec.compress_bytes(data)
        body = struct.pack("<BBHI", 0, 0, block, -(-data.size // block))
        payload = payload[: PayloadHeader.SIZE] + body + payload[PayloadHeader.SIZE + len(body) :]
        with pytest.raises(DecompressionError, match="block metadata"):
            codec.decompress_bytes(payload)


class TestRestoredComesFromTheEncoder:
    """``compressed_nbytes`` counts and dequantises the quants: no decoder runs
    and nothing is packed."""

    @staticmethod
    def _inputs(rng) -> dict:
        sparse = np.zeros(16 * 40)
        sparse[rng.integers(0, sparse.size, 12)] = rng.standard_normal(12)
        return {
            "all_zero": np.zeros(100),
            "sparse": sparse,
            "single_block": rng.standard_normal(16),
            "ragged": np.sin(np.linspace(0.0, 9.0, 1_001)),
        }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("mode", ["abs", "fxr"])
    def test_no_decoder_call_and_nothing_packed(self, mode, dtype, rng, monkeypatch):
        codec = ZFPCompressor(mode=mode, error_bound=1e-3, rate=8)
        inputs = {name: data.astype(dtype) for name, data in self._inputs(rng).items()}
        payloads = {name: codec.compress_bytes(data) for name, data in inputs.items()}
        expected = {name: codec.decompress_bytes(payload) for name, payload in payloads.items()}

        def refuse(*args, **kwargs):
            raise AssertionError("compressed_nbytes ran the decoder or packed a payload")

        for name in ("compress_bytes", "decompress_bytes", "_decompress_abs", "_decompress_fxr"):
            monkeypatch.setattr(ZFPCompressor, name, refuse)
        for name in ("pack_width_classes", "pack_uint_bits_rows"):
            monkeypatch.setattr(zfp, name, refuse)
        for name, data in inputs.items():
            restored = np.full(data.size, np.nan, dtype=dtype)
            assert codec.compressed_nbytes([data], [restored]) == [len(payloads[name])], name
            assert restored.tobytes() == expected[name].tobytes(), name

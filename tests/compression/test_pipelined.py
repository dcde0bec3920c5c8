"""Tests for PIPE-SZx (the pipelined, chunked SZx used by the computation framework)."""

import struct

import numpy as np
import pytest

from repro.compression import (
    DecompressionError,
    PipelinedSZx,
    SZxCompressor,
    UnsupportedDataError,
)


def max_err(a, b):
    return float(np.max(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))))


class TestOneShotApi:
    def test_round_trip_bound(self, smooth_signal, assert_error_bounded):
        codec = PipelinedSZx(error_bound=1e-3)
        recon = codec.roundtrip(smooth_signal)
        assert_error_bounded(smooth_signal, recon, 1e-3)

    def test_same_bound_behaviour_as_plain_szx(self, smooth_signal, assert_error_bounded):
        pipe = PipelinedSZx(error_bound=1e-3).roundtrip(smooth_signal)
        plain = SZxCompressor(error_bound=1e-3).roundtrip(smooth_signal)
        # chunking must not change the reconstruction beyond block-boundary effects
        assert_error_bounded(smooth_signal, pipe, 1e-3)
        assert_error_bounded(smooth_signal, plain, 1e-3)

    def test_ratio_close_to_plain_szx(self, smooth_signal):
        pipe_ratio = PipelinedSZx(error_bound=1e-3).compress(smooth_signal).ratio
        plain_ratio = SZxCompressor(error_bound=1e-3).compress(smooth_signal).ratio
        assert pipe_ratio > 0.7 * plain_ratio

    def test_empty_round_trip(self):
        codec = PipelinedSZx(error_bound=1e-3)
        assert codec.roundtrip(np.zeros(0, dtype=np.float32)).size == 0

    def test_dtype_preserved(self, smooth_signal):
        codec = PipelinedSZx(error_bound=1e-3)
        assert codec.roundtrip(smooth_signal).dtype == np.float32


class TestChunking:
    def test_default_chunk_is_paper_value(self):
        assert PipelinedSZx(error_bound=1e-3).chunk_elems == 5120

    def test_each_chunk_is_the_szx_payload_of_its_slice(self, smooth_signal):
        """Four chunks (three full, one ragged): PIPE-SZx is plain SZx on every
        5120-value slice behind the front-of-buffer index."""
        codec, plain = PipelinedSZx(error_bound=1e-3), SZxCompressor(error_bound=1e-3)
        starts = range(0, smooth_signal.size, codec.chunk_elems)
        pieces = [plain.compress_bytes(smooth_signal[at : at + codec.chunk_elems]) for at in starts]
        payload = codec.compress_bytes(smooth_signal)
        assert payload == codec._frame(pieces, smooth_signal.size, smooth_signal.dtype)
        parts = [plain.decompress_bytes(piece) for piece in pieces]
        assert codec.decompress_bytes(payload).tobytes() == np.concatenate(parts).tobytes()


class TestValidation:
    def test_truncated_payload_rejected(self, smooth_signal):
        codec = PipelinedSZx(error_bound=1e-3)
        payload = codec.compress(smooth_signal).payload
        with pytest.raises(DecompressionError):
            codec.decompress(payload[:-20])

    def test_wrong_magic_rejected(self, smooth_signal):
        plain = SZxCompressor(error_bound=1e-3).compress(smooth_signal).payload
        with pytest.raises(DecompressionError, match="magic"):
            PipelinedSZx(error_bound=1e-3).decompress(plain)

    def test_describe(self):
        codec = PipelinedSZx(error_bound=1e-4)
        assert codec.describe() == {"name": "pipe_szx", "error_bounded": True, "error_bound": 1e-4}
        assert (codec.chunk_elems, codec.block_size) == (5120, 128)


class TestInputValidation:
    """Every public compression entry rejects bad input with the same typed
    error, and a message pays for one finiteness pass, not one per layer."""

    ENTRIES = {
        "compress": lambda codec, data: codec.compress(data),
        "compress_bytes": lambda codec, data: codec.compress_bytes(data),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize(
        "data,error",
        [
            (np.array([1.0, np.nan, 2.0], dtype=np.float32), UnsupportedDataError),
            (np.array([1.0, np.inf], dtype=np.float64), UnsupportedDataError),
            (np.array([-np.inf] * 6000, dtype=np.float32), UnsupportedDataError),
            (np.arange(10), TypeError),
        ],
        ids=["nan", "inf", "neg-inf-multichunk", "integer"],
    )
    def test_bad_input_raises_typed_error(self, entry, data, error):
        codec = PipelinedSZx(error_bound=1e-3)
        with pytest.raises(error):
            self.ENTRIES[entry](codec, data)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_one_finiteness_pass_per_message(self, entry, smooth_signal, monkeypatch):
        import repro.compression.base as base

        passes = []
        real = np.isfinite

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def isfinite(arr, *args, **kwargs):
                passes.append(np.size(arr))
                return real(arr, *args, **kwargs)

        monkeypatch.setattr(base, "np", CountingNumpy())
        self.ENTRIES[entry](PipelinedSZx(error_bound=1e-3), smooth_signal)
        assert passes == [smooth_signal.size]


class TestOneBlockwisePass:
    """Structural pin: the one-shot path runs the SZx kernel once per buffer,
    not once per chunk, so the per-chunk loop of whole-codec calls stays gone."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.compression.szx as szx

        seen = {"pack_width_classes": 0, "unpack_width_classes": 0}

        def counted(name):
            real = getattr(szx, name)

            def wrapper(*args, **kwargs):
                seen[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in seen:
            monkeypatch.setattr(szx, name, counted(name))
        return seen

    @pytest.fixture
    def twenty_chunks(self):
        """Noise over nineteen full 5120-value chunks and a ragged twentieth."""
        return np.random.default_rng(8).standard_normal(19 * 5120 + 777)

    def test_twenty_chunks_one_pack_one_unpack(self, calls, twenty_chunks):
        codec = PipelinedSZx(error_bound=1e-3)
        payload = codec.compress_bytes(twenty_chunks)
        assert struct.unpack_from("<II", payload, 22) == (5120, 20)  # the chunk index header
        assert calls == {"pack_width_classes": 1, "unpack_width_classes": 0}
        codec.decompress_bytes(payload)
        assert calls == {"pack_width_classes": 1, "unpack_width_classes": 1}

    def test_one_shot_path_does_not_go_through_szx_codec(self, twenty_chunks, monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError("PIPE-SZx one-shot path called the SZx codec object")

        monkeypatch.setattr(SZxCompressor, "compress_bytes", forbidden)
        monkeypatch.setattr(SZxCompressor, "decompress_bytes", forbidden)
        codec = PipelinedSZx(error_bound=1e-3)
        assert codec.roundtrip(twenty_chunks).size == twenty_chunks.size

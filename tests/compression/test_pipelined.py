"""Tests for PIPE-SZx (the pipelined, chunked SZx used by the computation framework)."""

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
    def test_chunk_count(self):
        codec = PipelinedSZx(error_bound=1e-3, chunk_elems=5120)
        assert codec.chunk_count(0) == 0
        assert codec.chunk_count(5120) == 1
        assert codec.chunk_count(5121) == 2
        assert codec.chunk_count(51200) == 10

    def test_default_chunk_is_paper_value(self):
        assert PipelinedSZx(error_bound=1e-3).chunk_elems == 5120

    def test_iter_compress_yields_expected_chunks(self, smooth_signal):
        codec = PipelinedSZx(error_bound=1e-3, chunk_elems=4096)
        chunks = list(codec.iter_compress(smooth_signal))
        assert len(chunks) == codec.chunk_count(smooth_signal.size)
        assert [c.index for c in chunks] == list(range(len(chunks)))
        assert chunks[-1].stop == smooth_signal.size
        assert all(c.nbytes > 0 for c in chunks)

    def test_iter_decompress_matches_chunks(self, smooth_signal, assert_error_bounded):
        codec = PipelinedSZx(error_bound=1e-3, chunk_elems=4096)
        payload = codec.compress(smooth_signal).payload
        parts = list(codec.iter_decompress(payload))
        recon = np.concatenate(parts)
        assert recon.size == smooth_signal.size
        assert_error_bounded(smooth_signal, recon, 1e-3)

    def test_assemble_validates_chunk_count(self, smooth_signal):
        codec = PipelinedSZx(error_bound=1e-3, chunk_elems=4096)
        chunks = list(codec.iter_compress(smooth_signal))
        with pytest.raises(ValueError, match="chunks"):
            codec.assemble(chunks[:-1], smooth_signal.size, smooth_signal.dtype)

    def test_assemble_reorders_chunks(self, smooth_signal, assert_error_bounded):
        codec = PipelinedSZx(error_bound=1e-3, chunk_elems=4096)
        chunks = list(codec.iter_compress(smooth_signal))
        payload = codec.assemble(list(reversed(chunks)), smooth_signal.size, smooth_signal.dtype)
        recon = codec.decompress(payload)
        assert_error_bounded(smooth_signal, recon, 1e-3)


class TestValidation:
    def test_invalid_chunk_elems(self):
        with pytest.raises(ValueError):
            PipelinedSZx(error_bound=1e-3, chunk_elems=0)

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
        info = PipelinedSZx(error_bound=1e-4, chunk_elems=2048).describe()
        assert info["chunk_elems"] == 2048
        assert info["error_bound"] == 1e-4


class TestInputValidation:
    """Every public compression entry rejects bad input with the same typed
    error, and a message pays for one finiteness pass, not one per layer."""

    ENTRIES = {
        "compress": lambda codec, data: codec.compress(data),
        "compress_bytes": lambda codec, data: codec.compress_bytes(data),
        "iter_compress": lambda codec, data: list(codec.iter_compress(data)),
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

    def test_twenty_chunks_one_pack_one_unpack(self, calls, rough_signal):
        codec = PipelinedSZx(error_bound=1e-3, chunk_elems=500)
        assert codec.chunk_count(rough_signal.size) == 20
        payload = codec.compress_bytes(rough_signal)
        assert calls == {"pack_width_classes": 1, "unpack_width_classes": 0}
        codec.decompress_bytes(payload)
        assert calls == {"pack_width_classes": 1, "unpack_width_classes": 1}

    def test_generators_stay_per_chunk(self, calls, rough_signal):
        codec = PipelinedSZx(error_bound=1e-3, chunk_elems=500)
        chunks = list(codec.iter_compress(rough_signal))
        parts = list(codec.iter_decompress(codec.assemble(chunks, rough_signal.size, np.float64)))
        assert len(parts) == 20
        assert calls == {"pack_width_classes": 20, "unpack_width_classes": 20}

    def test_one_shot_path_does_not_go_through_szx_codec(self, rough_signal, monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError("PIPE-SZx one-shot path called the SZx codec object")

        monkeypatch.setattr(SZxCompressor, "compress_bytes", forbidden)
        monkeypatch.setattr(SZxCompressor, "decompress_bytes", forbidden)
        codec = PipelinedSZx(error_bound=1e-3, chunk_elems=500)
        assert codec.roundtrip(rough_signal).size == rough_signal.size

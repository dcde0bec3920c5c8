"""The one-pass chunked SZx kernel against its per-chunk oracle.

``PipelinedSZx.compress_bytes`` / ``decompress_bytes`` hand the whole buffer to
``compress_chunks`` / ``decompress_chunks`` once; ``SZxCompressor`` invokes the
same kernel on one buffer, so plain SZx on each 5120-value slice, framed by
``PipelinedSZx._frame``, is the per-chunk oracle.  The bytes and the
reconstructed values must agree for every chunk size / block size / dtype
mix, aligned or not — the codecs' own geometry (128, 5120) through the
codecs, every other one through the kernel with explicit lengths and block
size — and every malformed payload must be refused with
``DecompressionError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.compression.szx as szx
from repro.compression import (
    CompressionError,
    DecompressionError,
    PipelinedSZx,
    SZxCompressor,
    UnsupportedDataError,
)

CHUNKS = (1, 7, 100, 128, 129, 5120)
BLOCKS = (2, 8, 100, 127, 128)
#: keeps the per-chunk oracle (one codec call per chunk) affordable
MAX_ORACLE_CHUNKS = 250


def make_field(kind: str, n: int, dtype: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 8.0 * np.pi, n)
    if kind == "constant":
        data = np.full(n, rng.standard_normal())
    elif kind == "mixed":
        data = np.sin(t) + 0.02 * rng.standard_normal(n)
        data[n // 3 : n // 2] = 0.25  # a constant stretch among non-constant blocks
    elif kind == "noisy":
        data = rng.standard_normal(n)
    else:  # large magnitudes: wide quantised offsets, several width classes
        data = rng.standard_normal(n) * 1e4 * (1.0 + np.arange(n) % 7)
    return data.astype(dtype)


def chunk_lens(n: int, chunk: int) -> list:
    """The lengths of ``n`` values cut into chunks of ``chunk`` (the last one ragged)."""
    return [min(chunk, n - start) for start in range(0, n, chunk)]


def szx_pieces(data: np.ndarray, eb: float) -> list:
    """Plain SZx on each PIPE-SZx chunk of ``data``: the per-chunk oracle."""
    plain, chunk = SZxCompressor(eb), PipelinedSZx.chunk_elems
    return [plain.compress_bytes(data[at : at + chunk]) for at in range(0, data.size, chunk)]


@st.composite
def cases(draw):
    chunk = draw(st.one_of(st.sampled_from(CHUNKS), st.integers(1, 9000)))
    n = draw(st.integers(0, min(30_000, chunk * MAX_ORACLE_CHUNKS)))
    return {
        "n": n,
        "chunk": chunk,
        "block": draw(st.sampled_from(BLOCKS)),
        "dtype": draw(st.sampled_from(["float32", "float64"])),
        "kind": draw(st.sampled_from(["constant", "mixed", "noisy", "large"])),
        "eb": draw(st.sampled_from([1e-1, 1e-3, 1e-5])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


class TestOneShotEqualsPerChunkOracle:
    @given(case=cases())
    @settings(max_examples=120, deadline=None)
    def test_kernel_bytes_and_values_match(self, case):
        """Any chunk and block size: one kernel pass is every chunk's own pass."""
        data = make_field(case["kind"], case["n"], case["dtype"], case["seed"])
        lens, block, eb = chunk_lens(data.size, case["chunk"]), case["block"], case["eb"]
        payloads = szx.compress_chunks(data, lens, block, eb)
        at = np.cumsum([0] + lens)
        alone = [
            szx.compress_chunks(data[start:stop], [stop - start], block, eb)[0]
            for start, stop in zip(at, at[1:])
        ]
        assert payloads == alone
        if not lens:
            return
        restored = szx.decompress_chunks(payloads, lens)
        assert restored.dtype == data.dtype
        parts = [szx.decompress_chunks([piece], [n]) for piece, n in zip(alone, lens)]
        assert restored.tobytes() == np.concatenate(parts).tobytes()

    @given(
        n=st.integers(0, 30_000),
        dtype=st.sampled_from(["float32", "float64"]),
        kind=st.sampled_from(["constant", "mixed", "noisy", "large"]),
        eb=st.sampled_from([1e-1, 1e-3, 1e-5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_bytes_and_values_match(self, n, dtype, kind, eb, seed):
        """The codecs' geometry: inputs of up to six 5120-value chunks."""
        data = make_field(kind, n, dtype, seed)
        pipe = PipelinedSZx(eb)
        plain = SZxCompressor(eb)

        payload = pipe.compress_bytes(data)
        pieces = szx_pieces(data, eb)
        assert len(pieces) == len(chunk_lens(data.size, pipe.chunk_elems))
        assert payload == pipe._frame(pieces, data.size, data.dtype)

        restored = pipe.decompress_bytes(payload)
        assert restored.dtype == data.dtype
        parts = [plain.decompress_bytes(piece) for piece in pieces]
        oracle = np.concatenate(parts) if parts else np.zeros(0, dtype=data.dtype)
        assert restored.tobytes() == oracle.tobytes()

    def test_single_chunk_payload_is_the_szx_payload(self, smooth_signal):
        """A buffer no longer than one chunk: PIPE-SZx is SZx plus the index."""
        data = smooth_signal[:5120]
        piece = SZxCompressor(error_bound=1e-3).compress_bytes(data)
        assert PipelinedSZx(error_bound=1e-3).compress_bytes(data).endswith(piece)


class TestChunkBoundaries:
    """Every size on either side of a 5120-value boundary, through all three
    codec paths: ``compress_bytes``, ``compress_many`` and ``restored``."""

    SIZES = [0, 1, 5119, 5120, 5121, 10_240, 10_241, 15_359]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("n", SIZES)
    def test_size_matches_the_per_slice_oracle(self, n, dtype):
        data = make_field("mixed", n, dtype, seed=n)
        pipe, plain = PipelinedSZx(1e-3), SZxCompressor(1e-3)
        pieces = szx_pieces(data, 1e-3)
        assert len(pieces) == len(chunk_lens(n, pipe.chunk_elems))
        framed = pipe._frame(pieces, n, data.dtype)

        restored = np.empty_like(data)
        assert pipe.compress_bytes(data, restored) == framed
        batched = np.empty_like(data)
        assert pipe.compress_many([data], [batched]) == [framed]

        parts = [plain.decompress_bytes(piece) for piece in pieces]
        oracle = np.concatenate(parts) if parts else np.zeros(0, dtype=data.dtype)
        decoded = pipe.decompress_bytes(framed)
        assert decoded.dtype == data.dtype
        for values in (decoded, restored, batched):
            assert values.tobytes() == oracle.tobytes()


class TestSameErrorsThroughPipeAsThroughSZx:
    @pytest.mark.parametrize("where", [0, 9000, 19_999], ids=["first", "middle", "last"])
    def test_float32_anchor_overflow(self, where):
        data = np.zeros(20_000, dtype=np.float64)
        data[where] = 1e300
        with pytest.raises(UnsupportedDataError, match="float32 anchor range"):
            SZxCompressor(error_bound=1e-3).compress_bytes(data)
        with pytest.raises(UnsupportedDataError, match="float32 anchor range"):
            PipelinedSZx(error_bound=1e-3).compress_bytes(data)

    @pytest.mark.parametrize("where", [0, 3], ids=["first-chunk", "last-chunk"])
    def test_bound_too_small_for_the_range(self, where):
        data = np.zeros(4 * 5120, dtype=np.float64)
        data[where * 5120 : where * 5120 + 256 : 2] = 1e12
        for codec in (SZxCompressor(error_bound=1e-12), PipelinedSZx(error_bound=1e-12)):
            with pytest.raises(CompressionError, match="too small relative to the data") as err:
                codec.compress_bytes(data)
            assert not isinstance(err.value, UnsupportedDataError)


def corrupted(payload: bytes, kind: str, position: float, value: int) -> bytes:
    """Overwrite / truncate / bit-flip ``payload`` at a relative ``position``."""
    buf = bytearray(payload)
    at = min(int(position * len(buf)), len(buf) - 1)
    if kind == "truncate":
        return bytes(buf[:at])
    if kind == "flip":
        buf[at] ^= 1 << (value % 8)
    else:
        buf[at : at + 4] = (value * 2654435761 % 2**32).to_bytes(4, "little")[: len(buf) - at]
    return bytes(buf)


class TestMalformedPayloads:
    """Corruption either still parses (and decodes to an array of the announced
    size) or raises ``DecompressionError`` — never a bare numpy error.

    Every chunk spans at least two blocks: a *single*-block payload may
    legitimately announce any block size, so a flipped block-size byte there is
    a valid (if enormous) payload rather than a malformed one.  A PIPE-SZx
    payload has the codec's geometry (128-value blocks, 5120-value chunks); an
    SZx payload may come from the kernel with another block size, which the
    decoder reads from the payload.
    """

    @given(
        n=st.integers(300, 16_000),
        pipe=st.booleans(),
        block=st.sampled_from([8, 100, 128]),
        dtype=st.sampled_from(["float32", "float64"]),
        kind=st.sampled_from(["overwrite", "truncate", "flip"]),
        # headers and index live at the front: aim half of the hits there
        position=st.one_of(st.floats(0.0, 0.02), st.floats(0.0, 1.0, exclude_max=True)),
        value=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_corruption_never_escapes_untyped(self, n, pipe, block, dtype, kind, position, value):
        data = make_field("mixed", n, dtype, seed=n)
        if pipe:
            codec = PipelinedSZx(error_bound=1e-3)
            payload = codec.compress_bytes(data)
        else:
            codec = SZxCompressor(error_bound=1e-3)
            (payload,) = szx.compress_chunks(data, [n], block, 1e-3)
        bad = corrupted(payload, kind, position, value)
        try:
            # a corrupted error bound that still parses may dequantise out of range
            with np.errstate(over="ignore", invalid="ignore"):
                restored = codec.decompress_bytes(bad)
        except DecompressionError:
            return
        assert restored.ndim == 1 and restored.dtype in (np.float32, np.float64)

    #: three chunks: 5120 + 5120 + 4000 values
    N = 14_240

    @pytest.fixture
    def signal(self):
        return np.random.default_rng(12345).standard_normal(self.N)

    @pytest.fixture
    def codec_and_pieces(self, signal):
        return PipelinedSZx(error_bound=1e-3), szx_pieces(signal, 1e-3)

    def reassembled(self, codec, pieces, index, piece):
        pieces = list(pieces)
        pieces[index] = piece
        return codec._frame(pieces, self.N, np.float64)

    def test_chunk_count_disagreeing_with_outer_header(self, codec_and_pieces, signal):
        """The seed bug: a full chunk where the outer header implies a shorter
        last one used to escape as ``ValueError: could not broadcast input array``."""
        codec, pieces = codec_and_pieces
        longer = SZxCompressor(error_bound=1e-3).compress_bytes(signal[:5120])
        with pytest.raises(DecompressionError, match="inconsistent SZx block metadata"):
            codec.decompress_bytes(self.reassembled(codec, pieces, 2, longer))

    @pytest.mark.parametrize(
        "other",
        [
            lambda x: SZxCompressor(error_bound=1e-3).compress_bytes(x.astype(np.float32)),
            lambda x: SZxCompressor(error_bound=1e-2).compress_bytes(x),
            lambda x: szx.compress_chunks(x, [x.size], 64, 1e-3)[0],
        ],
        ids=["dtype", "error-bound", "block-size"],
    )
    def test_chunks_disagreeing_with_each_other(self, codec_and_pieces, signal, other):
        codec, pieces = codec_and_pieces
        odd = other(signal[5120 : 2 * 5120])
        with pytest.raises(DecompressionError, match="inconsistent SZx block metadata"):
            codec.decompress_bytes(self.reassembled(codec, pieces, 1, odd))

    def test_outer_dtype_disagreeing_with_chunks(self, codec_and_pieces):
        codec, pieces = codec_and_pieces
        with pytest.raises(DecompressionError, match="announces float32"):
            codec.decompress_bytes(codec._frame(pieces, self.N, np.float32))

    @pytest.mark.parametrize(
        "codec", [SZxCompressor(1e-3), PipelinedSZx(1e-3)], ids=["szx", "pipe"]
    )
    def test_stored_bit_width_above_48(self, codec, rough_signal):
        data = rough_signal[:5000]  # one chunk of 40 blocks, none of them constant
        payload = bytearray(codec.compress_bytes(data))
        chunk_at = 0 if isinstance(codec, SZxCompressor) else 22 + 8 + 4  # header, index, one size
        flags_at = chunk_at + 22 + 8
        assert payload[flags_at : flags_at + 5] == bytes(5)
        widths_at = flags_at + 5 + 4 * 40
        assert 0 < payload[widths_at] <= 48
        payload[widths_at] = 49
        with pytest.raises(DecompressionError, match="bit width 49"):
            codec.decompress_bytes(bytes(payload))

    def test_truncated_chunk_index(self, codec_and_pieces):
        codec, pieces = codec_and_pieces
        payload = codec._frame(pieces, self.N, np.float64)
        with pytest.raises(DecompressionError, match="missing chunk index"):
            codec.decompress_bytes(payload[:34])  # header + index header + 1 of 3 sizes

"""The one-pass chunked SZx kernel against its per-chunk oracle.

``PipelinedSZx.compress_bytes`` / ``decompress_bytes`` hand the whole buffer to
``compress_chunks`` / ``decompress_chunks`` once; ``iter_compress`` /
``iter_decompress`` and ``SZxCompressor`` invoke the same kernel on one chunk
at a time.  The bytes and the reconstructed values must agree for every chunk
size / block size / dtype mix, aligned or not, and every malformed payload must
be refused with ``DecompressionError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    def test_bytes_and_values_match(self, case):
        data = make_field(case["kind"], case["n"], case["dtype"], case["seed"])
        pipe = PipelinedSZx(case["eb"], chunk_elems=case["chunk"], block_size=case["block"])
        plain = SZxCompressor(case["eb"], block_size=case["block"])

        payload = pipe.compress_bytes(data)
        chunks = list(pipe.iter_compress(data))
        assert payload == pipe.assemble(chunks, data.size, data.dtype)
        assert len(chunks) == pipe.chunk_count(data.size)
        for chunk in chunks:
            assert chunk.payload == plain.compress_bytes(data[chunk.start : chunk.stop])

        restored = pipe.decompress_bytes(payload)
        assert restored.dtype == data.dtype
        parts = [plain.decompress_bytes(chunk.payload) for chunk in chunks]
        oracle = np.concatenate(parts) if parts else np.zeros(0, dtype=data.dtype)
        assert restored.tobytes() == oracle.tobytes()
        streamed = list(pipe.iter_decompress(payload))
        assert [part.tobytes() for part in streamed] == [part.tobytes() for part in parts]

    def test_single_chunk_payload_is_the_szx_payload(self, smooth_signal):
        """A buffer no longer than one chunk: PIPE-SZx is SZx plus the index."""
        pipe = PipelinedSZx(error_bound=1e-3, chunk_elems=smooth_signal.size)
        (chunk,) = pipe.iter_compress(smooth_signal)
        assert chunk.payload == SZxCompressor(error_bound=1e-3).compress_bytes(smooth_signal)
        assert pipe.compress_bytes(smooth_signal).endswith(chunk.payload)


class TestSameErrorsThroughPipeAsThroughSZx:
    @pytest.mark.parametrize("where", [0, 9000, 19_999], ids=["first", "middle", "last"])
    def test_float32_anchor_overflow(self, where):
        data = np.zeros(20_000, dtype=np.float64)
        data[where] = 1e300
        with pytest.raises(UnsupportedDataError, match="float32 anchor range"):
            SZxCompressor(error_bound=1e-3).compress_bytes(data)
        with pytest.raises(UnsupportedDataError, match="float32 anchor range"):
            PipelinedSZx(error_bound=1e-3).compress_bytes(data)
        with pytest.raises(UnsupportedDataError, match="float32 anchor range"):
            list(PipelinedSZx(error_bound=1e-3).iter_compress(data))

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
    a valid (if enormous) payload rather than a malformed one.
    """

    @given(
        n=st.integers(300, 9000),
        chunk=st.sampled_from([0, 700, 1677, 5120]),  # 0: plain SZx
        block=st.sampled_from([8, 100, 128]),
        dtype=st.sampled_from(["float32", "float64"]),
        kind=st.sampled_from(["overwrite", "truncate", "flip"]),
        # headers and index live at the front: aim half of the hits there
        position=st.one_of(st.floats(0.0, 0.02), st.floats(0.0, 1.0, exclude_max=True)),
        value=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_corruption_never_escapes_untyped(self, n, chunk, block, dtype, kind, position, value):
        data = make_field("mixed", n, dtype, seed=n)
        if chunk:
            codec = PipelinedSZx(error_bound=1e-3, chunk_elems=chunk, block_size=block)
        else:
            codec = SZxCompressor(error_bound=1e-3, block_size=block)
        bad = corrupted(codec.compress_bytes(data), kind, position, value)
        try:
            # a corrupted error bound that still parses may dequantise out of range
            with np.errstate(over="ignore", invalid="ignore"):
                restored = codec.decompress_bytes(bad)
        except DecompressionError:
            return
        assert restored.ndim == 1 and restored.dtype in (np.float32, np.float64)

    @pytest.fixture
    def payload_and_chunks(self, rough_signal):
        codec = PipelinedSZx(error_bound=1e-3, chunk_elems=1677)
        chunks = list(codec.iter_compress(rough_signal[:5000]))  # 1677 + 1677 + 1646
        return codec, chunks

    def reassembled(self, codec, chunks, index, payload):
        chunks = list(chunks)
        chunks[index] = type(chunks[index])(index, chunks[index].start, chunks[index].stop, payload)
        return codec.assemble(chunks, 5000, np.float64)

    def test_chunk_count_disagreeing_with_outer_header(self, payload_and_chunks, rough_signal):
        """The seed bug: a 1677-value chunk where the outer header implies 1646
        used to escape as ``ValueError: could not broadcast input array``."""
        codec, chunks = payload_and_chunks
        longer = SZxCompressor(error_bound=1e-3).compress_bytes(rough_signal[:1677])
        with pytest.raises(DecompressionError, match="inconsistent SZx block metadata"):
            codec.decompress_bytes(self.reassembled(codec, chunks, 2, longer))

    @pytest.mark.parametrize(
        "other",
        [
            lambda x: SZxCompressor(error_bound=1e-3).compress_bytes(x.astype(np.float32)),
            lambda x: SZxCompressor(error_bound=1e-2).compress_bytes(x),
            lambda x: SZxCompressor(error_bound=1e-3, block_size=64).compress_bytes(x),
        ],
        ids=["dtype", "error-bound", "block-size"],
    )
    def test_chunks_disagreeing_with_each_other(self, payload_and_chunks, rough_signal, other):
        codec, chunks = payload_and_chunks
        odd = other(rough_signal[1677 : 2 * 1677])
        with pytest.raises(DecompressionError, match="inconsistent SZx block metadata"):
            codec.decompress_bytes(self.reassembled(codec, chunks, 1, odd))

    def test_outer_dtype_disagreeing_with_chunks(self, payload_and_chunks):
        codec, chunks = payload_and_chunks
        with pytest.raises(DecompressionError, match="announces float32"):
            codec.decompress_bytes(codec.assemble(chunks, 5000, np.float32))

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

    def test_truncated_chunk_index(self, payload_and_chunks):
        codec, chunks = payload_and_chunks
        payload = codec.assemble(chunks, 5000, np.float64)
        with pytest.raises(DecompressionError, match="missing chunk index"):
            codec.decompress_bytes(payload[:34])  # header + index header + 1 of 3 sizes

"""Component micro-benchmarks: the vectorised codec data plane.

Tracks the throughput of the two hottest codec paths — SZx and ZFP on a
4M-value, mostly-non-constant field at the paper's block sizes — plus the
width-class batched bit-packing primitives underneath them.  The headline
test also re-runs SZx through a *scalar reference* encoder (one
``pack_uint_bits`` call per block, the pre-vectorisation code shape) so the
batched data plane's speedup is measured inside the suite rather than against
git archaeology, and prices the ``restored`` out-parameter against the decode
it replaces in the simulations.  The gated numbers for this path are the
``codec_large`` / ``codec_small`` workloads of ``benchmarks/ledger`` (see
``benchmarks/README.md``).
"""

import numpy as np
import pytest

from repro.compression.pipelined import PipelinedSZx
from repro.compression.szx import SZxCompressor
from repro.compression.zfp import ZFPCompressor
from repro.datasets.rtm import generate_rtm_snapshot
from repro.utils.bitpack import (
    pack_uint_bits,
    pack_uint_bits_rows,
    unpack_uint_bits,
    unpack_uint_bits_rows,
)

#: the acceptance scenario: 4M values, mostly non-constant at eb=1e-3
HOTPATH_N = 4_000_000
HOTPATH_EB = 1e-3


def hotpath_field(n: int = HOTPATH_N, seed: int = 7) -> np.ndarray:
    """Sine carrier plus noise: >95% of SZx blocks are non-constant at 1e-3."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 64.0 * np.pi, n)
    return (np.sin(t) + 0.05 * rng.standard_normal(n)).astype(np.float32)


def scalar_reference_pack(codec: SZxCompressor, data: np.ndarray) -> bytes:
    """The pre-vectorisation SZx shape: one pack_uint_bits call per block.

    Only the per-block payload loop is reproduced (classification and
    quantisation were always vectorised); this is the loop the width-class
    batching removed.
    """
    from repro.utils.bitpack import bit_length_u64, zigzag_encode

    eb = codec.error_bound
    block = codec.block_size
    n_blocks = (data.size + block - 1) // block
    padded = np.empty(n_blocks * block, dtype=np.float64)
    padded[: data.size] = data
    if padded.size > data.size:
        padded[data.size :] = data[-1]
    blocks = padded.reshape(n_blocks, block)
    medium = ((blocks.min(axis=1) + blocks.max(axis=1)) * 0.5).astype(np.float32)
    offsets = blocks - medium.astype(np.float64)[:, None]
    const_mask = np.max(np.abs(offsets), axis=1) <= eb
    encoded = zigzag_encode(np.rint(offsets[~const_mask] / (2.0 * eb)).astype(np.int64))
    widths = bit_length_u64(encoded.max(axis=1))
    pieces = [pack_uint_bits(row, int(w)) for row, w in zip(encoded, widths)]
    return b"".join(pieces)


class TestSZxHotPath:
    def test_compress_4m(self, benchmark):
        data = hotpath_field()
        codec = SZxCompressor(error_bound=HOTPATH_EB)
        payload = benchmark.pedantic(codec.compress_bytes, args=(data,), rounds=3, iterations=1)
        assert len(payload) < data.nbytes

    def test_decompress_4m(self, benchmark):
        data = hotpath_field()
        codec = SZxCompressor(error_bound=HOTPATH_EB)
        payload = codec.compress_bytes(data)
        out = benchmark.pedantic(codec.decompress_bytes, args=(payload,), rounds=3, iterations=1)
        assert np.max(np.abs(out.astype(np.float64) - data.astype(np.float64))) <= 2 * HOTPATH_EB

    def test_batched_beats_scalar_reference(self):
        """The width-class data plane must stay well ahead of the per-block loop."""
        import time

        data = hotpath_field(n=1_000_000)
        codec = SZxCompressor(error_bound=HOTPATH_EB)
        codec.compress_bytes(data)  # warm
        t0 = time.perf_counter()
        codec.compress_bytes(data)
        vectorised = time.perf_counter() - t0
        t0 = time.perf_counter()
        scalar_reference_pack(codec, data)
        scalar = time.perf_counter() - t0
        ratio = scalar / vectorised
        print(f"\nSZx compress 1M values: vectorised {vectorised:.3f}s, "
              f"scalar reference {scalar:.3f}s, speedup {ratio:.1f}x")
        # conservative floor for noisy CI runners; locally this is ~8-10x
        assert ratio > 2.0


class TestZFPHotPath:
    def test_abs_roundtrip_1m(self, benchmark):
        data = hotpath_field(n=1_000_000)
        codec = ZFPCompressor(mode="abs", error_bound=HOTPATH_EB)

        def roundtrip():
            return codec.decompress_bytes(codec.compress_bytes(data))

        out = benchmark.pedantic(roundtrip, rounds=3, iterations=1)
        assert out.size == data.size

    def test_fxr_roundtrip_1m(self, benchmark):
        data = hotpath_field(n=1_000_000)
        codec = ZFPCompressor(mode="fxr", rate=8)

        def roundtrip():
            return codec.decompress_bytes(codec.compress_bytes(data))

        out = benchmark.pedantic(roundtrip, rounds=3, iterations=1)
        assert out.size == data.size


class TestPipelinedHotPath:
    def test_pipe_szx_roundtrip_1m(self, benchmark):
        data = hotpath_field(n=1_000_000)
        codec = PipelinedSZx(error_bound=HOTPATH_EB)

        def roundtrip():
            return codec.decompress_bytes(codec.compress_bytes(data))

        out = benchmark.pedantic(roundtrip, rounds=3, iterations=1)
        assert out.size == data.size

    def test_chunking_costs_no_second_pass(self):
        """196 chunks ride the same blockwise pass as one: PIPE-SZx must stay
        close to plain SZx on the same buffer (it was 2.7x when every chunk
        was a whole-codec call)."""
        import time

        data = hotpath_field(n=1_000_000)

        def best_roundtrip(codec) -> float:
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                codec.decompress_bytes(codec.compress_bytes(data))
                times.append(time.perf_counter() - t0)
            return min(times)

        plain = best_roundtrip(SZxCompressor(error_bound=HOTPATH_EB))
        piped = best_roundtrip(PipelinedSZx(error_bound=HOTPATH_EB))
        print(f"\n1M-value round trip: SZx {plain * 1e3:.1f} ms, PIPE-SZx {piped * 1e3:.1f} ms, "
              f"ratio {piped / plain:.2f}x")
        assert piped < 1.5 * plain


class TestRestoredOutParameter:
    @pytest.mark.parametrize("codec_type", [SZxCompressor, PipelinedSZx])
    def test_restored_costs_a_fraction_of_the_decode_it_replaces(self, codec_type):
        """Ratios of calls timed in one process, so no wall-clock threshold.  At a
        message size (16 384 values: the simulated collectives send 1-64 KiB) a
        compress that also fills ``restored`` must stay under 0.85x of compress +
        decompress — the pair it replaces on the simulation path, ~0.7x measured —
        and under 1.4x of compress alone (~1.15x measured).  At 1 M values both
        sit near their limits (0.74-0.90x, 1.29-1.47x): the dequantise pass is
        bandwidth-bound like everything else there."""
        import time

        data = hotpath_field(n=16_384)
        codec = codec_type(error_bound=HOTPATH_EB)
        restored = np.empty_like(data)
        payload = codec.compress_bytes(data)

        def best(call) -> float:
            times = []
            for _ in range(200):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            return min(times)

        compress = best(lambda: codec.compress_bytes(data))
        decompress = best(lambda: codec.decompress_bytes(payload))
        both = best(lambda: codec.compress_bytes(data, restored=restored))
        print(f"\n{codec.name} at 16 384 values: compress {compress * 1e6:.0f} us, decompress "
              f"{decompress * 1e6:.0f} us, compress with restored {both * 1e6:.0f} us "
              f"({both / (compress + decompress):.2f}x of the pair, {both / compress:.2f}x of compress)")
        assert restored.tobytes() == codec.decompress_bytes(payload).tobytes()
        assert both < 0.85 * (compress + decompress)
        assert both < 1.4 * compress


class TestCompressMany:
    @pytest.mark.parametrize("codec_type", [SZxCompressor, PipelinedSZx])
    @pytest.mark.parametrize(
        "batch, values, bar", [(16, 15_552, 0.7), (8, 1_024, 0.5)], ids=["16x15552", "8x1024"]
    )
    def test_one_pass_beats_separate_calls(self, codec_type, batch, values, bar):
        """One ``compress_many`` over a ring round against one ``compress_bytes`` per
        chunk, both filling ``restored`` (ratios of calls timed alternately in one
        process).  The chunks are the RTM field's, as ``allreduce_ccoll`` cuts it over
        16 ranks (and 8 ranks' worth of 1 024-value chunks): with the per-call fixed
        cost paid once per round, the batch must stay under 0.7x / 0.5x of the
        separate calls (~0.55x / ~0.3x measured, median over rounds)."""
        import time

        rng = np.random.default_rng(3)
        field = generate_rtm_snapshot(seed=0).flatten()
        field += (0.2 * HOTPATH_EB * rng.standard_normal(field.size)).astype(np.float32)
        arrays = [field[i * values : (i + 1) * values].copy() for i in range(batch)]
        restoreds = [np.empty_like(data) for data in arrays]
        codec = codec_type(error_bound=HOTPATH_EB)
        expected = [codec.compress_bytes(data, out) for data, out in zip(arrays, restoreds)]
        assert codec.compress_many(arrays, restoreds) == expected

        # each round times both back to back and keeps their ratio, so a slow
        # spell of a shared host slows both sides of the rounds it covers
        separate, many = [], []
        for _ in range(60):
            t0 = time.perf_counter()
            for data, restored in zip(arrays, restoreds):
                codec.compress_bytes(data, restored)
            separate.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            codec.compress_many(arrays, restoreds)
            many.append(time.perf_counter() - t0)
        ratio = float(np.median(np.asarray(many) / np.asarray(separate)))
        print(f"\n{codec.name} {batch} x {values}: separate {min(separate) * 1e3:.2f} ms, "
              f"compress_many {min(many) * 1e3:.2f} ms, median ratio {ratio:.2f}x")
        assert ratio < bar


class TestBitpackPrimitives:
    def test_pack_rows_1m(self, benchmark):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1 << 10, size=(8192, 128), dtype=np.uint64)
        blob = benchmark.pedantic(pack_uint_bits_rows, args=(values, 10), rounds=3, iterations=1)
        assert len(blob) == 8192 * ((128 * 10 + 7) // 8)

    def test_unpack_rows_1m(self, benchmark):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1 << 10, size=(8192, 128), dtype=np.uint64)
        blob = pack_uint_bits_rows(values, 10)
        out = benchmark.pedantic(
            unpack_uint_bits_rows, args=(blob, 8192, 128, 10), rounds=3, iterations=1
        )
        np.testing.assert_array_equal(out, values)

    def test_single_row_api_unchanged(self):
        values = np.arange(100, dtype=np.uint64)
        assert unpack_uint_bits(pack_uint_bits(values, 7), 100, 7).tolist() == values.tolist()

"""Component micro-benchmarks: the vectorised codec data plane.

Tracks the throughput of the two hottest codec paths — SZx and ZFP on a
4M-value, mostly-non-constant field at the paper's block sizes — plus the
width-class batched bit-packing primitives underneath them.  The headline
test also re-runs SZx through a *scalar reference* encoder (one
``pack_uint_bits`` call per block, the pre-vectorisation code shape) so the
batched data plane's speedup is measured inside the suite rather than against
git archaeology, and prices ``compressed_nbytes`` — a simulated message's
length and reconstruction — against the compress + decode pair it replaces.
The word-level packing kernels are likewise timed against the per-bit loops
they replaced (``bitplane_reference_pack`` / ``bitplane_reference_unpack``).  The gated numbers for this path are the
``codec_large`` / ``codec_small`` workloads of ``benchmarks/ledger`` (see
``benchmarks/README.md``).
"""

import time
from typing import Callable, Dict

import numpy as np
import pytest

from repro.compression.pipelined import PipelinedSZx
from repro.compression.szx import SZxCompressor
from repro.compression.zfp import ZFPCompressor
from repro.datasets.rtm import generate_rtm_snapshot
from repro.utils.bitpack import (
    narrow_uint_dtype,
    pack_uint_bits,
    pack_uint_bits_rows,
    pack_width_classes,
    row_nbytes,
    unpack_uint_bits,
    unpack_uint_bits_rows,
    unpack_width_classes,
)

#: the acceptance scenario: 4M values, mostly non-constant at eb=1e-3
HOTPATH_N = 4_000_000
HOTPATH_EB = 1e-3


def best_in_spells(
    calls: Dict[str, Callable[[], object]], spells: int, per_spell: int
) -> Dict[str, float]:
    """The fastest of ``spells * per_spell`` timed calls of each of ``calls``, taken
    in turn, ``per_spell`` calls of one before the next, after one warm-up call
    each: a slow spell of a shared host lands on every call kind it overlaps,
    not on whichever was being timed as one block."""
    for call in calls.values():
        call()
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(spells):
        for name, call in calls.items():
            for _ in range(per_spell):
                t0 = time.perf_counter()
                call()
                best[name] = min(best[name], time.perf_counter() - t0)
    return best


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


def bitplane_reference_pack(values: np.ndarray, nbits: int) -> bytes:
    """The per-bit packing loop the word kernel replaced: one shift/AND/store
    pass per bit into a byte-per-bit matrix, then ``np.packbits``.  Emits the
    bytes of ``pack_uint_bits_rows(values, nbits)``."""
    n_rows, count = values.shape
    dt = narrow_uint_dtype(nbits)
    v = values.astype(dt, copy=False)
    bits = np.zeros((n_rows, int(row_nbytes(count, nbits)) * 8), dtype=np.uint8)
    view = bits[:, : count * nbits].reshape(n_rows, count, nbits)
    one = dt.type(1)
    for j in range(nbits):
        view[:, :, j] = (v >> dt.type(nbits - 1 - j)) & one
    return np.packbits(bits.reshape(-1)).tobytes()


def bitplane_reference_unpack(buffer, n_rows: int, count: int, nbits: int) -> np.ndarray:
    """Its decoding twin: ``np.unpackbits`` and one shift/OR pass per bit."""
    per_row = int(row_nbytes(count, nbits))
    raw = np.frombuffer(buffer, dtype=np.uint8)[: n_rows * per_row].reshape(n_rows, per_row)
    bits = np.unpackbits(raw, axis=1)[:, : count * nbits].reshape(n_rows, count, nbits)
    dt = narrow_uint_dtype(nbits)
    out = np.zeros((n_rows, count), dtype=dt)
    one = dt.type(1)
    for j in range(nbits):
        np.left_shift(out, one, out=out)
        out |= bits[:, :, j]
    return out


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
        """Guards: SZx packs by width class; a pack call per block drops the speedup to ~1x.

        The width-class data plane must stay well ahead of the per-block loop."""
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
        """Guards: chunks share one blockwise pass; a pass per chunk read 2.7x plain SZx.

        196 chunks ride the same blockwise pass as one: PIPE-SZx must stay
        close to plain SZx on the same buffer (it was 2.7x when every chunk
        was a whole-codec call).  The best of five round trips each, the two
        codecs taking turns."""
        data = hotpath_field(n=1_000_000)

        def roundtrip(codec):
            return lambda: codec.decompress_bytes(codec.compress_bytes(data))

        best = best_in_spells(
            {
                "plain": roundtrip(SZxCompressor(error_bound=HOTPATH_EB)),
                "piped": roundtrip(PipelinedSZx(error_bound=HOTPATH_EB)),
            },
            spells=5,
            per_spell=1,
        )
        plain, piped = best["plain"], best["piped"]
        print(f"\n1M-value round trip: SZx {plain * 1e3:.1f} ms, PIPE-SZx {piped * 1e3:.1f} ms, "
              f"ratio {piped / plain:.2f}x")
        assert piped < 1.5 * plain


#: the codecs a simulated message compresses through, as the simulations make them
RESTORING_CODECS = {
    "szx": lambda: SZxCompressor(error_bound=HOTPATH_EB),
    "pipe_szx": lambda: PipelinedSZx(error_bound=HOTPATH_EB),
    "zfp_abs": lambda: ZFPCompressor(mode="abs", error_bound=HOTPATH_EB),
    "zfp_fxr": lambda: ZFPCompressor(mode="fxr", rate=8),
}


class TestReconstructionWithoutDecode:
    @pytest.mark.parametrize("codec_name", list(RESTORING_CODECS))
    def test_a_message_costs_a_fraction_of_the_pair_it_replaces(self, codec_name):
        """Guards: the reconstruction comes from the quants; a decode to fill it reads ~1x of the pair.

        Ratios of calls timed in one process, so no wall-clock threshold.  At a
        message size (16 384 values: the simulated collectives send 1-64 KiB)
        ``compressed_nbytes([x], [r])`` — all a simulated message asks of the
        codec: its payload's length and reconstruction — must stay under 0.85x
        of ``compress_bytes`` + ``decompress_bytes``, the pair it replaces, and
        under 1.4x of ``compress_bytes`` alone.  The best of 200 calls each,
        taken in 40 spells of five, the three call kinds taking turns."""
        data = hotpath_field(n=16_384)
        codec = RESTORING_CODECS[codec_name]()
        restored = np.empty_like(data)
        payload = codec.compress_bytes(data)

        best = best_in_spells(
            {
                "compress": lambda: codec.compress_bytes(data),
                "decompress": lambda: codec.decompress_bytes(payload),
                "nbytes": lambda: codec.compressed_nbytes([data], [restored]),
            },
            spells=40,
            per_spell=5,
        )
        compress, decompress, nbytes = best["compress"], best["decompress"], best["nbytes"]
        print(f"\n{codec.name} at 16 384 values: compress {compress * 1e6:.0f} us, decompress "
              f"{decompress * 1e6:.0f} us, compressed_nbytes {nbytes * 1e6:.0f} us "
              f"({nbytes / (compress + decompress):.2f}x of the pair, "
              f"{nbytes / compress:.2f}x of compress)")
        assert codec.compressed_nbytes([data], [restored]) == [len(payload)]
        assert restored.tobytes() == codec.decompress_bytes(payload).tobytes()
        assert nbytes < 0.85 * (compress + decompress)
        assert nbytes < 1.4 * compress


class TestCompressedNbytes:
    @pytest.mark.parametrize("codec_type", [SZxCompressor, PipelinedSZx])
    @pytest.mark.parametrize(
        "batch, values, bar",
        [(16, 15_552, 0.7), (8, 1_024, 0.5), (8, 31_104, 0.75)],
        ids=["16x15552", "8x1024", "8x31104"],
    )
    def test_one_pass_beats_separate_calls(self, codec_type, batch, values, bar):
        """Guards: a batch pays one fixed cost; a call per input inside it would read ~1x.

        One ``compressed_nbytes`` over a ring round against one per chunk (a batch
        of one, as a rank compresses with nothing queued), both filling ``restored``
        (ratios of calls timed alternately in one process).  The chunks are the RTM
        field's, as ``allreduce_ccoll`` cuts it over 16 ranks (and 8 ranks' worth
        of 1 024-value chunks), and as its topology-aware leader ring cuts it over
        8 node leaders (31 104 values): with the per-call fixed cost paid once per
        round, the batch must stay under 0.7x / 0.5x / 0.75x of the separate
        calls."""
        rng = np.random.default_rng(3)
        field = generate_rtm_snapshot(seed=0).flatten()
        field += (0.2 * HOTPATH_EB * rng.standard_normal(field.size)).astype(np.float32)
        arrays = [field[i * values : (i + 1) * values].copy() for i in range(batch)]
        restoreds = [np.empty_like(data) for data in arrays]
        codec = codec_type(error_bound=HOTPATH_EB)
        expected = [codec.compress_bytes(data) for data in arrays]
        assert codec.compressed_nbytes(arrays, restoreds) == [len(payload) for payload in expected]
        for restored, payload in zip(restoreds, expected):
            assert restored.tobytes() == codec.decompress_bytes(payload).tobytes()

        # each round times both back to back and keeps their ratio, so a slow
        # spell of a shared host slows both sides of the rounds it covers
        separate, many = [], []
        for _ in range(60):
            t0 = time.perf_counter()
            for data, restored in zip(arrays, restoreds):
                codec.compressed_nbytes([data], [restored])
            separate.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            codec.compressed_nbytes(arrays, restoreds)
            many.append(time.perf_counter() - t0)
        ratio = float(np.median(np.asarray(many) / np.asarray(separate)))
        print(f"\n{codec.name} {batch} x {values}: separate {min(separate) * 1e3:.2f} ms, "
              f"one batch {min(many) * 1e3:.2f} ms, median ratio {ratio:.2f}x")
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

    @pytest.mark.parametrize(
        "n_rows, count, widths", [(7_800, 128, (7, 9)), (62_500, 15, (7, 11))],
        ids=["szx", "zfp_detail"],
    )
    def test_width_classes_cost_little_beyond_their_kernels(self, n_rows, count, widths):
        """Guards: placement adds no per-byte pass; an index per byte read 1.7-2.2x.

        ``pack_width_classes`` + ``unpack_width_classes`` against the per-class
        kernel calls inside them, summed: the best of 40 calls each, taken in
        eight spells of five after a warm-up, all in one process, so no
        wall-clock threshold.  The shapes are 1 M values as SZx lays them out
        (128-value rows) and as ZFP's detail field does (15-value rows), with
        random per-row widths.  What the wrappers add is placing each row at
        its cursor: with one index per row the round trip measured 1.04-1.22x
        its kernels at the SZx shape and 1.27-1.35x at the ZFP one; one index
        per byte measured 1.80-2.17x and 1.67-1.86x.  The bar is 1.5x.

        What this guards is ``compress_bytes`` / ``decompress_bytes`` alone:
        Table I, the codec API and the ledger's ``codec_*`` rows.  No
        simulation runs that path (``compressed_nbytes`` packs nothing)."""
        rng = np.random.default_rng(5)
        nbits = rng.integers(widths[0], widths[1] + 1, size=n_rows).astype(np.int64)
        values = (
            rng.integers(0, 1 << 16, size=(n_rows, count), dtype=np.uint16)
            >> (16 - nbits[:, None]).astype(np.uint16)
        )
        sizes = row_nbytes(count, nbits)
        starts = np.cumsum(sizes) - sizes
        total = int(sizes.sum())
        classes = [(int(w), np.nonzero(nbits == w)[0]) for w in np.unique(nbits)]
        class_values = {w: values[rows] for w, rows in classes}
        blobs = {w: pack_uint_bits_rows(class_values[w], w) for w, _ in classes}
        region = np.zeros(total, dtype=np.uint8)
        pack_width_classes(values, nbits, starts, total, out=region)
        np.testing.assert_array_equal(
            unpack_width_classes(region, nbits, starts, count, dtype=None), values
        )

        calls = {
            "pack": lambda: pack_width_classes(values, nbits, starts, total, out=region),
            "pack_kernels": lambda: [pack_uint_bits_rows(class_values[w], w) for w, _ in classes],
            "unpack": lambda: unpack_width_classes(region, nbits, starts, count, dtype=None),
            "unpack_kernels": lambda: [
                unpack_uint_bits_rows(blobs[w], rows.size, count, w, dtype=None)
                for w, rows in classes
            ],
        }
        best = best_in_spells(calls, spells=8, per_spell=5)
        ratio = (best["pack"] + best["unpack"]) / (best["pack_kernels"] + best["unpack_kernels"])
        print(f"\n{n_rows} x {count}, widths {widths[0]}-{widths[1]}: pack "
              f"{best['pack'] * 1e3:.2f} ms ({best['pack'] / best['pack_kernels']:.2f}x its "
              f"kernels), unpack {best['unpack'] * 1e3:.2f} ms "
              f"({best['unpack'] / best['unpack_kernels']:.2f}x), round trip {ratio:.2f}x")
        assert ratio < 1.5

    @pytest.mark.parametrize(
        "n_rows, count, widths", [(7_800, 128, (7, 9)), (62_500, 15, (7, 11))],
        ids=["szx", "zfp_detail"],
    )
    def test_word_kernels_beat_the_bitplane_loops(self, n_rows, count, widths):
        """Guards: the kernels move words, not bits; a pass per bit would read ~1x.

        ``pack_uint_bits_rows`` + ``unpack_uint_bits_rows`` against the per-bit
        loops they replaced, per width class of 1 M values laid out as SZx
        (128-value rows) and ZFP's detail field (15-value rows) lay them out:
        the best of 40 round trips each, taken in eight spells of five after a
        warm-up, all in one process, so no wall-clock threshold.  Width 8,
        whose packed row is the values themselves, is no per-bit work in
        either and is left out.  The bar is 0.6x.

        What this guards is ``compress_bytes`` / ``decompress_bytes`` alone:
        Table I, the codec API and the ledger's ``codec_*`` rows.  No
        simulation runs that path (``compressed_nbytes`` packs nothing)."""
        rng = np.random.default_rng(5)
        nbits = rng.integers(widths[0], widths[1] + 1, size=n_rows).astype(np.int64)
        values = (
            rng.integers(0, 1 << 16, size=(n_rows, count), dtype=np.uint16)
            >> (16 - nbits[:, None]).astype(np.uint16)
        )
        classes = [(int(w), values[nbits == w]) for w in np.unique(nbits) if w != 8]
        for w, rows in classes:
            blob = pack_uint_bits_rows(rows, w)
            assert bitplane_reference_pack(rows, w) == blob
            np.testing.assert_array_equal(bitplane_reference_unpack(blob, len(rows), count, w), rows)

        def round_trips(pack, unpack):
            return lambda: [unpack(pack(rows, w), len(rows), count, w) for w, rows in classes]

        calls = {
            "words": round_trips(
                pack_uint_bits_rows,
                lambda blob, n, c, w: unpack_uint_bits_rows(blob, n, c, w, dtype=None),
            ),
            "bitplanes": round_trips(bitplane_reference_pack, bitplane_reference_unpack),
        }
        best = best_in_spells(calls, spells=8, per_spell=5)
        ratio = best["words"] / best["bitplanes"]
        print(f"\n{n_rows} x {count}, widths {[w for w, _ in classes]}: word kernels "
              f"{best['words'] * 1e3:.2f} ms, bit-plane loops {best['bitplanes'] * 1e3:.2f} ms "
              f"per round trip, {ratio:.2f}x")
        assert ratio < 0.6

    def test_single_row_api_unchanged(self):
        values = np.arange(100, dtype=np.uint64)
        assert unpack_uint_bits(pack_uint_bits(values, 7), 100, 7).tolist() == values.tolist()

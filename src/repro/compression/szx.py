"""SZx-style ultra-fast error-bounded lossy compressor.

This is a from-scratch numpy implementation of the algorithmic core of SZx
(Yu et al., HPDC'22), the compressor the paper customises for MPI collectives:

* the input is split into fixed-size blocks of 128 values;
* each block stores its *medium value* ``(min + max) / 2``;
* a block whose radius ``(max - min) / 2`` is within the error bound is a
  **constant block** — only the medium value is stored (this is where the very
  high ratios on smooth scientific fields come from);
* a **non-constant block** additionally stores, for every value, the offset
  from the medium value quantised with step ``2 * error_bound`` and packed with
  the minimum number of bits required by the largest offset in the block.

The reconstruction error of every value is therefore bounded by the absolute
error bound (up to floating-point rounding when the caller's dtype is
float32).  The payload layout is self-describing::

    PayloadHeader  (magic b"SZX1", dtype, count, error_bound)
    u32  block_size
    u32  n_blocks
    u8   flags[ceil(n_blocks / 8)]      1 bit per block, 1 = constant
    f32  medium[n_blocks]
    u8   nbits[n_nonconstant]
    u8   payload[...]                   per non-constant block, byte aligned

The compressed size of each block is computable from the metadata alone, which
is what allows the pipelined variant (:mod:`repro.compression.pipelined`) to
keep a compact chunk index at the front of its buffer.

Width-class batched layout
--------------------------
The per-block payload region is written and read **by width class** rather
than block by block.  All non-constant blocks sharing the same bit width
``w`` form one class; the whole class is encoded in a single
:func:`~repro.utils.bitpack.pack_uint_bits_rows` call (one numpy pass over an
``(n_class, block)`` matrix, each row padded to a whole byte) and the
resulting rows are scattered into the payload at cursors precomputed from the
``nbits`` metadata (``cumsum`` of the per-block byte sizes).  Decompression
mirrors this: cursors are precomputed the same way, each class's rows are
gathered with one fancy-index and decoded with one
:func:`~repro.utils.bitpack.unpack_uint_bits_rows` call.  Because every row
is byte-aligned exactly like an independent ``pack_uint_bits`` call, the
on-wire bytes are bit-for-bit identical to the historical per-block loop —
pinned by ``tests/compression/test_golden_payloads.py`` — while the hot path
runs a constant number of numpy passes per *distinct width* instead of a
Python iteration per *block*.

Chunked layout
--------------
:func:`compress_chunks` / :func:`decompress_chunks` are the one blockwise
kernel behind :class:`SZxCompressor` (the whole buffer is one chunk), PIPE-SZx
(5120-value chunks, each a complete SZx payload of its own) and the batches of
``compress_many`` (every input's chunks back to back).  The kernel takes the
list of chunk lengths, which may be ragged, and a buffer of ``c`` chunks goes
through the steps above **once**, not ``c`` times:

* *per-chunk padding*: every chunk is padded to a whole number of blocks with
  **its own** last value and owns the next ``ceil(length / block)`` rows of one
  ``(n_blocks, block)`` matrix, so no block ever mixes two chunks.  Chunk
  lengths need not be a multiple of the block size, nor block counts a
  multiple of 8.  A run of equal-length chunks is filled with one reshape, so
  a one-shot call costs no more than the uniform grid it generalises;
* min/max, medium, classification, quantisation, zigzag, bit lengths and
  ``pack_width_classes`` run over that matrix in one go (rows are byte-aligned,
  so the packed region of chunk ``i`` is a contiguous slice of the whole);
* *cutting*: chunk ``i``'s payload is its own header (count = chunk length)
  followed by four slices — its row of the per-chunk ``packbits`` flag matrix,
  its blocks' ``medium`` values, the ``nbits`` of its non-constant blocks, and
  the bytes of the packed region those blocks own.

Every data-dependent refusal of the kernel (the float32 anchor range, the
quantised width) is a maximum over blocks, so a batch is refused exactly when
one of its inputs would be on its own; ``compress_many`` then re-runs the
inputs one by one to raise what that input raises.

Decompression walks the chunk fronts once (every header and length is checked
there, before any array is sized from it), concatenates the same four slices
back into the shared arrays, decodes them with one ``unpack_width_classes``
pass and drops each chunk's padding while casting to the output dtype.  The
bytes equal compressing every chunk on its own, which is how the per-chunk
generators of :mod:`repro.compression.pipelined` serve as the oracle.

*The reconstruction is a by-product of encoding.*  Past the bit-unpacking, the
decoder needs exactly three things — the signed quants, the float32 mediums and
the constant mask — and the encoder holds all three before it packs a byte.
The last two steps of decoding are therefore one helper pair, ``_dequantise``
(``medium + quant * step`` into the block matrix) and ``_unpad`` (drop every
chunk's padding, cast to the output dtype), that both directions call:
:func:`decompress_chunks` on what it unpacked, :func:`compress_chunks` — when
handed the ``restored`` out-parameter of
:meth:`~repro.compression.base.Compressor.compress_bytes` — on what it is
about to pack.  ``restored`` then equals the decode byte for byte (``-0.0``
mediums, float32 rounding and per-chunk padding included) by construction, at
a fraction of what un-bit-packing the same quants back out of the payload
costs; ``tests/compression/test_restored.py`` is the differential.
"""

from __future__ import annotations

import math
import struct
from itertools import groupby
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compression.base import Compressor, check_restored
from repro.compression.errors import CompressionError, DecompressionError, UnsupportedDataError
from repro.compression.header import PayloadHeader
from repro.utils.bitpack import (
    bit_length_u64,
    narrow_signed_dtype,
    pack_width_classes,
    row_nbytes,
    unpack_width_classes,
    zigzag_decode,
    zigzag_encode,
)
from repro.utils.validation import ensure_positive

__all__ = ["SZxCompressor", "DEFAULT_BLOCK_SIZE"]

_MAGIC = b"SZX1"
_BLOCK_HEADER = struct.Struct("<II")
#: byte offset of the flags array inside a (chunk) payload
_META_OFFSET = PayloadHeader.SIZE + _BLOCK_HEADER.size
DEFAULT_BLOCK_SIZE = 128

#: offsets larger than this many quantisation bins fall back to raw storage;
#: it guards the bit-length computation against degenerate bound/data combos.
_MAX_QUANT_BITS = 48


class SZxCompressor(Compressor):
    """Error-bounded SZx-style block compressor.

    Parameters
    ----------
    error_bound:
        Absolute error bound.  A bound relative to the value range is the
        caller's to resolve (``error_bound * value_range``).

    Every payload has blocks of :attr:`block_size` values (128, as SZx uses
    on CPUs); the decoder reads the block size from the payload header.
    """

    name = "szx"
    error_bounded = True
    block_size = DEFAULT_BLOCK_SIZE

    def __init__(self, error_bound: float = 1e-3) -> None:
        self.error_bound = ensure_positive(error_bound, "error_bound")

    # ------------------------------------------------------------------ API

    def describe(self) -> Dict[str, object]:
        return {"name": self.name, "error_bounded": True, "error_bound": self.error_bound}

    # ----------------------------------------------------------- compression

    def compress_bytes(self, data: np.ndarray, restored: Optional[np.ndarray] = None) -> bytes:
        check_restored(data, restored)
        if data.size == 0:
            return _chunk_head(data.dtype, 0, self.error_bound, self.block_size)
        return compress_chunks(data, [data.size], self.block_size, self.error_bound, restored)[0]

    def compress_many(
        self, arrays: Sequence[np.ndarray], restoreds: Sequence[np.ndarray]
    ) -> List[bytes]:
        eb, block = self.error_bound, self.block_size
        return compress_batch(
            self,
            arrays,
            restoreds,
            lambda count: [count] if count else [],
            lambda chunks, data: chunks[0] if chunks else _chunk_head(data.dtype, 0, eb, block),
        )

    # --------------------------------------------------------- decompression

    def decompress_bytes(self, payload: bytes) -> np.ndarray:
        header = PayloadHeader.unpack(payload, _MAGIC)
        if len(payload) < _META_OFFSET:
            raise DecompressionError("truncated SZx payload (missing block header)")
        if header.count == 0:
            return np.zeros(0, dtype=header.dtype)
        return decompress_chunks([payload], [header.count])


# ------------------------------------------------------------ chunked kernel


def _runs(lens: Sequence[int], block: int) -> List[Tuple[int, int, int, int, int]]:
    """The chunks of lengths ``lens`` (each >= 1) as runs of equal length.

    One ``(value offset, block-row offset, length, chunks, blocks per chunk)``
    tuple per run of consecutive equal lengths: a run is one reshape of the
    flat values and one of the ``(n_blocks, block)`` matrix, whatever its
    number of chunks.
    """
    runs = []
    at = row = 0
    for length, group in groupby(lens):
        count = sum(1 for _ in group)
        per = -(-length // block)
        runs.append((at, row, length, count, per))
        at += count * length
        row += count * per
    return runs


def _extent(runs) -> Tuple[int, int]:
    """The number of values and of blocks the chunks of ``runs`` hold."""
    at, row, length, count, per = runs[-1]
    return at + count * length, row + count * per


def _chunk_head(dtype, count: int, eb: float, block: int) -> bytes:
    """The fixed-size front of one chunk payload: ``PayloadHeader`` + block header."""
    header = PayloadHeader(magic=_MAGIC, dtype=dtype, count=count, param=eb)
    return header.pack() + _BLOCK_HEADER.pack(block, -(-count // block))


def _cursors(counts) -> np.ndarray:
    """Exclusive prefix sums of ``counts`` with the total appended."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _dequantise(
    out_blocks: np.ndarray,
    quants: Optional[np.ndarray],
    medium: np.ndarray,
    const_mask: np.ndarray,
    nonconst_idx: np.ndarray,
    step: float,
) -> None:
    """Fill the float64 ``(n_blocks, block)`` matrix with the values a payload stands for.

    A constant block is its float32 ``medium`` throughout; row ``i`` of the
    signed ``quants`` (``None`` when every block is constant) belongs to block
    ``nonconst_idx[i]`` and reconstructs to ``medium + quant * step``.  This is
    *the* reconstruction: the decoder calls it with the quants it unpacked, the
    encoder with the ones it is about to pack (see "Chunked layout" in the
    module docstring).
    """
    out_blocks[const_mask] = medium[const_mask].astype(np.float64)[:, None]
    if nonconst_idx.size:
        values = quants.astype(np.float64)
        values *= step
        values += medium[nonconst_idx].astype(np.float64)[:, None]
        out_blocks[nonconst_idx] = values


def _unpad(out: np.ndarray, out_blocks: np.ndarray, runs, block: int) -> None:
    """Copy ``out_blocks`` into the flat ``out``, dropping every chunk's padding
    while casting to ``out``'s dtype; ``runs`` is what :func:`_runs` returned."""
    for at, row, length, count, per in runs:
        out[at : at + count * length].reshape(count, length)[...] = out_blocks[
            row : row + count * per
        ].reshape(count, per * block)[:, :length]


def compress_chunks(
    data: np.ndarray,
    chunk_lens: Sequence[int],
    block: int,
    eb: float,
    restored: Optional[np.ndarray] = None,
) -> List[bytes]:
    """One SZx payload per chunk of ``data``, from a single pass.

    ``data`` is a validated 1-D float array cut, in order, into chunks of the
    ``chunk_lens`` values (each >= 1, summing to ``data.size``), and ``eb`` the
    resolved absolute error bound.  Element ``i`` of the result is
    byte-identical to compressing chunk ``i`` on its own (see "Chunked layout"
    in the module docstring).  ``restored``, an array the caller has put
    through :func:`~repro.compression.base.check_restored`, is filled with
    what :func:`decompress_chunks` makes of the result.
    """
    if data.size == 0:
        return []
    runs = _runs(chunk_lens, block)
    n_blocks = _extent(runs)[1]

    # every chunk owns whole rows, padded with its own last value
    blocks = np.empty((n_blocks, block), dtype=np.float64)
    for at, row, length, count, per in runs:
        rows = blocks[row : row + count * per].reshape(count, per * block)
        body = data[at : at + count * length].reshape(count, length)
        rows[:, :length] = body
        rows[:, length:] = body[:, -1:]

    mins = blocks.min(axis=1)
    maxs = blocks.max(axis=1)
    # The payload stores block anchors as float32; values beyond its range
    # would overflow the cast (and the float64 midpoint sum) mid-pack.
    largest = max(-float(mins.min()), float(maxs.max()), 0.0)
    if largest > float(np.finfo(np.float32).max):
        raise UnsupportedDataError(
            "value magnitudes exceed the float32 anchor range of the SZx "
            f"payload format (max |value| ~ {largest:.3e})"
        )
    medium = ((mins + maxs) * 0.5).astype(np.float32)
    # Classify blocks against the float32 medium actually stored in the
    # payload, so the error bound holds for the reconstructed values too.
    offsets_all = np.subtract(blocks, medium.astype(np.float64)[:, None], out=blocks)
    # max(|row|) <= eb  <=>  row_max <= eb and row_min >= -eb (no abs pass)
    row_max = offsets_all.max(axis=1)
    row_min = offsets_all.min(axis=1)
    const_mask = (row_max <= eb) & (row_min >= -eb)

    # Quantise offsets from the (float32-rounded) medium value for all
    # non-constant blocks at once; the step of 2*eb keeps |error| <= eb.
    nonconst_idx = np.nonzero(~const_mask)[0]
    step = 2.0 * eb
    nbits_arr = np.zeros(0, dtype=np.int64)
    encoded = np.zeros((0, block), dtype=np.uint8)
    quants = None
    if nonconst_idx.size:
        if nonconst_idx.size == n_blocks:
            offsets = offsets_all  # every block non-constant: mutate in place
            max_abs = max(float(row_max.max()), -float(row_min.min()))
        else:
            offsets = offsets_all[nonconst_idx]
            max_abs = max(
                float(row_max[nonconst_idx].max()),
                -float(row_min[nonconst_idx].min()),
            )
        # zigzag magnitude of a quant q is <= 2*|q| + 1; the division
        # bound (plus rounding margin) picks the narrowest safe dtype.
        # Reject quants beyond int64 before casting (the width check
        # below would catch them anyway, but only after the cast emitted
        # a RuntimeWarning and produced garbage)
        quant_bound = 2.0 * (max_abs / step + 1.0) + 1.0
        if not quant_bound < 2.0**63:
            raise CompressionError(
                "quantised offsets exceed the supported width; the error bound "
                f"({eb!r}) is too small relative to the data range"
            )
        np.divide(offsets, step, out=offsets)
        np.rint(offsets, out=offsets)
        quants = offsets.astype(narrow_signed_dtype(quant_bound))
        encoded = zigzag_encode(quants)
        nbits_arr = bit_length_u64(encoded.max(axis=1))
        if int(nbits_arr.max()) > _MAX_QUANT_BITS:
            raise CompressionError(
                "quantised offsets exceed the supported width; the error bound "
                f"({eb!r}) is too small relative to the data range"
            )
    if restored is not None:
        # the quants are out of ``blocks`` by now: it is scratch of the right shape
        _dequantise(blocks, quants, medium, const_mask, nonconst_idx, step)
        _unpad(restored, blocks, runs, block)
    data_at = _cursors(row_nbytes(block, nbits_arr))  # byte cursor of every non-constant block
    region = np.zeros(int(data_at[-1]), dtype=np.uint8)
    pack_width_classes(encoded, nbits_arr, data_at[:-1], region.size, out=region)

    # cut every chunk's payload out of the shared metadata and data region
    mediums = memoryview(medium.tobytes())
    widths = nbits_arr.astype(np.uint8).tobytes()
    packed = memoryview(region)
    payloads = []
    width_at = 0  # cursor into ``widths`` / ``data_at``: one entry per non-constant block
    for _, first_row, length, count, per in runs:
        head = _chunk_head(data.dtype, length, eb, block)
        n_flags = (per + 7) // 8
        rows = const_mask[first_row : first_row + count * per].reshape(count, per)
        flags = np.packbits(rows, axis=1).tobytes()  # one row of flag bytes per chunk
        for j in range(count):
            row = first_row + j * per
            chunk_flags = flags[j * n_flags : (j + 1) * n_flags]
            width_end = width_at + per - int.from_bytes(chunk_flags, "big").bit_count()
            payloads.append(b"".join((
                head,
                chunk_flags,
                mediums[4 * row : 4 * (row + per)],
                widths[width_at:width_end],
                packed[data_at[width_at] : data_at[width_end]],
            )))  # fmt: skip
            width_at = width_end
    return payloads


def decompress_chunks(pieces: Sequence, chunk_lens: Sequence[int]) -> np.ndarray:
    """Decode the chunk payloads of ``chunk_lens`` values each (at least one chunk).

    The inverse of :func:`compress_chunks`: ``pieces`` are buffer objects, one
    SZx payload per length (the caller has matched their number).  Every
    header and every length is checked before an array is sized from it, so
    any malformed piece raises :class:`DecompressionError`; the values are
    then decoded in one pass.
    """
    # one walk over the chunk fronts: header, flags, medium values, bit widths
    flag_parts, medium_parts, width_parts, nonconst_of, data_at = [], [], [], [], []
    for i, (piece, length) in enumerate(zip(pieces, chunk_lens)):
        header = PayloadHeader.unpack(piece, _MAGIC)
        if len(piece) < _META_OFFSET:
            raise DecompressionError("truncated SZx payload (missing block header)")
        head = (header.dtype, header.param, header.count) + _BLOCK_HEADER.unpack_from(
            piece, PayloadHeader.SIZE
        )
        if i == 0:
            # the first chunk names dtype, error bound and block size; with
            # them the length of a chunk fixes its whole header
            dtype, eb, _, block, _ = head
            if block <= 0 or not (eb > 0.0 and math.isfinite(eb)):
                raise DecompressionError("inconsistent SZx block metadata")
        n = -(-length // block)
        expected = (dtype, eb, length, block, n)
        if head != expected:
            raise DecompressionError(
                f"inconsistent SZx block metadata in chunk {i}: header says {head}, its "
                f"position implies {expected} (dtype, error bound, count, block size, blocks)"
            )
        medium_at = _META_OFFSET + (n + 7) // 8
        nbits_at = medium_at + 4 * n
        if len(piece) < nbits_at:
            raise DecompressionError("truncated SZx payload (missing block metadata)")
        flags = piece[_META_OFFSET:medium_at]
        # one bit width per non-constant block: count the 0 flags among the first n
        nonconst = n - (int.from_bytes(flags, "big") >> (-n % 8)).bit_count()
        if len(piece) < nbits_at + nonconst:
            raise DecompressionError("truncated SZx payload (missing bit widths)")
        flag_parts.append(flags)
        medium_parts.append(piece[medium_at:nbits_at])
        width_parts.append(piece[nbits_at : nbits_at + nonconst])
        nonconst_of.append(nonconst)
        data_at.append(nbits_at + nonconst)
    runs = _runs(chunk_lens, block)
    n_values, n_blocks = _extent(runs)

    nbits_arr = np.frombuffer(b"".join(width_parts), dtype=np.uint8).astype(np.int64)
    widest = int(nbits_arr.max()) if nbits_arr.size else 0
    if widest > _MAX_QUANT_BITS:
        raise DecompressionError(
            f"stored bit width {widest} exceeds the format's {_MAX_QUANT_BITS}"
        )
    # packed rows: every chunk's byte count follows from its bit widths
    starts = _cursors(row_nbytes(block, nbits_arr))
    data_parts = []
    width_at = 0  # cursor into ``nbits_arr`` / ``starts``: one entry per non-constant block
    for piece, at, nonconst in zip(pieces, data_at, nonconst_of):
        end = at + int(starts[width_at + nonconst] - starts[width_at])
        if len(piece) < end:
            raise DecompressionError("truncated SZx payload (missing block data)")
        data_parts.append(piece[at:end])
        width_at += nonconst
    region = np.frombuffer(b"".join(data_parts), dtype=np.uint8)

    # the flags of a run of equal-length chunks are one matrix of whole bytes
    masks, first = [], 0
    for _, _, _, count, per in runs:
        rows = np.frombuffer(b"".join(flag_parts[first : first + count]), dtype=np.uint8)
        masks.append(np.unpackbits(rows.reshape(count, -1), axis=1, count=per).reshape(-1))
        first += count
    const_mask = (masks[0] if len(masks) == 1 else np.concatenate(masks)).view(bool)
    medium = np.frombuffer(b"".join(medium_parts), dtype=np.float32)

    out_blocks = np.empty((n_blocks, block), dtype=np.float64)
    nonconst_idx = np.nonzero(~const_mask)[0]
    quants = None
    if nonconst_idx.size:
        # decode in the narrowest dtype the widest class needs and zigzag
        # branchlessly in that width; _dequantise widens to float64
        quants = zigzag_decode(
            unpack_width_classes(region, nbits_arr, starts[:-1], block, dtype=None)
        )
    _dequantise(out_blocks, quants, medium, const_mask, nonconst_idx, 2.0 * eb)
    out = np.empty(n_values, dtype=dtype)
    _unpad(out, out_blocks, runs, block)
    return out


def compress_batch(
    codec,
    arrays: Sequence[np.ndarray],
    restoreds: Sequence[np.ndarray],
    lens_of: Callable[[int], List[int]],
    frame: Callable[[List[bytes], np.ndarray], bytes],
) -> List[bytes]:
    """``codec.compress_many`` for SZx and PIPE-SZx: one kernel pass.

    The arrays go through :func:`compress_chunks` back to back, cut as
    ``lens_of(n)`` cuts an ``n``-value array (no chunk for an empty one), and
    ``frame(chunk payloads, array)`` makes each array's payload of its chunks,
    so payload ``i`` and ``restoreds[i]`` are what ``codec.compress_bytes`` of
    ``arrays[i]`` returns and fills.  Arrays of mixed dtypes (a payload has
    one) take the per-array loop, and a refused batch re-runs it to raise what
    the refused input raises (see "Chunked layout" in the module docstring).
    """
    if len({data.dtype for data in arrays}) > 1:
        return Compressor.compress_many(codec, arrays, restoreds)
    for data, restored in zip(arrays, restoreds):
        check_restored(data, restored)
    if not arrays:
        return []
    lens = [lens_of(data.size) for data in arrays]
    values = np.concatenate(arrays)
    scratch = np.empty_like(values)
    try:
        payloads = iter(compress_chunks(
            values, [n for own in lens for n in own], codec.block_size, codec.error_bound, scratch
        ))  # fmt: skip
    except CompressionError:
        Compressor.compress_many(codec, arrays, restoreds)
        raise
    out, at = [], 0
    for data, restored, own in zip(arrays, restoreds, lens):
        restored[...] = scratch[at : at + data.size]
        at += data.size
        out.append(frame([next(payloads) for _ in own], data))
    return out

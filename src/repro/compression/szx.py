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
than block by block (:func:`~repro.utils.bitpack.pack_width_classes` /
:func:`~repro.utils.bitpack.unpack_width_classes`).  All non-constant blocks
sharing the same bit width ``w`` form one class; the whole class is encoded
by one call of the word-level packing kernel over an ``(n_class, block)``
matrix, each row padded to a whole byte.  A block of 128 values is 16 groups
of 8 values, and 8 values take exactly ``w`` bytes, so the kernel makes a
fixed number of numpy passes at any width: one per value slot of a group,
each over one value per group (see "Word layout" in
:mod:`repro.utils.bitpack`).  The resulting rows are scattered into the
payload at cursors precomputed from the ``nbits`` metadata (``cumsum`` of the
per-block byte sizes), one index per row.  Decompression mirrors this:
cursors are precomputed the same way, each class's rows are gathered with
one fancy-index, decoded by the kernel's twin and placed in the result as
whole rows.  Because every row is byte-aligned exactly like an independent
``pack_uint_bits`` call, the on-wire bytes are bit-for-bit identical to the
historical per-block loop — pinned by
``tests/compression/test_golden_payloads.py`` — while the hot path runs a
constant number of numpy passes per *distinct width* instead of a Python
iteration per *block*.

Chunked layout
--------------
:func:`compress_chunks` / :func:`decompress_chunks` are the one blockwise
kernel behind :class:`SZxCompressor` (the whole buffer is one chunk) and
PIPE-SZx (5120-value chunks, each a complete SZx payload of its own), and
:func:`chunk_nbytes` is its twin behind the batches of ``compressed_nbytes``
(every input's chunks back to back), which count payloads instead of making
them.  The kernel takes the list of chunk lengths, which may be ragged, and a
buffer of ``c`` chunks goes through the steps above **once**, not ``c``
times:

* *per-chunk padding*: every chunk is padded to a whole number of blocks with
  **its own** last value and owns the next ``ceil(length / block)`` rows of one
  ``(n_blocks, block)`` matrix, so no block ever mixes two chunks.  Chunk
  lengths need not be a multiple of the block size, nor block counts a
  multiple of 8.  A run of equal-length chunks is filled with one reshape, so
  a one-shot call costs no more than the uniform grid it generalises;
* min/max, medium, classification, quantisation and bit widths run over that
  matrix in one go (``_quantise``, the step both tails share: it raises every
  refusal and, for the counting tail alone, fills ``restored``).  The matrix
  is quantised in place, every row: a constant block's offsets are within the
  bound, so its quants are 0 and are simply not packed.  A row's width needs
  no pass over the row: subtraction, division and ``rint`` are monotone, so
  its quants lie between ``rint(row_min / step)`` and
  ``rint(row_max / step)``, and the widest zigzag code is that of one of the
  two;
* *packing and cutting* (:func:`compress_chunks`): the non-constant rows are
  zigzag-encoded and ``pack_width_classes`` packs them (rows are
  byte-aligned, so the packed region of chunk ``i`` is a contiguous slice of
  the whole), and chunk ``i``'s payload is its own header (count = chunk
  length) followed by four slices — its row of the per-chunk ``packbits``
  flag matrix, its blocks' ``medium`` values, the ``nbits`` of its
  non-constant blocks, and the bytes of the packed region those blocks own;
* *counting* (:func:`chunk_nbytes`): the same four slices have lengths the
  widths fix, so a chunk of ``per`` blocks is ``_META_OFFSET + ceil(per / 8) +
  4 * per`` bytes plus, per non-constant block, one width byte and
  ``row_nbytes(block, nbits)``.  Nothing is packed: this is all a simulated
  message needs of its payload, besides its reconstruction.

Every data-dependent refusal of the kernel (the float32 anchor range, the
quantised width) is a maximum over blocks, so a batch is refused exactly when
one of its inputs would be on its own; ``compressed_nbytes`` then re-runs
:func:`chunk_nbytes` on the inputs one by one to raise what the first refused
input raises.

Decompression walks the chunk fronts once (every header and length is checked
there, before any array is sized from it), concatenates the same four slices
back into the shared arrays, decodes them with one ``unpack_width_classes``
pass and drops each chunk's padding while casting to the output dtype.  The
bytes equal compressing every chunk on its own, which is how the per-chunk
generators of :mod:`repro.compression.pipelined` serve as the oracle.

*The reconstruction comes from the counting tail.*  Past the bit-unpacking,
the decoder needs exactly three things — the signed quants, the float32
mediums and the constant mask — and the quantisation holds all three before
anything is packed.  The last two steps of decoding are therefore one helper
pair, ``_dequantise`` (``medium + quant * step`` into the block matrix) and
``_unpad`` (drop every chunk's padding, cast to the output dtype), that both
directions call: :func:`decompress_chunks` on what it unpacked,
:func:`chunk_nbytes` on what it counted, dequantised in place into the block
matrix the quantisation has finished with.  :func:`compress_chunks` never
restores.  The reconstruction a ``compressed_nbytes`` call fills then equals
the decode byte for byte (``-0.0`` mediums, float32 rounding and per-chunk
padding included) by construction, at a fraction of what un-bit-packing the
same quants back out of a payload costs;
``tests/compression/test_compressed_nbytes.py`` is the differential.  A batch
(``batch_nbytes``) restores into its own concatenated input, which the kernel
has read whole by then, so filling ``restoreds`` costs no buffer.
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

    def compress_bytes(self, data: np.ndarray) -> bytes:
        if data.size == 0:
            return _chunk_head(data.dtype, 0, self.error_bound, self.block_size)
        return compress_chunks(data, [data.size], self.block_size, self.error_bound)[0]

    def compressed_nbytes(
        self, arrays: Sequence[np.ndarray], restoreds: Sequence[np.ndarray]
    ) -> List[int]:
        total, chunks = batch_nbytes(
            self, arrays, restoreds, lambda count: [count] if count else []
        )
        # an empty array's payload is the front of a chunk with no blocks
        return (total + _META_OFFSET * (chunks == 0)).tolist()

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
    ``nonconst_idx[i]`` and reconstructs to ``medium + quant * step``; with a
    row per block, the rows of constant blocks are ignored.  This is *the*
    reconstruction: the decoder calls it with the quants it unpacked, the
    encoder with the ones it is about to pack, a row per block (see "Chunked
    layout" in the module docstring).
    """
    if quants is not None and len(quants) == len(out_blocks):  # a row per block: in place
        np.multiply(quants, step, out=out_blocks, dtype=np.float64)
        out_blocks += medium.astype(np.float64)[:, None]
        if nonconst_idx.size < len(out_blocks):  # a constant block is its medium, -0.0 too
            out_blocks[const_mask] = medium[const_mask].astype(np.float64)[:, None]
        return
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


def _quantise(
    data: np.ndarray,
    chunk_lens: Sequence[int],
    block: int,
    eb: float,
    restored: Optional[np.ndarray],
) -> Tuple[list, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's one pass up to packing: every refusal, and ``restored`` filled.

    Returns ``(runs, const_mask, medium, quants, nbits)``: the :func:`_runs` of
    ``chunk_lens``, every block's constant flag and float32 medium, every
    block's signed quants (a constant block's are 0; ``None`` when every block
    is constant) and the bit width of every non-constant block, in block order.
    What a payload holds is fixed here; :func:`compress_chunks` cuts it into
    payloads and :func:`chunk_nbytes` counts their lengths (see "Chunked
    layout" in the module docstring).
    """
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
    medium64 = medium.astype(np.float64)
    offsets_all = np.subtract(blocks, medium64[:, None], out=blocks)
    # max(|row|) <= eb  <=>  row_max <= eb and row_min >= -eb (no abs pass);
    # rounded subtraction is monotone, so a row's extreme offsets are its
    # extreme values minus its medium, bit for bit: no pass over the matrix
    row_max = maxs - medium64
    row_min = mins - medium64
    const_mask = (row_max <= eb) & (row_min >= -eb)

    # Quantise offsets from the (float32-rounded) medium value for all
    # non-constant blocks at once; the step of 2*eb keeps |error| <= eb.
    nonconst_idx = np.nonzero(~const_mask)[0]
    step = 2.0 * eb
    nbits_arr = np.zeros(0, dtype=np.int64)
    every_quant = None
    if nonconst_idx.size:
        if nonconst_idx.size < n_blocks:
            row_max, row_min = row_max[nonconst_idx], row_min[nonconst_idx]
        max_abs = max(float(row_max.max()), -float(row_min.min()))
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
        # every block in place: a constant one's offsets are within eb, so its
        # quants are 0 (the cast cannot overflow) and only the others are packed
        np.divide(offsets_all, step, out=offsets_all)
        np.rint(offsets_all, out=offsets_all)
        every_quant = offsets_all.astype(narrow_signed_dtype(quant_bound))
        # a row's quants run from rint(row_min / step) to rint(row_max / step)
        # (each step is monotone), so its widest zigzag code (2q for q >= 0,
        # -2q - 1 below) is at one end.  The codes are exact in float64 up to
        # 2**53 and rounded monotonically beyond, so a width of at most
        # _MAX_QUANT_BITS (< 53) is exact and a wider one still refused
        widest = np.maximum(2.0 * np.rint(row_max / step), -2.0 * np.rint(row_min / step) - 1.0)
        nbits_arr = np.frexp(widest)[1].astype(np.int64)
        if int(nbits_arr.max()) > _MAX_QUANT_BITS:
            raise CompressionError(
                "quantised offsets exceed the supported width; the error bound "
                f"({eb!r}) is too small relative to the data range"
            )
    if restored is not None:
        # the quants are out of ``blocks`` by now: it is scratch of the right shape
        _dequantise(blocks, every_quant, medium, const_mask, nonconst_idx, step)
        _unpad(restored, blocks, runs, block)
    return runs, const_mask, medium, every_quant, nbits_arr


def compress_chunks(
    data: np.ndarray, chunk_lens: Sequence[int], block: int, eb: float
) -> List[bytes]:
    """One SZx payload per chunk of ``data``, from a single pass.

    ``data`` is a validated 1-D float array cut, in order, into chunks of the
    ``chunk_lens`` values (each >= 1, summing to ``data.size``), and ``eb`` the
    resolved absolute error bound.  Element ``i`` of the result is
    byte-identical to compressing chunk ``i`` on its own (see "Chunked layout"
    in the module docstring).  It packs and never restores.
    """
    if data.size == 0:
        return []
    runs, const_mask, medium, quants, nbits_arr = _quantise(data, chunk_lens, block, eb, None)
    if quants is None:  # every block constant: nothing to pack
        encoded = np.zeros((0, block), dtype=np.uint8)
    else:
        encoded = zigzag_encode(quants if nbits_arr.size == len(quants) else quants[~const_mask])
    del quants  # packing holds the codes and the region: not the signed quants too
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


def chunk_nbytes(
    data: np.ndarray, chunk_lens: Sequence[int], block: int, eb: float, restored: np.ndarray
) -> np.ndarray:
    """The length of every payload :func:`compress_chunks` returns for the same
    arguments, with nothing packed, and ``restored`` filled with what
    :func:`decompress_chunks` makes of those payloads.

    ``restored`` is an array the caller has put through
    :func:`~repro.compression.base.check_restored`; it may be ``data`` itself,
    which is read whole before ``restored`` is written.  A chunk of ``per``
    blocks is its fixed-size front, ``ceil(per / 8)`` flag bytes and a float32
    medium per block, plus, per non-constant block, one width byte and its
    packed row; so the length is a sum over the chunk's blocks, taken from the
    widths the quantisation settled.
    """
    if data.size == 0:
        return np.zeros(0, dtype=np.int64)
    _, const_mask, _, _, nbits_arr = _quantise(data, chunk_lens, block, eb, restored)
    block_bytes = np.full(const_mask.size, 4, dtype=np.int64)  # the medium
    block_bytes[~const_mask] += 1 + row_nbytes(block, nbits_arr)  # the width, the row
    pers = -(-np.asarray(chunk_lens, dtype=np.int64) // block)  # a chunk's blocks
    at = _cursors(block_bytes)[_cursors(pers)]
    return _META_OFFSET + (pers + 7) // 8 + at[1:] - at[:-1]


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


def batch_nbytes(
    codec,
    arrays: Sequence[np.ndarray],
    restoreds: Sequence[np.ndarray],
    lens_of: Callable[[int], List[int]],
    check: Callable[[np.ndarray], np.ndarray] = lambda data: data,
) -> Tuple[np.ndarray, np.ndarray]:
    """What ``codec.compressed_nbytes`` of SZx and PIPE-SZx frames: one kernel pass.

    The arrays go through :func:`chunk_nbytes` back to back, cut as
    ``lens_of(n)`` cuts an ``n``-value array (no chunk for an empty one), and
    ``restoreds[i]`` is filled with the decode of ``codec.compress_bytes`` of
    ``arrays[i]``.  Returns, per array, the summed length of its chunk payloads
    and its number of chunks; the codec adds its own framing.  Arrays of mixed
    dtypes share the pass (a payload's length does not depend on its dtype, and
    a float32 value is exact in float64).  A refused batch re-runs the inputs
    one by one, each through ``check`` (what ``codec.compress_bytes`` checks
    before the kernel) and :func:`chunk_nbytes`, to raise what the first
    refused input raises alone (see "Chunked layout" in the module docstring).
    """
    for data, restored in zip(arrays, restoreds):
        check_restored(data, restored)
    lens = [lens_of(data.size) for data in arrays]
    counts = np.array([len(own) for own in lens], dtype=np.int64)
    values = np.concatenate(arrays) if arrays else np.zeros(0)
    try:
        # the kernel restores the batch into ``values``, whose inputs it has read
        sizes = chunk_nbytes(
            values, [n for own in lens for n in own], codec.block_size, codec.error_bound, values
        )
    except CompressionError:
        for data, restored in zip(arrays, restoreds):
            chunk_nbytes(
                check(data), lens_of(data.size), codec.block_size, codec.error_bound, restored
            )
        raise
    at = 0
    for restored in restoreds:
        restored[...] = values[at : at + restored.size]
        at += restored.size
    bounds = _cursors(sizes)[_cursors(counts)]
    return bounds[1:] - bounds[:-1], counts

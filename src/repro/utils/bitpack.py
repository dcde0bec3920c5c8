"""Bit-level packing helpers used by the compressors.

The SZx-style codec stores, for each non-constant block, the residuals of the
block values around the block mean truncated to the number of bits actually
required.  These helpers pack/unpack arrays of small unsigned integers into a
dense bitstream (most-significant bit first within each value), fully
vectorised with numpy.

Three granularities are provided:

* :func:`pack_uint_bits` / :func:`unpack_uint_bits` encode a single flat
  array — one codec block at a time;
* :func:`pack_uint_bits_rows` / :func:`unpack_uint_bits_rows` encode an
  ``(n_rows, count)`` matrix in one pass, each row padded to a whole byte
  exactly like an independent :func:`pack_uint_bits` call;
* :func:`pack_width_classes` / :func:`unpack_width_classes` handle a matrix
  whose rows use *different* widths: rows are grouped by width, each class is
  encoded with one batched call, and the rows are scattered to / gathered
  from per-row byte cursors.  This is the **width-class batch** primitive of
  the vectorised codec data plane — the produced bytes are bit-for-bit what a
  per-row Python loop would emit, but the hot path runs a constant number of
  numpy passes per *distinct width* instead of an iteration per *row*.
  A class's rows are placed as byte windows: the region is viewed, without a
  copy, as every ``per_row``-byte window of itself (one opaque item per
  window, one byte apart), and the class's row cursors index that view, one
  index per row rather than one per byte.  The windows overlap in memory,
  yet the write is safe: the rows' byte ranges are disjoint (each codec lays
  its rows out with a running sum of their sizes), so no byte is written by
  two rows, and the bytes written are exactly those a per-byte scatter
  would write.  The class values, packed rows and decoded rows move between
  the wrappers and the kernels as arrays, and a decoded class lands in the
  result as whole rows, one index per row.

Word layout
-----------
Eight ``nbits``-bit values are exactly ``nbits`` bytes, so a row is a run of
8-value *groups* of ``nbits`` bytes each, its last group cut to the bytes its
remaining values occupy.  Value ``k`` of a group starts at bit ``k * nbits``
of it, most significant bit first, which places it in 64-bit word
``k * nbits // 64`` of the group read as big-endian words; a value that
crosses a word boundary spills its low bits into the next word.  Packing
therefore costs a fixed number of numpy passes at any width: for each slot
of the row's full groups, and again for each real slot of its short last
group, a shift and an OR over one value per group (one more shift when the
slot spills), then one in-place byteswap of the words and one copy of each
group's bytes.  Unpacking reads a slot of every group with one strided
big-endian load of the narrowest word that holds it, starting in byte
``k * nbits // 8`` of the group, and two shifts.  A row of fewer than 8
values (ZFP's DC field) is one short group.  Widths of 8, 16, 32 and 64 bits
skip all of this: their packed row is the values as big-endian integers.

The module also hosts the zigzag signed<->unsigned mapping shared by the SZx
and ZFP codecs (previously duplicated in both).  All hot-path helpers work in
the narrowest integer dtype that holds the requested width, which roughly
halves the memory traffic of the typical (< 16 bit) codec payload.
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np

_LITTLE_ENDIAN = sys.byteorder == "little"

#: widths whose packed row is the values themselves as big-endian unsigned
#: integers, with no shifting at all
_WHOLE_WORDS = (8, 16, 32, 64)


def _shift_amounts(dtype) -> tuple:
    """Every shift amount of ``dtype`` as a read-only 0-d array of it: numpy
    dispatches a shift by one of these in about half the time it takes for
    a scalar, which is most of a shift's cost on a small class."""
    amounts = tuple(np.array(s, dtype=dtype) for s in range(np.dtype(dtype).itemsize * 8))
    for a in amounts:
        a.setflags(write=False)
    return amounts


_SHIFTS = {np.dtype(t): _shift_amounts(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)}

__all__ = [
    "bit_length_u64",
    "zigzag_encode",
    "zigzag_decode",
    "pack_uint_bits",
    "unpack_uint_bits",
    "pack_uint_bits_rows",
    "unpack_uint_bits_rows",
    "pack_width_classes",
    "unpack_width_classes",
    "row_nbytes",
    "narrow_uint_dtype",
    "narrow_signed_dtype",
]


def bit_length_u64(values: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for unsigned arrays (exact for all 64 bits).

    The bit length of a positive integer is the binary exponent
    :func:`numpy.frexp` reports for it, provided the float holds the integer
    exactly.  ``float64`` does so for every 32-bit value but not above
    ``2**53``, where a value next to a power of two would round onto it; wider
    inputs are therefore split into 32-bit halves, each exact, and the low
    half only counts when the high half is zero.
    """
    v = np.asarray(values)
    if v.dtype.kind != "u":
        v = v.astype(np.uint64)
    if v.dtype.itemsize <= 4:
        return np.frexp(v.astype(np.float64))[1].astype(np.int64)
    high = np.frexp((v >> np.uint64(32)).astype(np.float64))[1]
    low = np.frexp((v & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(high > 0, high + 32, low).astype(np.int64)


def zigzag_encode(q: np.ndarray) -> np.ndarray:
    """Map signed integers to unsigned ones (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...).

    Branchless (``(q << 1) ^ (q >> sign_bit)``) and dtype-preserving: a signed
    input of width ``k`` yields the matching ``uint{k}`` output (any other
    input is first cast to ``int64``).
    """
    q = np.asarray(q)
    if q.dtype.kind != "i":
        q = q.astype(np.int64)
    sign_shift = q.dtype.type(q.dtype.itemsize * 8 - 1)
    return ((q << q.dtype.type(1)) ^ (q >> sign_shift)).view(f"u{q.dtype.itemsize}")


def zigzag_decode(u: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`.

    Branchless (``(u >> 1) ^ -(u & 1)``) and dtype-preserving: an unsigned
    input of width ``k`` yields the matching ``int{k}`` output (any other
    input is first cast to ``uint64``).
    """
    u = np.asarray(u)
    if u.dtype.kind != "u":
        u = u.astype(np.uint64)
    one = u.dtype.type(1)
    zero = u.dtype.type(0)
    return ((u >> one) ^ (zero - (u & one))).view(f"i{u.dtype.itemsize}")


def row_nbytes(count: int, nbits) -> "int | np.ndarray":
    """Bytes one ``count``-value row occupies at ``nbits`` bits per value.

    ``nbits`` may be a scalar or an array (vectorised cursor precomputation).
    """
    return (count * nbits + 7) // 8


def narrow_uint_dtype(nbits: int) -> np.dtype:
    """Smallest unsigned dtype holding ``nbits``-bit values."""
    if nbits <= 8:
        return np.dtype(np.uint8)
    if nbits <= 16:
        return np.dtype(np.uint16)
    if nbits <= 32:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


def narrow_signed_dtype(encoded_bound: float) -> np.dtype:
    """Narrowest signed dtype whose zigzag encoding surely holds ``encoded_bound``.

    ``encoded_bound`` is an upper bound (with margin) on the zigzag-encoded
    magnitude of the quantised values; a narrow dtype is only chosen when the
    bound provably fits, so codecs produce bit-identical payloads to an int64
    path.  Non-finite bounds fall back to int64 — the historical behaviour of
    a plain ``astype(int64)`` cast.
    """
    if not np.isfinite(encoded_bound):
        return np.dtype(np.int64)
    if encoded_bound < 2.0**15:
        return np.dtype(np.int16)
    if encoded_bound < 2.0**31:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def _check_nbits(nbits: int) -> int:
    if nbits < 0 or nbits > 64:
        raise ValueError(f"nbits must be in [0, 64], got {nbits}")
    return int(nbits)


def _check_fits(values: np.ndarray, nbits: int) -> None:
    width = values.dtype.itemsize * 8
    if nbits < width and values.size:
        limit = values.dtype.type(1) << values.dtype.type(nbits)
        vmax = values.max()
        if vmax >= limit:
            raise ValueError(f"values do not fit in {nbits} bits (max={int(vmax)})")


def pack_uint_bits(values: np.ndarray, nbits: int) -> bytes:
    """Pack an array of unsigned integers using ``nbits`` bits per value.

    Values must fit in ``nbits`` bits.  Returns a byte string whose length is
    ``ceil(len(values) * nbits / 8)``.  ``nbits == 0`` returns ``b""``.
    """
    nbits = _check_nbits(nbits)
    values = np.asarray(values)
    if values.dtype.kind != "u":
        values = values.astype(np.uint64)
    if nbits == 0 or values.size == 0:
        return b""
    return pack_uint_bits_rows(values.reshape(1, -1), nbits)


def unpack_uint_bits(buffer: bytes, count: int, nbits: int) -> np.ndarray:
    """Inverse of :func:`pack_uint_bits`.

    Returns a ``uint64`` array with ``count`` entries decoded from ``buffer``.
    """
    nbits = _check_nbits(nbits)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if nbits == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    return unpack_uint_bits_rows(buffer, 1, count, nbits).reshape(count)


def pack_uint_bits_rows(values: np.ndarray, nbits: int) -> bytes:
    """Pack an ``(n_rows, count)`` matrix row by row in one vectorised pass.

    Every row is packed MSB-first and padded to a whole byte independently, so
    the result equals ``b"".join(pack_uint_bits(row, nbits) for row in values)``
    — each row occupies exactly ``row_nbytes(count, nbits)`` bytes, which is
    what lets callers scatter/gather rows at precomputed cursors.
    """
    nbits = _check_nbits(nbits)
    values = np.asarray(values)
    if values.dtype.kind != "u":
        values = values.astype(np.uint64)
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D (n_rows, count), got shape {values.shape}")
    n_rows, count = values.shape
    if nbits == 0 or n_rows == 0 or count == 0:
        return b""
    _check_fits(values, nbits)
    return _pack_rows(values, nbits).tobytes()


def unpack_uint_bits_rows(
    buffer, n_rows: int, count: int, nbits: int, dtype: Optional[np.dtype] = np.uint64
) -> np.ndarray:
    """Inverse of :func:`pack_uint_bits_rows`.

    Decodes ``n_rows`` byte-aligned rows of ``count`` values each from
    ``buffer`` (any buffer protocol object) and returns an array of shape
    ``(n_rows, count)``.  ``dtype`` selects the result dtype — ``None`` means
    the narrowest unsigned dtype that holds ``nbits`` bits (hot paths use this
    to keep downstream passes narrow).
    """
    nbits = _check_nbits(nbits)
    if n_rows < 0 or count < 0:
        raise ValueError(f"n_rows and count must be >= 0, got {n_rows}, {count}")
    dt = narrow_uint_dtype(nbits) if dtype is None else np.dtype(dtype)
    if nbits == 0 or n_rows == 0 or count == 0:
        return np.zeros((n_rows, count), dtype=dt)
    per_row = int(row_nbytes(count, nbits))
    raw = np.frombuffer(buffer, dtype=np.uint8)
    if raw.size < n_rows * per_row:
        raise ValueError(
            f"buffer too small: need {n_rows * per_row} bytes, got {raw.size}"
        )
    return _unpack_rows(raw[: n_rows * per_row].reshape(n_rows, per_row), count, nbits, dt)


# ------------------------------------------------------------ word kernels


def _items(buf: np.ndarray, itemsize: int, shape, strides, offset: int = 0) -> np.ndarray:
    """A view of the contiguous ``buf`` as opaque ``itemsize``-byte items at
    byte ``offset`` and byte ``strides``: copying through it moves each item
    with one ``memcpy``, far cheaper than a ``uint8`` copy whose inner axis is
    a handful of bytes long."""
    return np.ndarray(shape, f"V{itemsize}", buffer=buf, offset=offset, strides=strides)


def _groups(count: int, nbits: int):
    """The 8-value groups of a ``count``-value row at ``nbits`` bits.

    Yields ``(first value, first byte, groups, values per group, bytes per
    group)`` for the row's run of full groups and then for its partial last
    group, each when present.
    """
    full, tail = divmod(count, 8)
    if full:
        yield 0, 0, full, 8, nbits
    if tail:
        yield 8 * full, full * nbits, 1, tail, (tail * nbits + 7) // 8


def _load_dtype(nbits: int) -> np.dtype:
    """The narrowest unsigned word that holds an ``nbits``-bit value starting
    at any bit of its first byte (past 57 bits a value can need a ninth byte,
    which is read on its own)."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if nbits + 7 <= np.dtype(dtype).itemsize * 8:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def _pack_rows(values: np.ndarray, nbits: int) -> np.ndarray:
    """The packing kernel: ``(n_rows, count)`` fitting values to an
    ``(n_rows, row_nbytes)`` ``uint8`` matrix, ``1 <= nbits <= 64``.

    Slot ``k`` of a row's full groups is one strided column of the values, as
    is slot ``k`` of its partial last group; each costs a shift and an OR into
    its word (two when it spills into the next word) over one value per
    group.  The words are then byte-swapped to big-endian in place and each
    group's bytes copied out as one item.
    """
    n_rows, count = values.shape
    per_row = int(row_nbytes(count, nbits))
    if nbits in _WHOLE_WORDS:
        return values.astype(f">u{nbits // 8}").view(np.uint8).reshape(n_rows, per_row)
    values = np.ascontiguousarray(values)
    out = np.empty((n_rows, per_row), dtype=np.uint8)
    shifts = _SHIFTS[np.dtype(np.uint64)]
    for first, byte, n_groups, slots, size in _groups(count, nbits):
        groups = values[:, first : first + 8 * n_groups].reshape(n_rows, n_groups, slots)
        n_words = (slots * nbits + 63) // 64
        words = np.empty((n_rows, n_groups, n_words), dtype=np.uint64)
        shifted = np.empty((n_rows, n_groups), dtype=np.uint64)  # one scratch for every slot
        for k in range(slots):
            j, offset = divmod(k * nbits, 64)
            end = offset + nbits
            # slots fill the words in order: a word's first writer (a slot
            # starting it, or the spill of the slot before) assigns it, the
            # others OR into it; ``dtype`` makes every shift run on uint64
            # values (under value-based casting a small 0-d shift amount
            # would leave a narrow column in its own dtype, losing the bits
            # shifted past it)
            column = groups[:, :, k]
            if end > 64:
                np.left_shift(column, shifts[128 - end], out=words[:, :, j + 1], dtype=np.uint64)
                np.right_shift(column, shifts[end - 64], out=shifted, dtype=np.uint64)
                words[:, :, j] |= shifted
            elif offset == 0:
                np.left_shift(column, shifts[64 - end], out=words[:, :, j], dtype=np.uint64)
            else:
                np.left_shift(column, shifts[64 - end], out=shifted, dtype=np.uint64)
                words[:, :, j] |= shifted
        if _LITTLE_ENDIAN:
            words.byteswap(inplace=True)
        shape = (n_rows, n_groups)
        _items(out, size, shape, (per_row, nbits), byte)[...] = _items(
            words, size, shape, (n_groups * n_words * 8, n_words * 8)
        )
    return out


def _unpack_rows(raw: np.ndarray, count: int, nbits: int, dt: np.dtype) -> np.ndarray:
    """The unpacking kernel: an ``(n_rows, row_nbytes)`` ``uint8`` matrix to
    ``(n_rows, count)`` values of dtype ``dt``, ``1 <= nbits <= 64``.

    Slot ``k`` of a group starts in byte ``k * nbits // 8`` of it, so one
    strided big-endian load of the narrowest word that holds it, a shift up
    to drop the bits before it and a shift down to drop the bits after it
    decode that slot of every group at once (a 58-64-bit value that runs past
    8 bytes takes its last bits from the ninth).  Each load is placed inside
    its own row — a load that would run past the row's end starts earlier —
    so nothing is read beyond the matrix and nothing is copied first, save
    rows shorter than one load.
    """
    n_rows, per_row = raw.shape
    raw = np.ascontiguousarray(raw)
    if nbits in _WHOLE_WORDS:
        return raw.view(f">u{nbits // 8}").astype(dt)
    load = _load_dtype(nbits)
    if per_row < load.itemsize:
        padded = np.zeros((n_rows, load.itemsize), dtype=np.uint8)
        padded[:, :per_row] = raw
        raw, per_row = padded, load.itemsize
    load_bits = load.itemsize * 8
    big_endian = load.newbyteorder(">")
    shifts = _SHIFTS[load]
    out = np.empty((n_rows, count), dtype=dt)
    for first, byte, n_groups, slots, _size in _groups(count, nbits):
        dest = out[:, first : first + 8 * n_groups].reshape(n_rows, n_groups, slots)
        # loads stay below this byte of their group: the row's end for a
        # lone group, the group's own end in a run of them
        limit = per_row - byte if n_groups == 1 else nbits
        shape, strides = (n_rows, n_groups), (per_row, nbits)
        v = np.empty(shape, dtype=load)  # one scratch for every slot
        for k in range(slots):
            start, offset = divmod(k * nbits, 8)
            spill = offset + nbits - load_bits
            if spill <= 0:
                # a load that would run past ``limit`` starts earlier instead
                shift = min(start, limit - load.itemsize) - start
                start, offset = start + shift, offset - 8 * shift
            v[...] = np.ndarray(shape, big_endian, buffer=raw, offset=byte + start,
                                strides=strides)
            if offset:
                np.left_shift(v, shifts[offset], out=v)
            np.right_shift(v, shifts[load_bits - nbits], out=v)
            if spill > 0:
                ninth = np.ndarray(shape, np.uint8, buffer=raw, offset=byte + start + 8,
                                   strides=strides)
                v |= np.right_shift(ninth, shifts[8 - spill])
            dest[:, :, k] = v
    return out


# ------------------------------------------------------------- width classes


def _row_windows(region: np.ndarray, per_row: int) -> np.ndarray:
    """Every ``per_row``-byte window of a contiguous ``uint8`` region, no copy.

    Item ``k`` of the result is ``region[k : k + per_row]`` as one opaque
    ``V{per_row}`` value, so indexing it with row cursors places or fetches
    whole rows with one index per row.
    """
    n_windows = max(region.size - per_row + 1, 0)
    return np.ndarray((n_windows,), f"V{per_row}", buffer=region, strides=(1,))


def pack_width_classes(
    values: np.ndarray,
    nbits: np.ndarray,
    starts: np.ndarray,
    total_nbytes: int,
    out: Optional[np.ndarray] = None,
):
    """Scatter-encode ``(n_rows, count)`` values grouped by per-row bit width.

    ``nbits[i]`` is row ``i``'s width and ``starts[i]`` its byte cursor in the
    output region (``total_nbytes`` long, cursors typically a ``cumsum`` of
    :func:`row_nbytes`).  Each width class is packed with one batched call and
    its rows land at their cursors, so the region is byte-identical to packing
    row by row in order.

    Returns the region as ``bytes``; when ``out`` (a 1-D C-contiguous
    ``uint8`` array of at least ``total_nbytes``) is given, rows are
    scattered into it instead and ``out`` is returned — this lets codecs
    interleave several fields (e.g. ZFP's DC and detail planes) in one
    region.  Any other ``out`` raises ``ValueError`` before a byte is written.
    """
    values = np.asarray(values)
    if values.dtype.kind != "u":
        values = values.astype(np.uint64)
    count = values.shape[1]
    widths = np.flatnonzero(np.bincount(nbits))
    if widths.size and values.size:
        # narrowing to the widest class's dtype cuts the per-class traffic,
        # but only when no value would truncate — otherwise keep the original
        # dtype so the per-class fits check raises instead of corrupting
        dt = narrow_uint_dtype(int(widths[-1]))
        if dt.itemsize < values.dtype.itemsize and (
            int(values.max()) >> (dt.itemsize * 8) == 0
        ):
            values = values.astype(dt)
    # np.take copies a non-contiguous source whole on every call: copy the
    # field once here, not once per class (ZFP hands in column slices)
    values = np.ascontiguousarray(values)
    if out is not None and not (
        out.dtype == np.uint8 and out.ndim == 1 and out.flags.c_contiguous
    ):
        raise ValueError("out must be a 1-D C-contiguous uint8 array")
    region = np.zeros(total_nbytes, dtype=np.uint8) if out is None else out
    for width in widths:
        w = _check_nbits(int(width))
        if w == 0 or count == 0:
            continue  # such rows occupy no bytes
        rows = np.flatnonzero(nbits == width)
        class_values = np.take(values, rows, axis=0)
        _check_fits(class_values, w)
        per_row = int(row_nbytes(count, w))
        packed = _pack_rows(class_values, w).view(f"V{per_row}").reshape(rows.size)
        _row_windows(region, per_row)[starts[rows]] = packed
    return region if out is not None else region.tobytes()


def unpack_width_classes(
    region: np.ndarray,
    nbits: np.ndarray,
    starts: np.ndarray,
    count: int,
    dtype: Optional[np.dtype] = np.uint64,
) -> np.ndarray:
    """Gather-decode the inverse of :func:`pack_width_classes`.

    Returns a matrix of shape ``(len(nbits), count)`` (zero rows for
    zero-width entries).  ``dtype=None`` selects the narrowest unsigned dtype
    holding the widest class present.  ``region`` may be read-only; a
    non-contiguous one is copied once first.
    """
    region = np.ascontiguousarray(region, dtype=np.uint8)
    widths = np.flatnonzero(np.bincount(nbits))
    wmax = int(widths[-1]) if widths.size else 0
    dt = narrow_uint_dtype(wmax) if dtype is None else np.dtype(dtype)
    out = np.zeros((len(nbits), count), dtype=dt)
    if not count:
        return out
    # whole rows of ``out`` as opaque items: a class's decoded rows land with
    # one index per row
    out_rows = out.view(f"V{count * dt.itemsize}").reshape(len(nbits))
    for width in widths:
        w = _check_nbits(int(width))
        if w == 0:
            continue
        rows = np.flatnonzero(nbits == width)
        per_row = int(row_nbytes(count, w))
        raw = _row_windows(region, per_row)[starts[rows]].view(np.uint8)
        decoded = _unpack_rows(raw.reshape(rows.size, per_row), count, w, dt)
        del raw
        out_rows[rows] = decoded.view(out_rows.dtype).reshape(rows.size)
        # freed before the next class allocates its own, same-sized buffers
        # reuse this memory instead of faulting in fresh pages
        del decoded
    return out

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

The module also hosts the zigzag signed<->unsigned mapping shared by the SZx
and ZFP codecs (previously duplicated in both).  All hot-path helpers work in
the narrowest integer dtype that holds the requested width, which roughly
halves the memory traffic of the typical (< 16 bit) codec payload.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

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
    if nbits % 8 == 0:
        # byte-aligned widths: the packed row is just the big-endian tail
        # bytes of every value — no bit expansion needed
        nb = nbits // 8
        storage = max(1 << (nb - 1).bit_length(), 1)  # 1, 2, 4 or 8 bytes
        be = values.astype(f">u{storage}")
        tail = be.view(np.uint8).reshape(n_rows, count, storage)[:, :, storage - nb :]
        return np.ascontiguousarray(tail).tobytes()
    dt = narrow_uint_dtype(nbits)
    v = values.astype(dt, copy=False)
    row_bits = int(row_nbytes(count, nbits)) * 8
    bits = np.zeros((n_rows, row_bits), dtype=np.uint8)
    view = bits[:, : count * nbits].reshape(n_rows, count, nbits)
    one = dt.type(1)
    for j in range(nbits):
        view[:, :, j] = (v >> dt.type(nbits - 1 - j)) & one
    return np.packbits(bits.reshape(-1)).tobytes()


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
    raw = raw[: n_rows * per_row].reshape(n_rows, per_row)
    if nbits % 8 == 0:
        nb = nbits // 8
        storage = max(1 << (nb - 1).bit_length(), 1)
        full = np.zeros((n_rows, count, storage), dtype=np.uint8)
        full[:, :, storage - nb :] = raw.reshape(n_rows, count, nb)
        return full.view(f">u{storage}").reshape(n_rows, count).astype(dt, copy=False)
    bits = np.unpackbits(raw, axis=1)[:, : count * nbits].reshape(n_rows, count, nbits)
    acc = narrow_uint_dtype(nbits)
    out = np.zeros((n_rows, count), dtype=acc)
    one = acc.type(1)
    for j in range(nbits):
        np.left_shift(out, one, out=out)
        out |= bits[:, :, j]
    return out.astype(dt, copy=False)


# ------------------------------------------------------------- width classes


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

    Returns the region as ``bytes``; when ``out`` (a ``uint8`` array of at
    least ``total_nbytes``) is given, rows are scattered into it instead and
    ``out`` is returned — this lets codecs interleave several fields (e.g.
    ZFP's DC and detail planes) in one region.
    """
    values = np.asarray(values)
    count = values.shape[1]
    widths = np.flatnonzero(np.bincount(nbits))
    if widths.size and values.size and values.dtype.kind == "u":
        # narrowing to the widest class's dtype cuts the per-class traffic,
        # but only when no value would truncate — otherwise keep the original
        # dtype so the per-class fits check raises instead of corrupting
        dt = narrow_uint_dtype(int(widths[-1]))
        if dt.itemsize < values.dtype.itemsize and (
            int(values.max()) >> (dt.itemsize * 8) == 0
        ):
            values = values.astype(dt)
    region = np.zeros(total_nbytes, dtype=np.uint8) if out is None else out
    for width in widths:
        w = int(width)
        if w == 0:
            continue  # zero-width rows occupy no bytes
        rows = np.nonzero(nbits == width)[0]
        per_row = int(row_nbytes(count, w))
        blob = np.frombuffer(pack_uint_bits_rows(values[rows], w), dtype=np.uint8)
        positions = starts[rows][:, None] + np.arange(per_row, dtype=np.int64)[None, :]
        region[positions] = blob.reshape(rows.size, per_row)
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
    holding the widest class present.
    """
    region = np.asarray(region, dtype=np.uint8)
    widths = np.flatnonzero(np.bincount(nbits))
    wmax = int(widths[-1]) if widths.size else 0
    dt = narrow_uint_dtype(wmax) if dtype is None else np.dtype(dtype)
    out = np.zeros((len(nbits), count), dtype=dt)
    for width in widths:
        w = int(width)
        if w == 0:
            continue
        rows = np.nonzero(nbits == width)[0]
        per_row = int(row_nbytes(count, w))
        positions = starts[rows][:, None] + np.arange(per_row, dtype=np.int64)[None, :]
        out[rows] = unpack_uint_bits_rows(
            np.ascontiguousarray(region[positions]), rows.size, count, w, dtype=dt
        )
    return out

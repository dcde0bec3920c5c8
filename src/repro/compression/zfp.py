"""ZFP-style transform codec with fixed-accuracy (ABS) and fixed-rate (FXR) modes.

The paper uses ZFP 0.5.5 in two modes as baselines:

* **ABS (fixed accuracy)** — the user provides an absolute error bound; the
  compressed size varies with the data.
* **FXR (fixed rate)** — the user provides a rate in bits per value; the
  compressed size is exact and data independent, but the reconstruction error
  is *unbounded* (this is the root of the accuracy problems the paper
  demonstrates for fixed-rate baselines).

This module implements a from-scratch, numpy-only codec with the same two
modes and the same qualitative behaviour.  It is a ZFP-*style* codec, not a
bit-exact reimplementation of ZFP: data is processed in 1-D blocks (16 values),
each block is decorrelated with a multi-level Haar transform (DC + 15 detail
coefficients), and the coefficients are uniformly quantised.

Like the SZx codec, both modes run a width-class batched data plane (see the
"Width-class batched layout" section of :mod:`repro.compression.szx`): ABS
groups the DC and detail fields of non-zero blocks by bit width and encodes
each class with one :func:`~repro.utils.bitpack.pack_uint_bits_rows` pass,
scattering rows at cursors precomputed from the width metadata; FXR — whose
blocks all share one width — is a single batched call.  The emitted bytes are
bit-for-bit those of the historical per-block loop (pinned by
``tests/compression/test_golden_payloads.py``).

* In ABS mode the quantisation step is derived from the error bound with a
  margin that accounts for the inverse-transform error gain, so the point-wise
  reconstruction error stays within the bound; per-block bit widths adapt to
  the data (all-zero blocks cost a single flag bit).
* In FXR mode every block gets exactly ``block_size * rate`` bits (one shared
  block exponent plus equally-sized coefficient fields, padded to the budget),
  which yields an exact compression ratio of ``bits_per_value / rate`` and a
  data-dependent, unbounded error — exactly the trade-off the paper exploits
  when comparing against fixed-rate baselines.

*The reconstruction comes from the counting tail*, as in
:mod:`repro.compression.szx`.  One quantise step (``_quantise``: every
refusal, the forward transform, the quants and widths) feeds two tails:
:meth:`ZFPCompressor.compress_bytes` packs and never restores, and
:meth:`ZFPCompressor.compressed_nbytes` counts the length from the widths (ABS)
or the geometry (FXR) and dequantises the quants.  An all-zero block's quants
are all 0, so ``quant * step`` in float64 over every block (FXR's per-block
form, zero blocks left at 0, is ``_dequantise_rows`` in both directions) gives
the decoder's coefficients by construction, and both directions end in
``_reconstruct`` — the inverse Haar transform, its finest level written
straight into the output dtype, padding dropped.  The reconstruction equals
the decode byte for byte with nothing packed or unpacked;
``tests/compression/test_compressed_nbytes.py`` is the differential.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compression.base import Compressor, check_restored
from repro.compression.errors import CompressionError, DecompressionError, UnsupportedDataError
from repro.compression.header import PayloadHeader
from repro.utils.bitpack import (
    bit_length_u64,
    narrow_signed_dtype,
    pack_uint_bits_rows,
    pack_width_classes,
    row_nbytes,
    unpack_uint_bits_rows,
    unpack_width_classes,
    zigzag_decode,
    zigzag_encode,
)
from repro.utils.validation import ensure_in, ensure_positive

__all__ = ["ZFPCompressor", "MODE_ABS", "MODE_FXR", "DEFAULT_ZFP_BLOCK"]

_MAGIC = b"ZFP1"
_BODY_HEADER = struct.Struct("<BBHI")  # mode, reserved, block_size, n_blocks
#: the bytes of a payload before its body
_HEAD_SIZE = PayloadHeader.SIZE + _BODY_HEADER.size

MODE_ABS = "abs"
MODE_FXR = "fxr"
DEFAULT_ZFP_BLOCK = 16

#: inverse Haar error gain: err(value) <= err(DC) + 0.5 * levels * err(detail);
#: with a uniform quantisation step ``s`` this is 1.5 * s for a 16-value block,
#: so a step of ``tol / _ABS_MARGIN`` keeps the point-wise error within ``tol``.
_ABS_MARGIN = 1.7

_MAX_QUANT_BITS = 48
_FXR_ZERO_EXPONENT = -128  # sentinel: the whole block quantises to zero

#: the multi-level Haar transform forms pairwise differences, so inputs past
#: half the float64 range overflow inside the transform
_MAX_TRANSFORM_SAFE = float(np.finfo(np.float64).max) / 2.0


def _haar_forward(blocks: np.ndarray) -> np.ndarray:
    """Multi-level Haar transform of shape ``(n_blocks, block_size)`` blocks.

    Returns float64 coefficients laid out as ``[DC, d_coarsest, ..., d_finest]``
    so the first column is the block average.  Each level's details are
    written straight into that output; ``blocks`` may be float32, every
    difference and average is formed in float64.
    """
    n, width = blocks.shape
    out = np.empty((n, width), dtype=np.float64)
    a = blocks
    while width > 1:
        width //= 2
        even = a[:, 0::2]
        odd = a[:, 1::2]
        np.subtract(odd, even, out=out[:, width : 2 * width], dtype=np.float64)
        a = np.add(even, odd, dtype=np.float64)
        a *= 0.5
    out[:, :1] = a
    return out


def _detail_or(encoded: np.ndarray) -> np.ndarray:
    """Each block's bitwise OR over its detail values (``encoded[:, 1:]``).

    Column by column: numpy runs a reduce along ``axis=1`` one 15-value row
    at a time, 1.3-1.7x slower on ``uint16`` quants.
    """
    acc = np.bitwise_or(encoded[:, 1], encoded[:, 2])
    for col in range(3, encoded.shape[1]):
        np.bitwise_or(acc, encoded[:, col], out=acc)
    return acc


def _haar_inverse(coeffs: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Inverse of :func:`_haar_forward`, written into ``out``.

    ``out`` is a contiguous array of the shape of ``coeffs`` and any float
    dtype (a fresh float64 array when omitted).  Each level's halved details
    go to one preallocated buffer and its merge is two flat strided writes;
    only the finest level lands in ``out``, cast on store, so a float32
    ``out`` holds exactly the float64 result cast to float32.
    """
    n, width = coeffs.shape
    if out is None:
        out = np.empty((n, width), dtype=np.float64)
    if width == 1:
        out[...] = coeffs
        return out
    half = np.empty(n * (width // 2), dtype=np.float64)
    a = coeffs[:, 0]
    size = 1
    while size < width:
        h = half[: n * size].reshape(n, size)
        np.multiply(coeffs[:, size : 2 * size], 0.5, out=h)
        h = h.reshape(-1)
        merged = out if 2 * size == width else np.empty((n, 2 * size), dtype=np.float64)
        merged = merged.reshape(-1)
        np.subtract(a, h, out=merged[0::2])
        np.add(a, h, out=merged[1::2])
        a = merged
        size *= 2
    return out


def _reconstruct(
    coeffs: np.ndarray, count: int, dtype: np.dtype, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The ``count`` values of ``dtype`` that dequantised ``coeffs`` decode to.

    Written into ``out`` (a contiguous 1-D array of ``count`` values) when
    given.  Both directions end here: the decoder on the coefficients it
    unpacked, the encoder on the quants it is about to pack.
    """
    if out is not None and out.size == coeffs.size:
        _haar_inverse(coeffs, out.reshape(coeffs.shape))
        return out
    values = _haar_inverse(coeffs, np.empty(coeffs.shape, dtype=dtype)).reshape(-1)[:count]
    if out is not None:
        out[...] = values
    return values


def _dequantise_rows(
    quants: np.ndarray, steps: np.ndarray, rows: np.ndarray, n_blocks: int
) -> np.ndarray:
    """Coefficients of ``n_blocks`` blocks: row ``rows[i]`` is ``quants[i] * steps[i]``
    and every other (all-zero) block is 0."""
    if rows.size == n_blocks:
        return np.multiply(quants, steps, dtype=np.float64)
    coeffs = np.zeros((n_blocks, quants.shape[1]), dtype=np.float64)
    coeffs[rows] = np.multiply(quants, steps, dtype=np.float64)
    return coeffs


def _fxr_geometry(rate: float, block: int) -> Tuple[int, int]:
    """``(coefficient bits, bytes)`` of one fixed-rate block of
    ``block`` values at ``rate`` bits per value; ``ValueError`` for a rate no
    block can be coded at."""
    if not math.isfinite(rate):
        raise ValueError(f"rate must be finite, got {rate!r}")
    budget_bits = int(round(rate * block))
    if budget_bits < 8 + block:
        raise ValueError(
            f"rate {rate} too small for block_size {block}: each block needs "
            f"at least {8 + block} bits"
        )
    coef_bits = (budget_bits - 8) // block
    if coef_bits > 64:
        raise ValueError(
            f"rate {rate} asks for {coef_bits}-bit coefficients; the packer supports at most 64"
        )
    return coef_bits, (budget_bits + 7) // 8


def _ceil_log2(values: np.ndarray) -> np.ndarray:
    """Vectorised ``math.ceil(math.log2(x))`` for positive floats.

    ``frexp`` gives the exact answer (``x = m * 2**e`` with ``m in [0.5, 1)``
    means ``ceil(log2(x))`` is ``e - 1`` for ``m == 0.5`` and ``e`` otherwise).
    Mantissas within rounding distance of 0.5 are re-evaluated with the scalar
    ``math.log2`` the per-block loop historically used, whose round-to-nearest
    result can land exactly on the lower integer — keeping the emitted
    exponents (and therefore the payload bytes) identical.
    """
    mant, exp = np.frexp(values)
    out = np.where(mant == 0.5, exp - 1, exp).astype(np.int64)
    suspect = (mant > 0.5) & (mant <= 0.5 * (1.0 + 1e-13))
    if suspect.any():
        idx = np.nonzero(suspect)[0]
        for i in idx:
            out[i] = math.ceil(math.log2(float(values[i])))
    return out


class ZFPCompressor(Compressor):
    """ZFP-style codec supporting ``abs`` and ``fxr`` modes.

    Parameters
    ----------
    mode:
        ``"abs"`` for fixed accuracy (requires ``error_bound``) or ``"fxr"``
        for fixed rate (requires ``rate`` in bits per value).
    error_bound:
        Absolute error bound used in ABS mode.
    rate:
        Bits per value in FXR mode (the paper uses 4, 8 and 16).

    Every payload has blocks of :attr:`block_size` values (16); the decoder
    reads the block size from the payload header.
    """

    error_bounded = False
    block_size = DEFAULT_ZFP_BLOCK

    def __init__(self, mode: str = MODE_ABS, error_bound: float = 1e-3, rate: float = 8.0) -> None:
        self.mode = ensure_in(mode, (MODE_ABS, MODE_FXR), "mode")
        if self.mode == MODE_ABS:
            self.error_bound = ensure_positive(error_bound, "error_bound")
            self.rate = None
            self.error_bounded = True
        else:
            self.rate = ensure_positive(rate, "rate")
            self.error_bound = None
            self.error_bounded = False
            self._coef_bits, self._block_bytes = _fxr_geometry(self.rate, self.block_size)

    # ------------------------------------------------------------------ API

    @property
    def name(self) -> str:  # type: ignore[override]
        return "zfp_abs" if self.mode == MODE_ABS else "zfp_fxr"

    def describe(self) -> Dict[str, object]:
        info: Dict[str, object] = {
            "name": self.name,
            "mode": self.mode,
            "error_bounded": self.error_bounded,
        }
        if self.mode == MODE_ABS:
            info["error_bound"] = self.error_bound
        else:
            info["rate"] = self.rate
        return info

    # ----------------------------------------------------------- compression

    def compress_bytes(self, data: np.ndarray) -> bytes:
        param = self.error_bound if self.mode == MODE_ABS else float(self.rate)
        header = PayloadHeader(magic=_MAGIC, dtype=data.dtype, count=data.size, param=param)
        n_blocks = -(-data.size // self.block_size)
        mode_code = int(self.mode == MODE_FXR)
        head = header.pack() + _BODY_HEADER.pack(mode_code, 0, self.block_size, n_blocks)
        if data.size == 0:
            return head
        coeffs, quantised = self._quantise(data)
        if self.mode == MODE_ABS:
            _, encoded, nbits_dc, nbits_det = quantised
            body = self._pack_abs(encoded, nbits_dc, nbits_det)
        else:
            nonzero_idx, emax, _, quants = quantised
            body = self._pack_fxr(len(coeffs), nonzero_idx, emax, quants)
        return b"".join([head, *body])

    def compressed_nbytes(
        self, arrays: Sequence[np.ndarray], restoreds: Sequence[np.ndarray]
    ) -> List[int]:
        for data, restored in zip(arrays, restoreds):
            check_restored(data, restored)
        return [self._count(data, restored) for data, restored in zip(arrays, restoreds)]

    def _quantise(self, data: np.ndarray) -> Tuple[np.ndarray, tuple]:
        """The step both tails share: every refusal, the transform and the quants.

        Returns the coefficient matrix, which the quantisation has finished
        with (scratch of the block shape), and what the mode's tails take:
        ``(quants, encoded, nbits_dc, nbits_det)`` in ABS mode,
        ``(nonzero_idx, emax, steps, quants)`` in FXR mode.
        """
        largest = max(float(data.max()), -float(data.min()))
        if not math.isfinite(largest):
            raise UnsupportedDataError(
                "non-finite values cannot be encoded; ZFP requires finite input data"
            )
        if largest > _MAX_TRANSFORM_SAFE:
            raise UnsupportedDataError(
                "value magnitudes exceed the Haar-transform-safe range "
                f"(max |value| ~ {largest:.3e} > float64 max / 2)"
            )
        block = self.block_size
        n_blocks = (data.size + block - 1) // block
        if n_blocks * block == data.size:
            blocks = data.reshape(n_blocks, block)
        else:
            padded = np.empty(n_blocks * block, dtype=data.dtype)
            padded[: data.size] = data
            padded[data.size :] = data[-1]
            blocks = padded.reshape(n_blocks, block)
        coeffs = _haar_forward(blocks)
        quantise = self._quantise_abs if self.mode == MODE_ABS else self._quantise_fxr
        return coeffs, quantise(coeffs)

    def _count(self, data: np.ndarray, restored: np.ndarray) -> int:
        """``len(compress_bytes(data))`` with nothing packed, and ``restored``
        filled with what that payload decodes to."""
        if data.size == 0:
            return _HEAD_SIZE
        coeffs, quantised = self._quantise(data)
        n_blocks = len(coeffs)
        if self.mode == MODE_ABS:
            quants, _, nbits_dc, nbits_det = quantised
            # the zero flags, then per non-zero block two width bytes and its two
            # rows: an all-zero block is the one whose rows are empty
            rows = row_nbytes(1, nbits_dc) + row_nbytes(self.block_size - 1, nbits_det)
            body = (n_blocks + 7) // 8 + 2 * int(np.count_nonzero(rows)) + int(rows.sum())
            # an all-zero block's quants are all 0, so every block dequantises as
            # the decoder's does: zero blocks to 0, the others to quants * step
            step = self.error_bound / _ABS_MARGIN
            coeffs = np.multiply(quants, step, out=coeffs, dtype=np.float64)
        else:
            nonzero_idx, _, steps, quants = quantised
            body = n_blocks * self._block_bytes
            coeffs = _dequantise_rows(quants, steps, nonzero_idx, n_blocks)
        _reconstruct(coeffs, data.size, data.dtype, restored)
        return _HEAD_SIZE + body

    def _quantise_abs(self, coeffs: np.ndarray) -> tuple:
        """ABS mode of :meth:`_quantise`; quantises ``coeffs`` in place."""
        step = self.error_bound / _ABS_MARGIN
        max_abs = max(float(coeffs.max()), -float(coeffs.min()))
        # reject quants beyond int64 before casting: the width check below
        # would catch them anyway, but only after the cast emitted a
        # RuntimeWarning and produced garbage
        quant_bound = 2.0 * (max_abs / step + 1.0) + 1.0
        if not quant_bound < 2.0**63:
            raise CompressionError(
                "quantised coefficients exceed the supported width; the error bound "
                f"({self.error_bound!r}) is too small relative to the data range"
            )
        np.divide(coeffs, step, out=coeffs)
        np.rint(coeffs, out=coeffs)
        quants = coeffs.astype(narrow_signed_dtype(quant_bound))
        encoded = zigzag_encode(quants)
        # per-block widths of the DC field (1 value) and the detail field
        # (block-1 values; an OR has the bit length of the maximum and
        # reduces faster); a block is all-zero when both are 0
        nbits_dc = bit_length_u64(encoded[:, 0])
        nbits_det = bit_length_u64(_detail_or(encoded))
        if max(int(nbits_dc.max()), int(nbits_det.max())) > _MAX_QUANT_BITS:
            raise CompressionError(
                "quantised coefficients exceed the supported width; the error bound "
                f"({self.error_bound!r}) is too small relative to the data range"
            )
        return quants, encoded, nbits_dc, nbits_det

    @staticmethod
    def _pack_abs(encoded, nbits_dc, nbits_det) -> list:
        """The ABS body after the block header, as byte-like parts: the zero
        flags, the widths of every non-zero block and its rows (an all-zero
        block's rows are empty, so the packers skip it)."""
        nonzero = (nbits_dc != 0) | (nbits_det != 0)
        meta = np.stack([nbits_dc, nbits_det], axis=1).astype(np.uint8)[nonzero]
        dc_sizes = row_nbytes(1, nbits_dc)
        piece_sizes = dc_sizes + row_nbytes(encoded.shape[1] - 1, nbits_det)
        piece_starts = np.cumsum(piece_sizes) - piece_sizes
        total = int(piece_sizes.sum())
        region = np.zeros(total, dtype=np.uint8)
        pack_width_classes(encoded[:, :1], nbits_dc, piece_starts, total, out=region)
        pack_width_classes(encoded[:, 1:], nbits_det, piece_starts + dc_sizes, total, out=region)
        return [np.packbits(~nonzero), meta, region]

    def _quantise_fxr(self, coeffs: np.ndarray) -> tuple:
        """FXR mode of :meth:`_quantise`; overwrites ``coeffs``."""
        coef_bits = self._coef_bits
        n_blocks = coeffs.shape[0]
        # each block's largest magnitude by pairwise halving of the flat
        # magnitudes (a block is a power of two long, so no pair straddles
        # two blocks): exact, NaN-propagating like .max(axis=1), which numpy
        # runs one 16-value row at a time and ~3.5x slower
        max_abs = np.abs(coeffs).ravel()
        while max_abs.size > n_blocks:
            max_abs = np.maximum(max_abs[0::2], max_abs[1::2])
        nonzero_idx = np.nonzero(max_abs != 0.0)[0]
        if not np.isfinite(max_abs[nonzero_idx]).all():
            # the scalar loop failed loudly on int(ceil(log2(inf/nan)));
            # keep non-finite input an error, not a corrupt payload
            raise CompressionError(
                "non-finite values cannot be fixed-rate encoded; ZFP FXR "
                "requires finite input data"
            )
        emax = np.clip(_ceil_log2(max_abs[nonzero_idx]), -127, 127)
        # step chosen so the largest coefficient fits in coef_bits signed bits
        denom = float(2 ** (coef_bits - 1) - 1) if coef_bits > 1 else 1.0
        steps = (np.ldexp(1.0, emax.astype(np.int32)) / denom)[:, None]
        limit = 2 ** (coef_bits - 1) - 1 if coef_bits > 1 else 0
        scaled = coeffs if nonzero_idx.size == n_blocks else coeffs[nonzero_idx]
        np.divide(scaled, steps, out=scaled)
        np.rint(scaled, out=scaled)
        if coef_bits <= 48 and float(max_abs.max()) < 2.0**127:
            # emax was not clipped, so |scaled| <= limit + rounding and the
            # quants provably fit a narrow dtype; clipping the integral
            # floats first gives the same values the historical int64
            # cast-then-clip produced
            np.clip(scaled, float(-limit), float(limit), out=scaled)
            q = scaled.astype(narrow_signed_dtype(2.0 * limit + 1.0))
        else:
            # Huge rates or emax-saturated magnitudes.  Clip in the float
            # domain first so the int64 cast cannot overflow: the
            # historical cast-then-clip wrapped saturated positives to
            # INT64_MIN and then "clipped" them to -limit, flipping the
            # sign of the reconstructed value.
            fbound = min(float(limit), 2.0**62)
            np.clip(scaled, -fbound, fbound, out=scaled)
            q = scaled.astype(np.int64)
            np.clip(q, -limit, limit, out=q)
        return nonzero_idx, emax, steps, q

    def _pack_fxr(self, n_blocks, nonzero_idx, emax, quants) -> list:
        """The FXR body after the block header: one fixed-size row per block."""
        chunks = np.zeros((n_blocks, self._block_bytes), dtype=np.uint8)
        chunks[:, 0] = _FXR_ZERO_EXPONENT & 0xFF
        chunks[nonzero_idx, 0] = (emax & 0xFF).astype(np.uint8)
        blob = pack_uint_bits_rows(zigzag_encode(quants), self._coef_bits)
        per_row = int(row_nbytes(self.block_size, self._coef_bits))
        packed = np.frombuffer(blob, dtype=np.uint8).reshape(nonzero_idx.size, per_row)
        chunks[nonzero_idx, 1 : 1 + per_row] = packed
        return [chunks]

    # --------------------------------------------------------- decompression

    def decompress_bytes(self, payload: bytes) -> np.ndarray:
        header = PayloadHeader.unpack(payload, _MAGIC)
        offset = PayloadHeader.SIZE
        if len(payload) < offset + _BODY_HEADER.size:
            raise DecompressionError("truncated ZFP payload (missing body header)")
        mode_code, _reserved, block, n_blocks = _BODY_HEADER.unpack_from(payload, offset)
        offset += _BODY_HEADER.size
        if header.count == 0:
            return np.zeros(0, dtype=header.dtype)
        # the Haar levels halve a block down to its DC value
        if block <= 0 or block & (block - 1) or n_blocks != (header.count + block - 1) // block:
            raise DecompressionError("inconsistent ZFP block metadata")

        if mode_code == 0:
            coeffs = self._decompress_abs(payload, offset, block, n_blocks, header.param)
        elif mode_code == 1:
            coeffs = self._decompress_fxr(payload, offset, block, n_blocks, header.param)
        else:
            raise DecompressionError(f"unknown ZFP mode code {mode_code}")
        return _reconstruct(coeffs, header.count, header.dtype)

    def _decompress_abs(
        self, payload: bytes, offset: int, block: int, n_blocks: int, error_bound: float
    ) -> np.ndarray:
        if not (math.isfinite(error_bound) and error_bound > 0.0):
            raise DecompressionError(
                f"ZFP payload error bound must be a finite positive number, got {error_bound!r}"
            )
        step = error_bound / _ABS_MARGIN
        flag_bytes = (n_blocks + 7) // 8
        if len(payload) < offset + flag_bytes:
            raise DecompressionError("truncated ZFP payload (missing zero flags)")
        zero_mask = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8, count=flag_bytes, offset=offset)
        )[:n_blocks].astype(bool)
        offset += flag_bytes
        nonzero_idx = np.nonzero(~zero_mask)[0]
        n_nonzero = int(nonzero_idx.size)
        if len(payload) < offset + 2 * n_nonzero:
            raise DecompressionError("truncated ZFP payload (missing bit widths)")
        meta = np.frombuffer(payload, dtype=np.uint8, count=2 * n_nonzero, offset=offset)
        offset += 2 * n_nonzero

        if not n_nonzero:
            return np.zeros((n_blocks, block), dtype=np.float64)
        nbits_dc = meta[0::2].astype(np.int64)
        nbits_det = meta[1::2].astype(np.int64)
        dc_sizes = row_nbytes(1, nbits_dc)
        det_sizes = row_nbytes(block - 1, nbits_det)
        piece_sizes = dc_sizes + det_sizes
        piece_starts = np.cumsum(piece_sizes) - piece_sizes
        total = int(piece_sizes.sum())
        if len(payload) < offset + total:
            raise DecompressionError("truncated ZFP payload (missing block data)")
        region = np.frombuffer(payload, dtype=np.uint8, count=total, offset=offset)
        dc_q = zigzag_decode(unpack_width_classes(region, nbits_dc, piece_starts, 1, dtype=None))
        det_q = zigzag_decode(
            unpack_width_classes(region, nbits_det, piece_starts + dc_sizes, block - 1, dtype=None)
        )
        if n_nonzero == n_blocks:
            # every value is overwritten: no zero-fill, no scatter
            coeffs = np.empty((n_blocks, block), dtype=np.float64)
            np.multiply(dc_q, step, out=coeffs[:, :1], dtype=np.float64)
            np.multiply(det_q, step, out=coeffs[:, 1:], dtype=np.float64)
            return coeffs
        coeffs = np.zeros((n_blocks, block), dtype=np.float64)
        coeffs[nonzero_idx, :1] = np.multiply(dc_q, step, dtype=np.float64)
        coeffs[nonzero_idx, 1:] = np.multiply(det_q, step, dtype=np.float64)
        return coeffs

    def _decompress_fxr(
        self, payload: bytes, offset: int, block: int, n_blocks: int, rate: float
    ) -> np.ndarray:
        try:
            coef_bits, block_bytes = _fxr_geometry(rate, block)
        except ValueError as exc:
            raise DecompressionError(f"unusable ZFP payload rate: {exc}") from None
        if len(payload) < offset + n_blocks * block_bytes:
            raise DecompressionError("truncated ZFP payload (missing fixed-rate blocks)")
        chunks = np.frombuffer(
            payload, dtype=np.uint8, count=n_blocks * block_bytes, offset=offset
        ).reshape(n_blocks, block_bytes)
        emax = chunks[:, 0].view(np.int8).astype(np.int64)
        nonzero_idx = np.nonzero(emax != _FXR_ZERO_EXPONENT)[0]
        if not nonzero_idx.size:
            return np.zeros((n_blocks, block), dtype=np.float64)
        denom = float(2 ** (coef_bits - 1) - 1) if coef_bits > 1 else 1.0
        steps = np.ldexp(1.0, emax[nonzero_idx].astype(np.int32)) / denom
        per_row = int(row_nbytes(block, coef_bits))
        body = np.ascontiguousarray(chunks[nonzero_idx, 1 : 1 + per_row])
        q = zigzag_decode(
            unpack_uint_bits_rows(body, nonzero_idx.size, block, coef_bits, dtype=None)
        )
        return _dequantise_rows(q, steps[:, None], nonzero_idx, n_blocks)

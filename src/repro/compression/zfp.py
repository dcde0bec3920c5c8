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
"""

from __future__ import annotations

import math
import struct
from typing import Dict, List, Optional

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

    Returns coefficients laid out as ``[DC, d_coarsest, ..., d_finest]`` so the
    first column is the block average.
    """
    a = blocks.astype(np.float64)
    details: List[np.ndarray] = []
    while a.shape[1] > 1:
        even = a[:, 0::2]
        odd = a[:, 1::2]
        details.append(odd - even)
        a = (even + odd) * 0.5
    return np.concatenate([a] + details[::-1], axis=1)


def _haar_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_haar_forward`."""
    n, width = coeffs.shape
    a = coeffs[:, 0:1].astype(np.float64)
    pos = 1
    size = 1
    while pos < width:
        d = coeffs[:, pos : pos + size]
        pos += size
        even = a - d * 0.5
        odd = a + d * 0.5
        merged = np.empty((n, size * 2), dtype=np.float64)
        merged[:, 0::2] = even
        merged[:, 1::2] = odd
        a = merged
        size *= 2
    return a


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
            budget_bits = int(round(self.rate * self.block_size))
            if budget_bits < 8 + self.block_size:
                raise ValueError(
                    f"rate {rate} too small for block_size {self.block_size}: each block needs "
                    f"at least {8 + self.block_size} bits"
                )
            self._budget_bits = budget_bits
            self._coef_bits = (budget_bits - 8) // self.block_size
            if self._coef_bits > 64:
                raise ValueError(
                    f"rate {rate} asks for {self._coef_bits}-bit coefficients; "
                    "the packer supports at most 64"
                )
            self._block_bytes = (budget_bits + 7) // 8

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

    def compress_bytes(self, data: np.ndarray, restored: Optional[np.ndarray] = None) -> bytes:
        check_restored(data, restored)
        param = self.error_bound if self.mode == MODE_ABS else float(self.rate)
        header = PayloadHeader(magic=_MAGIC, dtype=data.dtype, count=data.size, param=param)
        mode_code = 0 if self.mode == MODE_ABS else 1
        if data.size == 0:
            return header.pack() + _BODY_HEADER.pack(mode_code, 0, self.block_size, 0)

        block = self.block_size
        n_blocks = (data.size + block - 1) // block
        padded = np.empty(n_blocks * block, dtype=np.float64)
        padded[: data.size] = data
        if padded.size > data.size:
            padded[data.size :] = data[-1]
        largest = float(np.max(np.abs(padded)))
        if not math.isfinite(largest):
            raise UnsupportedDataError(
                "non-finite values cannot be encoded; ZFP requires finite input data"
            )
        if largest > _MAX_TRANSFORM_SAFE:
            raise UnsupportedDataError(
                "value magnitudes exceed the Haar-transform-safe range "
                f"(max |value| ~ {largest:.3e} > float64 max / 2)"
            )
        coeffs = _haar_forward(padded.reshape(n_blocks, block))

        body = bytearray()
        body += header.pack()
        body += _BODY_HEADER.pack(mode_code, 0, block, n_blocks)
        if self.mode == MODE_ABS:
            body += self._compress_abs(coeffs)
        else:
            body += self._compress_fxr(coeffs)
        payload = bytes(body)
        if restored is not None:
            # quantised Haar coefficients are not a reconstruction: run the inverse
            restored[...] = self.decompress_bytes(payload)
        return payload

    def _compress_abs(self, coeffs: np.ndarray) -> bytes:
        step = self.error_bound / _ABS_MARGIN
        max_abs = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
        # reject quants beyond int64 before casting: the width check below
        # would catch them anyway, but only after the cast emitted a
        # RuntimeWarning and produced garbage
        quant_bound = 2.0 * (max_abs / step + 1.0) + 1.0
        if not quant_bound < 2.0**63:
            raise CompressionError(
                "quantised coefficients exceed the supported width; the error bound "
                f"({self.error_bound!r}) is too small relative to the data range"
            )
        qdt = narrow_signed_dtype(quant_bound)
        scaled = coeffs / step
        np.rint(scaled, out=scaled)
        encoded = zigzag_encode(scaled.astype(qdt))
        zero_mask = encoded.max(axis=1) == 0

        out = bytearray()
        out += np.packbits(zero_mask.astype(np.uint8)).tobytes()
        nonzero_idx = np.nonzero(~zero_mask)[0]
        if not nonzero_idx.size:
            return bytes(out)
        enc = encoded[nonzero_idx] if nonzero_idx.size != len(encoded) else encoded
        # per-block widths of the DC field (1 value) and the detail field
        # (block-1 values); both are width-class batched below
        nbits_dc = bit_length_u64(enc[:, 0])
        nbits_det = bit_length_u64(enc[:, 1:].max(axis=1))
        if max(int(nbits_dc.max()), int(nbits_det.max())) > _MAX_QUANT_BITS:
            raise CompressionError(
                "quantised coefficients exceed the supported width; the error bound "
                f"({self.error_bound!r}) is too small relative to the data range"
            )
        meta = np.empty((nonzero_idx.size, 2), dtype=np.uint8)
        meta[:, 0] = nbits_dc
        meta[:, 1] = nbits_det
        out += meta.tobytes()
        dc_sizes = row_nbytes(1, nbits_dc)
        det_sizes = row_nbytes(enc.shape[1] - 1, nbits_det)
        piece_sizes = dc_sizes + det_sizes
        piece_starts = np.cumsum(piece_sizes) - piece_sizes
        total = int(piece_sizes.sum())
        region = np.zeros(total, dtype=np.uint8)
        pack_width_classes(enc[:, :1], nbits_dc, piece_starts, total, out=region)
        pack_width_classes(enc[:, 1:], nbits_det, piece_starts + dc_sizes, total, out=region)
        out += region.tobytes()
        return bytes(out)

    def _compress_fxr(self, coeffs: np.ndarray) -> bytes:
        block = self.block_size
        coef_bits = self._coef_bits
        block_bytes = self._block_bytes
        n_blocks = coeffs.shape[0]
        max_abs = np.abs(coeffs).max(axis=1)
        zero_mask = max_abs == 0.0
        nonzero_idx = np.nonzero(~zero_mask)[0]

        chunks = np.zeros((n_blocks, block_bytes), dtype=np.uint8)
        chunks[zero_mask, 0] = _FXR_ZERO_EXPONENT & 0xFF
        if nonzero_idx.size:
            if not np.isfinite(max_abs[nonzero_idx]).all():
                # the scalar loop failed loudly on int(ceil(log2(inf/nan)));
                # keep non-finite input an error, not a corrupt payload
                raise CompressionError(
                    "non-finite values cannot be fixed-rate encoded; ZFP FXR "
                    "requires finite input data"
                )
            emax = np.clip(_ceil_log2(max_abs[nonzero_idx]), -127, 127)
            chunks[nonzero_idx, 0] = (emax & 0xFF).astype(np.uint8)
            # step chosen so the largest coefficient fits in coef_bits signed bits
            denom = float(2 ** (coef_bits - 1) - 1) if coef_bits > 1 else 1.0
            steps = np.ldexp(1.0, emax.astype(np.int32)) / denom
            limit = 2 ** (coef_bits - 1) - 1 if coef_bits > 1 else 0
            scaled = coeffs[nonzero_idx] / steps[:, None]
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
            blob = pack_uint_bits_rows(zigzag_encode(q), coef_bits)
            per_row = int(row_nbytes(block, coef_bits))
            packed = np.frombuffer(blob, dtype=np.uint8).reshape(nonzero_idx.size, per_row)
            chunks[nonzero_idx, 1 : 1 + per_row] = packed
        return chunks.tobytes()

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
        if block <= 0 or n_blocks != (header.count + block - 1) // block:
            raise DecompressionError("inconsistent ZFP block metadata")

        if mode_code == 0:
            coeffs = self._decompress_abs(payload, offset, block, n_blocks, header.param)
        elif mode_code == 1:
            coeffs = self._decompress_fxr(payload, offset, block, n_blocks, header.param)
        else:
            raise DecompressionError(f"unknown ZFP mode code {mode_code}")

        values = _haar_inverse(coeffs).reshape(-1)
        return values[: header.count].astype(header.dtype)

    def _decompress_abs(
        self, payload: bytes, offset: int, block: int, n_blocks: int, error_bound: float
    ) -> np.ndarray:
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

        coeffs = np.zeros((n_blocks, block), dtype=np.float64)
        if not n_nonzero:
            return coeffs
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
        coeffs[nonzero_idx, 0] = dc_q[:, 0].astype(np.float64) * step
        coeffs[nonzero_idx, 1:] = det_q.astype(np.float64) * step
        return coeffs

    def _decompress_fxr(
        self, payload: bytes, offset: int, block: int, n_blocks: int, rate: float
    ) -> np.ndarray:
        budget_bits = int(round(rate * block))
        coef_bits = (budget_bits - 8) // block
        block_bytes = (budget_bits + 7) // 8
        if len(payload) < offset + n_blocks * block_bytes:
            raise DecompressionError("truncated ZFP payload (missing fixed-rate blocks)")
        chunks = np.frombuffer(
            payload, dtype=np.uint8, count=n_blocks * block_bytes, offset=offset
        ).reshape(n_blocks, block_bytes)
        emax = chunks[:, 0].view(np.int8).astype(np.int64)
        nonzero_idx = np.nonzero(emax != _FXR_ZERO_EXPONENT)[0]
        coeffs = np.zeros((n_blocks, block), dtype=np.float64)
        if not nonzero_idx.size:
            return coeffs
        denom = float(2 ** (coef_bits - 1) - 1) if coef_bits > 1 else 1.0
        steps = np.ldexp(1.0, emax[nonzero_idx].astype(np.int32)) / denom
        per_row = int(row_nbytes(block, coef_bits))
        body = np.ascontiguousarray(chunks[nonzero_idx, 1 : 1 + per_row])
        q = zigzag_decode(
            unpack_uint_bits_rows(body, nonzero_idx.size, block, coef_bits, dtype=None)
        )
        coeffs[nonzero_idx] = q.astype(np.float64) * steps[:, None]
        return coeffs

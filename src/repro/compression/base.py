"""Compressor interface shared by every codec in the reproduction.

Every compressor turns a flat float array into a *self-describing* byte string
(one that decodes with no side-band metadata) and back.  The
:class:`CompressedBuffer` wrapper carries the byte payload together with
bookkeeping used by the harness (original size, ratio, the codec that produced
it).  The simulated MPI network never carries the bytes: a simulated message
needs only the payload's length and reconstruction
(:meth:`Compressor.compressed_nbytes`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.compression.errors import UnsupportedDataError
from repro.metrics.ratios import compression_ratio
from repro.utils.validation import ensure_1d_float_array

__all__ = [
    "CompressedBuffer",
    "Compressor",
    "check_compressible",
    "check_restored",
    "rounding_margin",
]


@dataclass(frozen=True)
class CompressedBuffer:
    """A compressed representation of a flat float array.

    Attributes
    ----------
    payload:
        Self-describing byte string (header + body) produced by a compressor.
    original_count:
        Number of elements in the original array.
    original_dtype:
        Dtype of the original array (restored on decompression).
    codec:
        Name of the codec that produced the payload.
    """

    payload: bytes
    original_count: int
    original_dtype: np.dtype
    codec: str

    @property
    def nbytes(self) -> int:
        """Size of the compressed payload in bytes."""
        return len(self.payload)

    @property
    def original_nbytes(self) -> int:
        """Size of the original (uncompressed) data in bytes."""
        return int(self.original_count) * np.dtype(self.original_dtype).itemsize

    @property
    def ratio(self) -> float:
        """Compression ratio (original bytes / compressed bytes)."""
        return compression_ratio(self.original_nbytes, self.nbytes)


def check_compressible(data: np.ndarray, name: str = "data") -> np.ndarray:
    """Validate that ``data`` is a finite 1-D float array and return it.

    The codecs in this library target scientific floating-point fields; NaN and
    Inf values are rejected up front so that the error-bound guarantee is
    meaningful.
    """
    arr = ensure_1d_float_array(data, name)
    if arr.size and not np.all(np.isfinite(arr)):
        raise UnsupportedDataError(f"{name} contains NaN or Inf values")
    return arr


def check_restored(data: np.ndarray, restored: Optional[np.ndarray]) -> None:
    """Reject a ``restored`` out-parameter that cannot receive ``data``'s reconstruction.

    Every ``compress_bytes`` calls this before any work: the codecs fill
    ``restored`` through reshaped views, which only write through to a
    writable, contiguous 1-D array of ``data``'s size and dtype.
    """
    if restored is None:
        return
    if not isinstance(restored, np.ndarray) or restored.ndim != 1:
        raise ValueError("restored must be a 1-D numpy array")
    if restored.size != data.size or restored.dtype != data.dtype:
        raise ValueError(
            f"restored must hold {data.size} {data.dtype} values like the data, "
            f"got {restored.size} of {restored.dtype}"
        )
    if not (restored.flags.writeable and restored.flags.c_contiguous):
        raise ValueError("restored must be writable and contiguous")


def rounding_margin(data: np.ndarray, bound: float) -> float:
    """Floating-point slack on top of an absolute error ``bound`` for ``data``.

    The error-bounded codecs hold their bound "up to floating-point
    rounding": a reconstructed value is at most ``max|data| + bound`` in
    magnitude, and storing it in ``data``'s dtype (and subtracting it from the
    original to measure the error) rounds by up to one epsilon of that
    magnitude.  An error that is exactly ``bound`` in real arithmetic — e.g.
    0.25 reconstructed as 0.249 under ``bound=1e-3`` — can therefore measure a
    few ulps above it; checks compare against ``bound + rounding_margin``.
    """
    if not data.size:
        return 0.0
    return float(np.finfo(data.dtype).eps) * (float(np.max(np.abs(data))) + bound)


class Compressor(abc.ABC):
    """Abstract base class for all codecs.

    Subclasses implement :meth:`compress_bytes` / :meth:`decompress_bytes` on
    self-describing byte strings; the public :meth:`compress` /
    :meth:`decompress` wrappers add validation and the
    :class:`CompressedBuffer` bookkeeping.

    ``restored`` is an out-parameter of both compress calls: a writable,
    contiguous 1-D array of the data's size and dtype that the codec fills
    with exactly the array :meth:`decompress_bytes` would return for the
    payload — same dtype, same bytes.  An encoder holds its reconstruction as
    a by-product, so a caller that needs both sides of the round trip (the
    simulated collectives) asks for it here instead of decoding the bytes it
    was just handed.  It selects an extra output, never a behaviour: the
    payload is the same with or without it, and anything else than such an
    array is a ``ValueError`` before any work.

    A simulated message needs a payload's length and its reconstruction, never
    its bytes, so :meth:`compressed_nbytes` returns exactly those for a batch
    of arrays; the simulated collectives compress through it alone.
    """

    #: short identifier used by the registry and in harness tables
    name: str = "base"
    #: True when the codec honours a user-specified absolute error bound
    error_bounded: bool = False

    @abc.abstractmethod
    def compress_bytes(self, data: np.ndarray, restored: Optional[np.ndarray] = None) -> bytes:
        """Compress a validated 1-D float array into a self-describing payload
        and, when ``restored`` is given, fill it with what the payload decodes to.

        Every codec fills ``restored`` from its encoder — SZx and PIPE-SZx
        from the quants and mediums they pack, ZFP from the quants it packs
        through the same inverse transform its decoder runs, ``null`` with
        the data — and never runs its decoder to do it."""

    @abc.abstractmethod
    def decompress_bytes(self, payload: bytes) -> np.ndarray:
        """Reconstruct the array from a payload produced by :meth:`compress_bytes`."""

    def compressed_nbytes(
        self, arrays: Sequence[np.ndarray], restoreds: Sequence[np.ndarray]
    ) -> List[int]:
        """The length of :meth:`compress_bytes` of every array, filling the
        ``restored`` of the same index.

        Length ``i`` equals ``len(compress_bytes(arrays[i], restoreds[i]))``,
        ``restoreds[i]`` is filled as that call fills it, and an input that call
        refuses raises what it raises.  This loop is the definition, which ZFP
        and ``null`` keep; SZx and PIPE-SZx run the whole batch through one
        kernel pass that packs nothing, since a length follows from the bit
        widths alone.
        """
        return [
            len(self.compress_bytes(data, restored)) for data, restored in zip(arrays, restoreds)
        ]

    def compress(self, data, restored: Optional[np.ndarray] = None) -> CompressedBuffer:
        """Validate ``data`` and compress it, returning a :class:`CompressedBuffer`."""
        arr = check_compressible(data)
        payload = self.compress_bytes(arr, restored)
        return CompressedBuffer(
            payload=payload,
            original_count=arr.size,
            original_dtype=arr.dtype,
            codec=self.name,
        )

    def decompress(self, compressed) -> np.ndarray:
        """Decompress either a :class:`CompressedBuffer` or a raw payload."""
        payload = compressed.payload if isinstance(compressed, CompressedBuffer) else compressed
        return self.decompress_bytes(bytes(payload))

    def roundtrip(self, data) -> np.ndarray:
        """Convenience: compress then decompress (used heavily in tests)."""
        return self.decompress(self.compress(data))

    # -- introspection ------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Return a dictionary describing the codec configuration."""
        return {"name": self.name, "error_bounded": self.error_bounded}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v!r}" for k, v in self.describe().items() if k != "name")
        return f"{type(self).__name__}({params})"

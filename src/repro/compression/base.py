"""Compressor interface shared by every codec in the reproduction.

Every compressor turns a flat float array into a *self-describing* byte string
(one that decodes with no side-band metadata) and back.  The
:class:`CompressedBuffer` wrapper carries the byte payload together with
bookkeeping used by the harness (original size, ratio, the codec that produced
it).  The simulated MPI network never carries the bytes: a simulated message
needs only the payload's length and reconstruction, and
:meth:`Compressor.compressed_nbytes` is the one call that produces a
reconstruction without decoding.
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
    """Reject a ``restored`` array that cannot receive ``data``'s reconstruction.

    Every ``compressed_nbytes`` calls this before any work: the codecs fill
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
    self-describing byte strings, and :meth:`compressed_nbytes`; the public
    :meth:`compress` / :meth:`decompress` wrappers add validation and the
    :class:`CompressedBuffer` bookkeeping.

    A simulated message needs a payload's length and its reconstruction, never
    its bytes, so :meth:`compressed_nbytes` returns exactly those for a batch
    of arrays and packs nothing; the simulated collectives compress through it
    alone.  It is a codec's one route to a reconstruction besides its decoder,
    built from the quants its quantisation settles.
    """

    #: short identifier used by the registry and in harness tables
    name: str = "base"
    #: True when the codec honours a user-specified absolute error bound
    error_bounded: bool = False

    @abc.abstractmethod
    def compress_bytes(self, data: np.ndarray) -> bytes:
        """Compress a validated 1-D float array into a self-describing payload."""

    @abc.abstractmethod
    def decompress_bytes(self, payload: bytes) -> np.ndarray:
        """Reconstruct the array from a payload produced by :meth:`compress_bytes`."""

    @abc.abstractmethod
    def compressed_nbytes(
        self, arrays: Sequence[np.ndarray], restoreds: Sequence[np.ndarray]
    ) -> List[int]:
        """The length of :meth:`compress_bytes` of every array, filling the
        ``restored`` of the same index with what that payload decodes to.

        Length ``i`` equals ``len(compress_bytes(arrays[i]))``, ``restoreds[i]``
        is filled with ``decompress_bytes`` of that payload byte for byte (same
        dtype, signs of zero and float32 rounding included) without running the
        decoder, and an input ``compress_bytes`` refuses raises what it raises.
        Every ``restoreds[i]`` goes through :func:`check_restored` before any
        work.
        """

    def compress(self, data) -> CompressedBuffer:
        """Validate ``data`` and compress it, returning a :class:`CompressedBuffer`."""
        arr = check_compressible(data)
        return CompressedBuffer(self.compress_bytes(arr), arr.size, arr.dtype, self.name)

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

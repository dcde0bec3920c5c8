"""Identity (no-op) codec.

The uncompressed MPI baselines and several tests need a codec-shaped object
that does not modify the data; :class:`NullCompressor` serialises the array
as-is (plus the standard self-describing header) so it can flow through the
same code paths as the real codecs.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.compression.base import Compressor, check_restored
from repro.compression.errors import DecompressionError
from repro.compression.header import PayloadHeader

__all__ = ["NullCompressor"]

_MAGIC = b"RAW1"


class NullCompressor(Compressor):
    """Codec that stores the raw bytes of the array (compression ratio ~1)."""

    name = "null"
    error_bounded = True  # trivially: the error is exactly zero

    def compress_bytes(self, data: np.ndarray) -> bytes:
        header = PayloadHeader(magic=_MAGIC, dtype=data.dtype, count=data.size, param=0.0)
        return header.pack() + data.tobytes()

    def compressed_nbytes(
        self, arrays: Sequence[np.ndarray], restoreds: Sequence[np.ndarray]
    ) -> List[int]:
        for data, restored in zip(arrays, restoreds):
            check_restored(data, restored)
        for data, restored in zip(arrays, restoreds):
            restored[...] = data
        return [PayloadHeader.SIZE + data.nbytes for data in arrays]

    def decompress_bytes(self, payload: bytes) -> np.ndarray:
        header = PayloadHeader.unpack(payload, _MAGIC)
        body = payload[PayloadHeader.SIZE :]
        expected = header.count * np.dtype(header.dtype).itemsize
        if len(body) < expected:
            raise DecompressionError(
                f"truncated raw payload: expected {expected} bytes, got {len(body)}"
            )
        return np.frombuffer(body[:expected], dtype=header.dtype).copy()

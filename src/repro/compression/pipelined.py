"""PIPE-SZx: the pipelined SZx variant customised for collective communication.

Section III-E2 of the paper redesigns the SZx workflow so compression can be
interleaved with MPI progress polling:

* the input is divided into chunks of 5120 values;
* each chunk is compressed independently;
* the compressed chunk sizes are stored together in an index at the *front* of
  the output buffer (instead of interleaved with the data), which is both
  cache-friendly and lets the decompressor locate every chunk without parsing;
* between chunks the caller gets control back, so it can poll the progress of
  outstanding non-blocking sends/receives (``MPI_Test``-style).

This module provides the one-shot :class:`PipelinedSZx` codec (drop-in
compatible with every other :class:`~repro.compression.base.Compressor`) plus
the incremental generator API (:meth:`PipelinedSZx.iter_compress`,
:meth:`PipelinedSZx.iter_decompress`) that hands control back between chunks.
The simulated collectives do not drive the generators: the collective
computation framework (:mod:`repro.ccoll.computation`) compresses one-shot
and *models* the interleaving as pipeline segments in virtual time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.compression.base import Compressor, check_compressible
from repro.compression.errors import DecompressionError
from repro.compression.header import PayloadHeader
from repro.compression.szx import DEFAULT_BLOCK_SIZE, SZxCompressor
from repro.utils.chunking import chunk_bounds
from repro.utils.validation import ensure_positive

__all__ = ["PipelinedSZx", "CompressedChunk", "DEFAULT_CHUNK_ELEMS"]

_MAGIC = b"PSZX"
_INDEX_HEADER = struct.Struct("<II")  # chunk_elems, n_chunks

#: the chunk granularity used by the paper (5120 data points per chunk)
DEFAULT_CHUNK_ELEMS = 5120


@dataclass(frozen=True)
class CompressedChunk:
    """One compressed chunk produced by :meth:`PipelinedSZx.iter_compress`."""

    index: int
    start: int
    stop: int
    payload: bytes

    @property
    def nbytes(self) -> int:
        """Compressed size of this chunk."""
        return len(self.payload)

    @property
    def n_elements(self) -> int:
        """Number of original elements covered by this chunk."""
        return self.stop - self.start


class PipelinedSZx(Compressor):
    """Chunked SZx with a front-of-buffer chunk-size index.

    Parameters
    ----------
    error_bound:
        Absolute error bound forwarded to the per-chunk SZx codec.
    chunk_elems:
        Values per pipeline chunk (5120 in the paper).
    block_size:
        SZx block size inside each chunk.
    """

    name = "pipe_szx"
    error_bounded = True

    def __init__(
        self,
        error_bound: float = 1e-3,
        chunk_elems: int = DEFAULT_CHUNK_ELEMS,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        self.error_bound = ensure_positive(error_bound, "error_bound")
        if chunk_elems < 1:
            raise ValueError(f"chunk_elems must be >= 1, got {chunk_elems}")
        self.chunk_elems = int(chunk_elems)
        self.block_size = int(block_size)
        self._inner = SZxCompressor(error_bound=error_bound, block_size=block_size)

    # ------------------------------------------------------------------ API

    def describe(self) -> dict:
        return {
            "name": self.name,
            "error_bounded": True,
            "error_bound": self.error_bound,
            "chunk_elems": self.chunk_elems,
            "block_size": self.block_size,
        }

    def chunk_count(self, n_elements: int) -> int:
        """Number of pipeline chunks used for ``n_elements`` values."""
        if n_elements <= 0:
            return 0
        return (n_elements + self.chunk_elems - 1) // self.chunk_elems

    # ------------------------------------------------------ incremental API

    def iter_compress(self, data) -> Iterator[CompressedChunk]:
        """Compress ``data`` chunk by chunk, yielding after every chunk.

        The caller regains control between chunks — the hook for polling
        communication progress (``MPI_Test``-style).
        """
        arr = check_compressible(data)
        for index, (start, stop) in enumerate(chunk_bounds(arr.size, self.chunk_elems)):
            payload = self._inner.compress_bytes(arr[start:stop])
            yield CompressedChunk(index=index, start=start, stop=stop, payload=payload)

    def assemble(self, chunks: Sequence[CompressedChunk], count: int, dtype) -> bytes:
        """Assemble chunk payloads into the single self-describing PIPE-SZx buffer.

        The per-chunk compressed sizes are written as a contiguous index right
        after the header (the "pre-allocated space at the front of the buffer"
        described in the paper), followed by the concatenated chunk payloads.
        """
        chunks = sorted(chunks, key=lambda c: c.index)
        expected = self.chunk_count(count)
        if len(chunks) != expected:
            raise ValueError(f"expected {expected} chunks for {count} elements, got {len(chunks)}")
        header = PayloadHeader(
            magic=_MAGIC, dtype=np.dtype(dtype), count=count, param=self.error_bound
        )
        sizes = np.asarray([c.nbytes for c in chunks], dtype=np.uint32)
        out = bytearray()
        out += header.pack()
        out += _INDEX_HEADER.pack(self.chunk_elems, len(chunks))
        out += sizes.tobytes()
        for chunk in chunks:
            out += chunk.payload
        return bytes(out)

    def iter_decompress(self, payload: bytes) -> Iterator[np.ndarray]:
        """Decompress a PIPE-SZx buffer chunk by chunk (in element order)."""
        _header, chunk_payloads = self._parse(payload)
        for piece in chunk_payloads:
            yield self._inner.decompress_bytes(piece)

    # ----------------------------------------------------------- one-shot API

    def compress_bytes(self, data: np.ndarray) -> bytes:
        arr = check_compressible(data)
        return self.assemble(list(self.iter_compress(arr)), arr.size, arr.dtype)

    def decompress_bytes(self, payload: bytes) -> np.ndarray:
        header, chunk_payloads = self._parse(payload)
        out = np.empty(header.count, dtype=header.dtype)
        pos = 0
        for piece in chunk_payloads:
            part = self._inner.decompress_bytes(piece)
            out[pos : pos + part.size] = part
            pos += part.size
        if pos != header.count:
            raise DecompressionError(
                f"chunk element counts ({pos}) do not add up to the header count ({header.count})"
            )
        return out

    # -------------------------------------------------------------- internal

    def _parse(self, payload: bytes):
        header = PayloadHeader.unpack(payload, _MAGIC)
        offset = PayloadHeader.SIZE
        if len(payload) < offset + _INDEX_HEADER.size:
            raise DecompressionError("truncated PIPE-SZx payload (missing chunk index header)")
        chunk_elems, n_chunks = _INDEX_HEADER.unpack_from(payload, offset)
        offset += _INDEX_HEADER.size
        if chunk_elems <= 0:
            raise DecompressionError("invalid PIPE-SZx chunk size")
        expected = (header.count + chunk_elems - 1) // chunk_elems if header.count else 0
        if n_chunks != expected:
            raise DecompressionError(
                f"chunk index announces {n_chunks} chunks but the header count implies {expected}"
            )
        sizes = np.frombuffer(payload, dtype=np.uint32, count=n_chunks, offset=offset)
        offset += 4 * n_chunks
        # vectorised cursor precomputation over the front-of-buffer index: one
        # cumsum gives every chunk's byte range, and a single total-length
        # check replaces the per-chunk truncation test
        ends = offset + np.cumsum(sizes, dtype=np.int64)
        if n_chunks and len(payload) < int(ends[-1]):
            raise DecompressionError("truncated PIPE-SZx payload (missing chunk data)")
        starts = ends - sizes
        pieces: List[bytes] = [
            payload[int(start) : int(end)] for start, end in zip(starts, ends)
        ]
        return header, pieces

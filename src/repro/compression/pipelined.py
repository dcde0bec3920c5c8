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
computation framework (:mod:`repro.ccoll.computation`) compresses a whole ring
round's chunks in one :meth:`PipelinedSZx.compress_many` call and *models* the
interleaving as pipeline segments in virtual time.

Both APIs run the same chunked SZx kernel
(:func:`repro.compression.szx.compress_chunks` /
:func:`~repro.compression.szx.decompress_chunks`).  The one-shot path hands it
the whole buffer, so all chunks are classified, quantised and bit-packed in
**one** blockwise pass and this module only adds (or reads) the chunk index;
:meth:`PipelinedSZx.compress_many` hands it every input's chunks back to back,
one pass for a whole batch of buffers; the generators invoke it on one chunk
at a time.  The bytes are identical either way, which makes the generators the
per-chunk oracle the one-shot path is tested against.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.compression.base import (
    CompressedBuffer,
    Compressor,
    check_compressible,
    check_restored,
)
from repro.compression.errors import DecompressionError
from repro.compression.header import PayloadHeader
from repro.compression.szx import (
    DEFAULT_BLOCK_SIZE,
    compress_batch,
    compress_chunks,
    decompress_chunks,
)
from repro.utils.chunking import chunk_bounds
from repro.utils.validation import ensure_1d_float_array, ensure_positive

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


def _chunk_lens(count: int, chunk_elems: int) -> List[int]:
    """The lengths of the pipeline chunks of ``count`` values."""
    n_full, tail = divmod(count, chunk_elems)
    return [chunk_elems] * n_full + [tail] * (tail > 0)


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
        if block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {block_size}")
        self.block_size = int(block_size)

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
            (payload,) = compress_chunks(
                arr[start:stop], [stop - start], self.block_size, self.error_bound
            )
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
        return self._frame([c.payload for c in chunks], count, dtype)

    def iter_decompress(self, payload: bytes) -> Iterator[np.ndarray]:
        """Decompress a PIPE-SZx buffer chunk by chunk (in element order)."""
        header, chunk_elems, pieces = self._parse(payload)
        for (start, stop), piece in zip(chunk_bounds(header.count, chunk_elems), pieces):
            yield decompress_chunks([piece], [stop - start])

    # ----------------------------------------------------------- one-shot API

    def compress(self, data, restored: Optional[np.ndarray] = None) -> CompressedBuffer:
        # compress_bytes is itself called with unvalidated buffers and checks
        # them; the base wrapper's own finiteness pass would be a second one
        arr = ensure_1d_float_array(data)
        return CompressedBuffer(
            payload=self.compress_bytes(arr, restored),
            original_count=arr.size,
            original_dtype=arr.dtype,
            codec=self.name,
        )

    def compress_bytes(self, data: np.ndarray, restored: Optional[np.ndarray] = None) -> bytes:
        arr = check_compressible(data)
        check_restored(arr, restored)
        lens = _chunk_lens(arr.size, self.chunk_elems)
        payloads = compress_chunks(arr, lens, self.block_size, self.error_bound, restored)
        return self._frame(payloads, arr.size, arr.dtype)

    def compress_many(
        self, arrays: Sequence[np.ndarray], restoreds: Sequence[np.ndarray]
    ) -> List[bytes]:
        return compress_batch(
            self,
            arrays,
            restoreds,
            lambda count: _chunk_lens(count, self.chunk_elems),
            lambda chunks, data: self._frame(chunks, data.size, data.dtype),
        )

    def decompress_bytes(self, payload: bytes) -> np.ndarray:
        header, chunk_elems, pieces = self._parse(payload)
        if not pieces:
            return np.zeros(0, dtype=header.dtype)
        out = decompress_chunks(pieces, _chunk_lens(header.count, chunk_elems))
        if out.dtype != header.dtype:
            raise DecompressionError(
                f"chunks hold {out.dtype} values but the PIPE-SZx header announces {header.dtype}"
            )
        return out

    # -------------------------------------------------------------- internal

    def _frame(self, payloads: Sequence[bytes], count: int, dtype) -> bytes:
        """Header, chunk-size index, then the chunk payloads back to back."""
        header = PayloadHeader(
            magic=_MAGIC, dtype=np.dtype(dtype), count=count, param=self.error_bound
        )
        index = _INDEX_HEADER.pack(self.chunk_elems, len(payloads))
        index += struct.pack(f"<{len(payloads)}I", *map(len, payloads))
        return b"".join((header.pack(), index, *payloads))

    def _parse(self, payload: bytes):
        """Validate the header and index; return them with one view per chunk."""
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
        if len(payload) < offset + 4 * n_chunks:
            raise DecompressionError("truncated PIPE-SZx payload (missing chunk index)")
        # the front-of-buffer index gives every chunk's byte range up front, so
        # one total-length check replaces a truncation test per chunk
        sizes = struct.unpack_from(f"<{n_chunks}I", payload, offset)
        bounds = list(accumulate(sizes, initial=offset + 4 * n_chunks))
        if len(payload) < bounds[-1]:
            raise DecompressionError("truncated PIPE-SZx payload (missing chunk data)")
        view = memoryview(payload)
        return header, chunk_elems, [view[start:end] for start, end in zip(bounds, bounds[1:])]

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

:class:`PipelinedSZx` is a drop-in :class:`~repro.compression.base.Compressor`
for that payload format.  The simulation never hands control back between
chunks on the host, and never makes the payload either: the collective
computation framework (:mod:`repro.ccoll.computation`) asks for a whole ring
round's payload lengths and reconstructions in one
:meth:`PipelinedSZx.compressed_nbytes` call, charges the network for the
lengths and *models* the interleaving as pipeline segments in virtual time.

Every path runs the same chunked SZx kernel
(:func:`repro.compression.szx.compress_chunks` /
:func:`~repro.compression.szx.decompress_chunks`, and
:func:`~repro.compression.szx.chunk_nbytes` for the lengths).
:meth:`PipelinedSZx.compress_bytes` hands it the whole buffer, so all chunks
are classified, quantised and bit-packed in **one** blockwise pass and this
module only adds (or reads) the chunk index;
:meth:`PipelinedSZx.compressed_nbytes` hands it every input's chunks back to
back, one pass for a whole batch of buffers that packs nothing, and adds the
header and the index's ``8 + 4 * n_chunks`` bytes to each input's summed chunk
lengths.  Each chunk's payload is byte for byte the
:class:`~repro.compression.szx.SZxCompressor` payload of its 5120-value slice,
which makes plain SZx the per-chunk oracle PIPE-SZx is tested against.
"""

from __future__ import annotations

import struct
from functools import partial
from itertools import accumulate
from typing import List, Sequence

import numpy as np

from repro.compression.base import CompressedBuffer, Compressor, check_compressible
from repro.compression.errors import DecompressionError
from repro.compression.header import PayloadHeader
from repro.compression.szx import (
    DEFAULT_BLOCK_SIZE,
    batch_nbytes,
    compress_chunks,
    decompress_chunks,
)
from repro.utils.validation import ensure_1d_float_array, ensure_positive

__all__ = ["PipelinedSZx", "DEFAULT_CHUNK_ELEMS"]

_MAGIC = b"PSZX"
_INDEX_HEADER = struct.Struct("<II")  # chunk_elems, n_chunks
#: the bytes of a payload before its chunk-size index
_FRONT = PayloadHeader.SIZE + _INDEX_HEADER.size

#: the chunk granularity used by the paper (5120 data points per chunk)
DEFAULT_CHUNK_ELEMS = 5120


def _chunk_lens(count: int, chunk_elems: int) -> List[int]:
    """The lengths of the pipeline chunks of ``count`` values."""
    n_full, tail = divmod(count, chunk_elems)
    return [chunk_elems] * n_full + [tail] * (tail > 0)


class PipelinedSZx(Compressor):
    """Chunked SZx with a front-of-buffer chunk-size index.

    Parameters
    ----------
    error_bound:
        Absolute error bound forwarded to the per-chunk SZx kernel.

    Chunks hold :attr:`chunk_elems` values (5120, the paper's) of SZx blocks
    of :attr:`block_size` values; the decoder reads both from the payload.
    """

    name = "pipe_szx"
    error_bounded = True
    chunk_elems = DEFAULT_CHUNK_ELEMS
    block_size = DEFAULT_BLOCK_SIZE

    def __init__(self, error_bound: float = 1e-3) -> None:
        self.error_bound = ensure_positive(error_bound, "error_bound")

    # ------------------------------------------------------------------ API

    def describe(self) -> dict:
        return {"name": self.name, "error_bounded": True, "error_bound": self.error_bound}

    def compress(self, data) -> CompressedBuffer:
        # compress_bytes is itself called with unvalidated buffers and checks
        # them; the base wrapper's own finiteness pass would be a second one
        arr = ensure_1d_float_array(data)
        return CompressedBuffer(self.compress_bytes(arr), arr.size, arr.dtype, self.name)

    def compress_bytes(self, data: np.ndarray) -> bytes:
        arr = check_compressible(data)
        lens = _chunk_lens(arr.size, self.chunk_elems)
        payloads = compress_chunks(arr, lens, self.block_size, self.error_bound)
        return self._frame(payloads, arr.size, arr.dtype)

    def compressed_nbytes(
        self, arrays: Sequence[np.ndarray], restoreds: Sequence[np.ndarray]
    ) -> List[int]:
        lens_of = partial(_chunk_lens, chunk_elems=self.chunk_elems)
        total, chunks = batch_nbytes(self, arrays, restoreds, lens_of, check_compressible)
        # the header, the index's own header and one u32 size per chunk
        return (total + _FRONT + 4 * chunks).tolist()

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

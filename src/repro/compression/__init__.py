"""Error-bounded lossy compressors used by the C-Coll reproduction.

The package provides from-scratch numpy implementations of the codecs the
paper builds on:

* :class:`~repro.compression.szx.SZxCompressor` — SZx-style ultra-fast
  error-bounded block compressor (the codec C-Coll customises);
* :class:`~repro.compression.pipelined.PipelinedSZx` — PIPE-SZx, the chunked
  variant with a front-of-buffer size index that lets collectives overlap
  compression with communication progress;
* :class:`~repro.compression.zfp.ZFPCompressor` — ZFP-style transform codec
  with fixed-accuracy (ABS) and fixed-rate (FXR) modes, used as baselines;
* :class:`~repro.compression.null.NullCompressor` — identity codec for the
  uncompressed baselines.
"""

from repro.compression.base import (
    CompressedBuffer,
    Compressor,
    check_compressible,
    rounding_margin,
)
from repro.compression.errors import CompressionError, DecompressionError, UnsupportedDataError
from repro.compression.null import NullCompressor
from repro.compression.pipelined import DEFAULT_CHUNK_ELEMS, PipelinedSZx
from repro.compression.registry import available_compressors, make_compressor
from repro.compression.szx import DEFAULT_BLOCK_SIZE, SZxCompressor
from repro.compression.zfp import MODE_ABS, MODE_FXR, ZFPCompressor

__all__ = [
    "Compressor",
    "CompressedBuffer",
    "check_compressible",
    "rounding_margin",
    "CompressionError",
    "DecompressionError",
    "UnsupportedDataError",
    "SZxCompressor",
    "PipelinedSZx",
    "ZFPCompressor",
    "NullCompressor",
    "make_compressor",
    "available_compressors",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CHUNK_ELEMS",
    "MODE_ABS",
    "MODE_FXR",
]

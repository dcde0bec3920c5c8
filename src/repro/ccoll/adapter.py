"""Compression adapter: the layer between the collectives and the codecs.

This corresponds to the "Compression Adapter" box in the paper's architecture
(Figure 1).  The collectives never talk to a codec directly; they hand flat
arrays to the adapter and get back :class:`CompressedMessage` objects that
bundle the payload with everything the simulation needs:

* the real compressed bytes (what actually travels and is decompressed, so
  data fidelity is preserved end to end),
* the *virtual* sizes used by the network/cost models (real sizes scaled by
  the configured ``size_multiplier``),
* the achieved compression ratio (feeds the ratio-dependent throughput model
  and the harness's ratio statistics), and
* the modelled compression/decompression durations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.collectives.context import CollectiveContext
from repro.compression.base import Compressor
from repro.metrics.ratios import CompressionStats

__all__ = ["CompressedMessage", "CompressionAdapter"]


@dataclass(frozen=True)
class CompressedMessage:
    """A compressed chunk ready to be sent through the simulated network."""

    payload: bytes
    original_count: int
    original_dtype: np.dtype
    real_nbytes: int
    virtual_nbytes: int
    original_virtual_nbytes: int
    ratio: float

    @property
    def nbytes(self) -> int:
        """Size used by the network model (the virtual compressed size)."""
        return self.virtual_nbytes


class CompressionAdapter:
    """Compresses/decompresses chunks and accounts their modelled cost.

    Parameters
    ----------
    codec:
        The error-bounded codec (or fixed-rate baseline codec) to use.
    ctx:
        Collective context providing the cost model and virtual-size scaling.
    """

    def __init__(self, codec: Compressor, ctx: CollectiveContext) -> None:
        self.codec = codec
        self.ctx = ctx
        self.stats = CompressionStats()

    # ------------------------------------------------------------- compress

    def compress(self, data: np.ndarray) -> CompressedMessage:
        """Compress ``data`` and return the message plus bookkeeping."""
        data = np.ascontiguousarray(data).reshape(-1)
        buf = self.codec.compress(data)
        real = buf.nbytes
        original_virtual = self.ctx.vbytes(data)
        virtual = max(1, self.ctx.vbytes_raw(real))
        self.stats.record(buf.original_nbytes, real)
        return CompressedMessage(
            payload=buf.payload,
            original_count=data.size,
            original_dtype=data.dtype,
            real_nbytes=real,
            virtual_nbytes=virtual,
            original_virtual_nbytes=original_virtual,
            ratio=buf.ratio,
        )

    def decompress(self, message: CompressedMessage) -> np.ndarray:
        """Reconstruct the array carried by ``message``."""
        return self.codec.decompress(message.payload)

    # ----------------------------------------------------------- time models

    def compress_seconds(self, message: CompressedMessage) -> float:
        """Modelled time that producing ``message`` took."""
        return self.ctx.cost.compress_seconds(
            self.codec, message.original_virtual_nbytes, ratio=message.ratio
        )

    def decompress_seconds(self, message: CompressedMessage) -> float:
        """Modelled time to reconstruct ``message``."""
        return self.ctx.cost.decompress_seconds(
            self.codec, message.original_virtual_nbytes, ratio=message.ratio
        )

    def overall_ratio(self) -> Optional[float]:
        """Overall compression ratio observed so far (None before any call)."""
        if self.stats.count == 0:
            return None
        return self.stats.overall_ratio


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

Every payload goes through the codec once
-----------------------------------------
Virtual time charges every rank for every compression and decompression it
performs (the programs still yield one ``Compute`` per call, the adapter still
records one ratio per call); the *host* does each distinct computation once,
in two places:

* **A message decoded by many ranks is decoded once.**  Messages travel by
  reference, so the N-1 receivers of an allgather block or a broadcast buffer
  hold the same :class:`CompressedMessage`.  :meth:`CompressionAdapter.
  decompress_shared` remembers the decoded array *on the message*: it lives
  exactly as long as the message does, every receiver gets the same array,
  and that array is read-only, so a program that wrote into it would raise
  instead of corrupting its neighbours.  Messages with one receiver go through
  :meth:`CompressionAdapter.decompress`, which retains nothing.
* **A job's isolated baseline reuses the job's codec results.**
  :class:`CodecMemo` is content-addressed: compress is keyed by the codec's
  class, every parameter its output depends on (``Compressor.describe()``),
  the input dtype and the input bytes; decompress by the codec and the
  payload.  A key therefore *is* the computation, and no invalidation rule is
  needed: a plan that differs (another fabric state picks another algorithm)
  feeds different bytes and simply misses.  A memo is an ordinary object that
  ``WorkloadEngine.run`` creates per job, hands to ``compile_job`` and drops
  once that job's baseline has run; it reaches the adapters through
  ``CCollConfig.codec_memo`` (read by ``CCollConfig.make_adapters`` only).
  Without one — every direct ``Communicator`` call, every ``baseline=False``
  run — the adapter goes straight to the codec.  Codec errors are raised from
  the codec call itself and never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.collectives.context import CollectiveContext
from repro.compression.base import CompressedBuffer, Compressor
from repro.metrics.ratios import CompressionStats

__all__ = ["CodecMemo", "CompressedMessage", "CompressionAdapter"]


class CodecMemo:
    """Content-addressed codec results (see the module docstring for its lifetime)."""

    def __init__(self) -> None:
        #: (codec key, input dtype, input bytes) -> what the codec made of them
        self.compressed: Dict[Tuple, CompressedBuffer] = {}
        #: (codec key, payload) -> the read-only array the payload decodes to
        self.decoded: Dict[Tuple, np.ndarray] = {}


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
    #: the decode every receiver shares, once one of them has asked for it
    #: (at most one entry; see :meth:`CompressionAdapter.decompress_shared`)
    _decoded: List[np.ndarray] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

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
    memo:
        Codec results to reuse and add to; ``None`` calls the codec every time.
    """

    def __init__(
        self, codec: Compressor, ctx: CollectiveContext, memo: Optional[CodecMemo] = None
    ) -> None:
        self.codec = codec
        self.ctx = ctx
        self.memo = memo
        #: what a codec result depends on besides the data
        self._codec_key = (type(codec), tuple(codec.describe().items()))
        self.stats = CompressionStats()

    # ------------------------------------------------------------- compress

    def compress(self, data: np.ndarray) -> CompressedMessage:
        """Compress ``data`` and return the message plus bookkeeping."""
        data = np.ascontiguousarray(data).reshape(-1)
        if self.memo is None:
            buf = self.codec.compress(data)
        else:
            key = (self._codec_key, data.dtype.str, data.tobytes())
            buf = self.memo.compressed.get(key)
            if buf is None:
                buf = self.memo.compressed[key] = self.codec.compress(data)
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

    # ----------------------------------------------------------- decompress

    def _decode(self, payload: bytes) -> np.ndarray:
        """The array ``payload`` decodes to; read-only when a memo holds it."""
        if self.memo is None:
            return self.codec.decompress(payload)
        key = (self._codec_key, payload)
        data = self.memo.decoded.get(key)
        if data is None:
            data = self.memo.decoded[key] = self.codec.decompress(payload)
            data.setflags(write=False)
        return data

    def decompress(self, message: CompressedMessage) -> np.ndarray:
        """Reconstruct the array carried by ``message``; the caller owns the result."""
        data = self._decode(message.payload)
        return data if data.flags.writeable else data.copy()

    def decompress_shared(self, message: CompressedMessage) -> np.ndarray:
        """The array carried by ``message``, decoded once for all its receivers.

        For the endpoints of the data-movement framework, where many ranks
        decode the same message: the result is read-only and shared, so a
        program that returns it as its value copies it first.
        """
        if not message._decoded:
            data = self._decode(message.payload)
            data.setflags(write=False)
            message._decoded.append(data)
        return message._decoded[0]

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

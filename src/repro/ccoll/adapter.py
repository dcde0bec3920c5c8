"""Compression adapter: the layer between the collectives and the codecs.

This corresponds to the "Compression Adapter" box in the paper's architecture
(Figure 1).  The collectives never talk to a codec directly; they hand flat
arrays to the adapter and get back :class:`CompressedMessage` objects that
bundle the payload with everything the simulation needs:

* the real compressed bytes and the array they decode to (what the receivers
  compute with, so data fidelity is preserved end to end),
* the *virtual* sizes used by the network/cost models (real sizes scaled by
  the configured ``size_multiplier``),
* the achieved compression ratio (feeds the ratio-dependent throughput model
  and the harness's ratio statistics), and
* the modelled compression/decompression durations.

Every payload goes through the codec once, a ring round in one call
-------------------------------------------------------------------
Virtual time charges every rank for every compression and decompression it
performs (the programs still yield one ``Compute`` per call, the adapter still
records one ratio per call).  The *host* compresses each distinct input once,
compresses the inputs of a C-Coll ring round in one codec call and, on the
simulation path, decodes nothing:

* **A message carries its reconstruction.**  An encoder holds what its payload
  decodes to as a by-product, so :meth:`CompressionAdapter.compress` asks the
  codec for it (the ``restored`` out-parameter of ``Compressor.compress``,
  byte for byte the array ``decompress_bytes(payload)`` returns) and stores it
  on the message as :attr:`CompressedMessage.decoded`.  Messages travel by
  reference, so the sender, the one receiver of a reduce-scatter chunk and the
  N-1 receivers of an allgather block or a broadcast buffer all hold the same
  array, for exactly as long as the message lives.  That is why it is
  **read-only**: a program that wrote into it would raise
  (``ValueError: assignment destination is read-only``) instead of corrupting
  its neighbours.  :meth:`CompressionAdapter.decompress_shared` hands out the
  array itself, for receivers that only read it (``chunk + incoming``, a
  ``concatenate``); :meth:`CompressionAdapter.decompress` hands out a copy the
  caller owns, for programs that return what they received as their value.
  The real decoders stay honest through the codec tests and the fuzzer's
  ``codec_roundtrip`` audit, which compares them with ``restored`` bytewise.
* **Every re-execution of a job reuses the job's codec results.**
  :class:`CodecMemo` is content-addressed: an entry is keyed by the codec's
  class, every parameter its output depends on (``Compressor.describe()``),
  the input dtype, the input size and the SHA-256 digest of the input bytes,
  and holds the compressed buffer with its reconstruction.  A key therefore
  *is* the computation (up to a 256-bit collision; the digest, not the bytes,
  so an entry costs 32 bytes on top of what it holds), and no invalidation
  rule is needed: a plan that differs (another fabric state picks another
  algorithm, a restart elsewhere groups its ranks differently) feeds different
  bytes and simply misses.  A memo is an ordinary object that
  ``WorkloadEngine.run`` creates for a job that can execute more than once — a
  restart attempt after a kill, its isolated baseline — hands to every
  ``compile_job`` of that job and drops once no execution can follow; it
  reaches the adapters through ``CCollConfig.codec_memo`` (read by
  ``CCollConfig.make_adapters`` / ``plan_memo`` only).  Without one, a ring
  collective's plan makes a memo of its own (below), which lives as long as
  the plan: a compiled workload job holds the plans of all its steps, so their
  memos stay until the job's attempt ends (it retires or is killed).  Every
  other adapter goes straight to the codec.  Codec errors are raised from the
  codec call itself and never stored.
* **A ring round is one codec call.**  The values of C-Coll's ring never
  depend on timing: round ``k`` of rank ``r`` compresses its own chunk plus
  what round ``k - 1`` of rank ``r - 1`` decoded to.  So the planners of the
  C-Coll reduce-scatter, allreduce (Overlap and ND) and allgather run their
  ring ahead of the programs, in lockstep, and :meth:`CompressionAdapter.warm`
  compresses each round's ``n`` chunks with one ``Compressor.compress_many``
  call (one kernel pass for SZx and PIPE-SZx, whose small calls are mostly
  fixed cost) into the memo the programs then hit.  The warm runs when the
  plan's first program first asks for a compression
  (:func:`warm_before_compressing`), so a captured plan runs nothing and the
  codec time is booked to the programs.  Correctness never depends on it:
  the memo is content-addressed, so a warm that drifted from the schedule
  would cost a miss and an ordinary codec call, and a round the codec refuses
  stores nothing, leaving the rank that compresses it to raise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.collectives.context import CollectiveContext
from repro.compression.base import CompressedBuffer, Compressor, check_compressible
from repro.compression.errors import CompressionError
from repro.metrics.ratios import CompressionStats
from repro.utils.validation import ensure_1d_float_array

__all__ = ["CodecMemo", "CompressedMessage", "CompressionAdapter", "warm_before_compressing"]


class CodecMemo:
    """Content-addressed codec results (see the module docstring for its lifetime).

    A key is the computation up to a 256-bit collision: the input enters as its
    SHA-256 digest, so an entry retains none of the bytes it was computed from.
    """

    def __init__(self) -> None:
        #: (codec key, input dtype, input size, SHA-256 of the input bytes) -> what
        #: the codec made of them: the compressed buffer and the read-only array
        #: it decodes to
        self.compressed: Dict[Tuple, Tuple[CompressedBuffer, np.ndarray]] = {}


@dataclass(frozen=True)
class CompressedMessage:
    """A compressed chunk ready to be sent through the simulated network."""

    payload: bytes
    real_nbytes: int
    virtual_nbytes: int
    original_virtual_nbytes: int
    ratio: float
    #: what ``payload`` decodes to, from the encoder that produced it: read-only,
    #: and shared by everyone who holds the message
    decoded: np.ndarray = field(repr=False, compare=False)

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
        #: runs once, before this adapter's first compression (see
        #: :func:`warm_before_compressing`)
        self._before_compress: Optional[Callable[[], None]] = None
        self.stats = CompressionStats()

    # ------------------------------------------------------------- compress

    def _key(self, data: np.ndarray) -> Tuple:
        """The memo key of the flat, contiguous ``data``: the computation, up to SHA-256."""
        return (self._codec_key, data.dtype.str, data.size, hashlib.sha256(data).digest())

    def _encode(self, data: np.ndarray) -> Tuple[CompressedBuffer, np.ndarray]:
        """``data`` through the codec: the buffer and the read-only array it decodes to."""
        values = ensure_1d_float_array(data)  # what the codec compresses: it widens float16
        restored = np.empty_like(values)
        buf = self.codec.compress(values, restored=restored)
        restored.setflags(write=False)
        return buf, restored

    def warm(self, arrays: Sequence[np.ndarray]) -> Optional[List[np.ndarray]]:
        """Put every array's codec result in the memo; return the read-only decodes.

        The inputs the memo does not hold yet go through the codec in **one**
        :meth:`~repro.compression.base.Compressor.compress_many` call, each
        distinct input once; a later :meth:`compress` of an equal array is then
        a hit.  Returns what each array decodes to, in order — or ``None``, with
        nothing stored from this call, when the codec refuses any of them: the
        rank that compresses the refused input raises the error itself, where
        and as it would without the warm.
        """
        flat = [np.ascontiguousarray(data).reshape(-1) for data in arrays]
        keys = [self._key(data) for data in flat]
        missing = {}
        for key, data in zip(keys, flat):
            if key not in self.memo.compressed:
                missing.setdefault(key, data)
        if missing:
            try:
                # validated as compress validates: Compressor.compress refuses NaN / Inf
                values = [check_compressible(data) for data in missing.values()]
                restoreds = [np.empty_like(data) for data in values]
                payloads = self.codec.compress_many(values, restoreds)
            except CompressionError:
                return None
            for key, data, payload, restored in zip(missing, values, payloads, restoreds):
                restored.setflags(write=False)
                buf = CompressedBuffer(payload, data.size, data.dtype, self.codec.name)
                self.memo.compressed[key] = (buf, restored)
        return [self.memo.compressed[key][1] for key in keys]

    def compress(self, data: np.ndarray) -> CompressedMessage:
        """Compress ``data`` and return the message plus bookkeeping."""
        if self._before_compress is not None:
            self._before_compress()
        data = np.ascontiguousarray(data).reshape(-1)
        if self.memo is None:
            buf, decoded = self._encode(data)
        else:
            key = self._key(data)
            entry = self.memo.compressed.get(key)
            if entry is None:
                entry = self.memo.compressed[key] = self._encode(data)
            buf, decoded = entry
        real = buf.nbytes
        original_virtual = self.ctx.vbytes(data)
        virtual = max(1, self.ctx.vbytes_raw(real))
        self.stats.record(buf.original_nbytes, real)
        return CompressedMessage(
            payload=buf.payload,
            real_nbytes=real,
            virtual_nbytes=virtual,
            original_virtual_nbytes=original_virtual,
            ratio=buf.ratio,
            decoded=decoded,
        )

    # ----------------------------------------------------------- decompress

    def decompress(self, message: CompressedMessage) -> np.ndarray:
        """The array carried by ``message``, as a copy the caller owns."""
        return message.decoded.copy()

    def decompress_shared(self, message: CompressedMessage) -> np.ndarray:
        """The array carried by ``message`` itself: read-only, and the same
        object for every holder of the message, so only for callers that read it."""
        return message.decoded

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


def warm_before_compressing(
    adapters: Sequence[CompressionAdapter], warm: Callable[[], None]
) -> None:
    """Run ``warm()`` once, when any of ``adapters`` is first asked to compress.

    The planners of the ring collectives use this to compress a whole ring
    round in one codec call (:meth:`CompressionAdapter.warm`) from inside the
    first rank program that needs a compression: not at plan time, when a
    captured plan must run nothing, and not in the program factory, which the
    engine calls while it is being built.
    """

    def once() -> None:
        for adapter in adapters:
            adapter._before_compress = None
        warm()

    for adapter in adapters:
        adapter._before_compress = once

"""Compression adapter: the layer between the collectives and the codecs.

This corresponds to the "Compression Adapter" box in the paper's architecture
(Figure 1).  The collectives never talk to a codec directly; they hand flat
arrays to the adapter and get back :class:`CompressedMessage` objects that
bundle everything the simulation needs of a payload, which is not its bytes:

* the real payload's length and the array it decodes to (what the receivers
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
records one ratio per call).  The *host* compresses a C-Coll ring round's
inputs in one codec call, compresses nothing twice for a job that executes
more than once and, on the simulation path, neither packs nor decodes a
payload:

* **A message carries its length and its reconstruction, not its bytes.**
  The network is charged for a payload's length and the ranks compute with
  what it decodes to; nothing reads the bytes in between.  So
  :meth:`CompressionAdapter.compress` asks the codec for exactly those two
  through ``Compressor.compressed_nbytes``, a codec's one route to a
  reconstruction: its lengths equal ``len(compress_bytes(data))`` and the
  ``restoreds`` it fills are byte for byte the arrays
  ``decompress_bytes(payload)`` returns.  It asks as a batch of one after the
  validation ``Compressor.compress`` makes, and stores the two on the message
  as :attr:`CompressedMessage.real_nbytes` and
  :attr:`CompressedMessage.decoded`.  Every codec counts a length from what
  its quantisation settles (the bit widths for SZx, PIPE-SZx and ZFP ABS, the
  block geometry for ZFP FXR, the size for ``null``), so none packs bits or
  frames a payload.  Messages travel by
  reference, so the sender, the one receiver of a reduce-scatter chunk and the
  N-1 receivers of an allgather block or a broadcast buffer all hold the same
  array, for exactly as long as the message lives.  That is why it is
  **read-only**: a program that wrote into it would raise
  (``ValueError: assignment destination is read-only``) instead of corrupting
  its neighbours.  :meth:`CompressionAdapter.decompress_shared` hands out the
  array itself, for receivers that only read it (``chunk + incoming``, a
  ``concatenate``); :meth:`CompressionAdapter.decompress` hands out a copy the
  caller owns, for programs that return what they received as their value.
  The real encoders and decoders stay honest through the codec tests (the
  length differential of ``compressed_nbytes`` against ``compress_bytes``
  among them) and the fuzzer's ``codec_roundtrip`` audit, which holds
  ``compressed_nbytes`` to ``compress_bytes`` + ``decompress_bytes``, length
  and bytes.
* **A ring round is one codec call, and a rank finds its round by a byte
  compare.**  The values of C-Coll's ring never depend on timing: round ``k``
  of rank ``r`` compresses its own chunk plus what round ``k - 1`` of rank
  ``r - 1`` decoded to.  So the planners of the C-Coll reduce-scatter,
  allreduce (Overlap and ND), allgather and topology-aware allreduce run their
  ring ahead of the programs, in lockstep, and :func:`warm_round` compresses
  each round's ``n`` inputs with one ``Compressor.compressed_nbytes`` call
  (one kernel pass for SZx and PIPE-SZx, whose small calls are mostly fixed
  cost).
  Each result goes on the queue of the rank that will compress it
  (:attr:`CompressionAdapter.warmed`), in the order that rank compresses, with
  the input it stands for: an array nothing else can write (one the warm made,
  or a copy of a caller's block), read-only.
  :meth:`CompressionAdapter.compress` pops the head of its queue and uses it
  when that input equals the data bit for bit (a byte compare, so ``-0.0`` is
  not ``0.0``); otherwise it compresses as it would without the warm.
  Bit-equal inputs of one round are not merged: each is compressed in the
  batch.  Correctness never depends on the warm: one that drifted from the
  schedule costs a miss and an ordinary codec call, never a wrong value, and
  a round the codec refuses queues nothing, leaving the rank that compresses
  it to raise.
* **A warm runs when a rank finds its queue empty.**  A planner hands
  :func:`warm_ahead` its adapters and its rounds, a generator that queues
  work each time it is resumed; whenever one of those adapters is asked to
  compress with nothing queued, the generator is resumed once.  So a
  captured plan runs nothing and the codec time is booked to the programs.
  Every reduce-scatter ring runs one generator,
  :func:`repro.ccoll.computation.ring_rounds` (a round per resumption), and
  how far ahead it runs is only how the plan resumes it.  The topology-aware
  leader ring hands it over as it is, so each leader's queue runs at most
  one round ahead of it: its chunks are node sums, and every round of them
  at once would cost more memory than the batch saves time.  The flat rings
  (the C-Coll reduce-scatter and allreduce) wrap it in
  :func:`~repro.ccoll.computation.whole_step`, which runs every round at the
  first resumption and then ends.  Whole-step, because a step killed after
  its first compression then has every round on its tape (below), so its
  replay compresses nothing rank by rank.  Ending, because a warm that ends
  unhooks its adapters; one left paused keeps each adapter alive in a cycle
  through the hook.  C-Allgather queues its blocks, one round, at the first
  compression.  The
  queues hold a round's inputs, buffers and reconstructions until each rank
  has compressed its own (a tape, below, keeps them longer); a successful
  run leaves every queue empty and no adapter hooked.
* **A re-execution replays the first execution's queues.**  A job compresses
  the same inputs in the same order, rank by rank, every time it executes.  A
  :class:`CodecTape` records a plan's queues — per adapter, in creation order,
  what a warm queued for it and what it compressed with an empty queue — and
  a later plan given the tape starts each adapter with those entries as its
  queue and skips its warm.  They are byte-compared like any queue: a plan
  that differs (a restart elsewhere that groups its ranks differently) costs
  misses and codec calls, never a wrong value, and an adapter whose codec
  differs from the recording's replays nothing.  ``repro.workload`` keeps a
  tape per step of a job that can execute again (a restart, its isolated
  baseline) and hands it to every compile through ``CCollConfig.codec_tape``.
  A tape holds what its warm had queued, so a flat ring's step killed after
  its first compression is complete on it and a killed leader ring's holds
  the rounds queued so far: a replay runs out of entries there and its ranks
  compress (and record) the rest themselves.  A refused compression records
  nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.collectives.context import CollectiveContext
from repro.compression.base import Compressor, check_compressible
from repro.compression.errors import CompressionError
from repro.metrics.ratios import CompressionStats, compression_ratio

__all__ = [
    "CodecTape",
    "CompressedMessage",
    "CompressionAdapter",
    "warm_ahead",
    "warm_round",
]

#: one compression as a queue holds it: the read-only input, the length of its
#: payload and the read-only array that payload decodes to
Entry = Tuple[np.ndarray, int, np.ndarray]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the flat, contiguous ``a`` and ``b`` hold the same values bit for bit
    (a byte compare: ``-0.0`` is not ``0.0``; faster than a ufunc on small arrays)."""
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _empty_like_each(arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """An empty array like each of the flat ``arrays``: cuts of one allocation when
    they share a dtype."""
    dtypes = {data.dtype for data in arrays}
    if len(dtypes) != 1:
        return [np.empty_like(data) for data in arrays]
    sizes = [data.size for data in arrays]
    whole = np.empty(sum(sizes), dtype=dtypes.pop())
    return [whole[end - size : end] for size, end in zip(sizes, accumulate(sizes))]


class CodecTape:
    """One plan's handle on a recording (see the module docstring): ``recorded``
    holds, per adapter in the order the plans make them, its codec's description
    and its entries; every plan of the computation takes a new handle on it."""

    def __init__(self, recorded: List[Tuple[Dict[str, object], List[Entry]]]) -> None:
        self.recorded = recorded
        self._made = 0

    def entries_for(self, codec: Compressor) -> List[Entry]:
        """The next adapter's entries: those recorded at its position under an equal
        codec, else a new list to record into."""
        position, described = self._made, codec.describe()
        self._made += 1
        if position == len(self.recorded):
            self.recorded.append((described, []))
        elif self.recorded[position][0] != described:
            self.recorded[position] = (described, [])
        return self.recorded[position][1]


@dataclass(frozen=True)
class CompressedMessage:
    """A compressed chunk ready to be sent through the simulated network: the
    length of its payload and what that payload decodes to, not its bytes."""

    real_nbytes: int
    virtual_nbytes: int
    original_virtual_nbytes: int
    ratio: float
    #: what the payload decodes to, from the encoder that sized it: read-only,
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
    tape:
        The plan's tape: this adapter replays and records its next entries;
        ``None`` records nothing.
    """

    def __init__(
        self, codec: Compressor, ctx: CollectiveContext, tape: Optional[CodecTape] = None
    ) -> None:
        self.codec = codec
        self.ctx = ctx
        #: where this adapter's results are recorded for a later plan to replay
        self.tape = None if tape is None else tape.entries_for(codec)
        #: what was compressed ahead for this rank, in the order it compresses: a
        #: replayed tape, or a warm's rounds
        self.warmed: Deque[Entry] = deque(self.tape or ())
        #: resumes the plan's warm when this adapter compresses with an empty queue
        #: (see :func:`warm_ahead`)
        self._warm: Optional[Callable[[], None]] = None
        self.stats = CompressionStats()

    # ------------------------------------------------------------- compress

    def _encode(self, data: np.ndarray) -> Tuple[int, np.ndarray]:
        """``data`` through the codec: its payload's length and the read-only
        array that payload decodes to (a batch of one, validated as
        ``Compressor.compress`` validates, so a refusal raises the same)."""
        values = check_compressible(data)  # what the codec compresses: it widens float16
        restored = np.empty_like(values)
        (nbytes,) = self.codec.compressed_nbytes([values], [restored])
        restored.setflags(write=False)
        return nbytes, restored

    def _result(self, data: np.ndarray) -> Tuple[int, np.ndarray]:
        """The head of :attr:`warmed` if its input is ``data`` bit for bit, else
        :meth:`_encode` of it — recorded on :attr:`tape` when the queue was empty."""
        if self.warmed:
            warmed, nbytes, decoded = self.warmed.popleft()
            return (nbytes, decoded) if _same_bits(warmed, data) else self._encode(data)
        nbytes, decoded = self._encode(data)
        if self.tape is not None:
            frozen = data.copy()  # the caller's array is not the tape's to freeze
            frozen.setflags(write=False)
            self.tape.append((frozen, nbytes, decoded))
        return nbytes, decoded

    def compress(self, data: np.ndarray) -> CompressedMessage:
        """Compress ``data`` and return the message plus bookkeeping."""
        if not self.warmed and self._warm is not None:
            self._warm()
        data = np.ascontiguousarray(data).reshape(-1)
        real, decoded = self._result(data)
        self.stats.record(decoded.nbytes, real)
        return CompressedMessage(
            real_nbytes=real,
            virtual_nbytes=max(1, self.ctx.vbytes_raw(real)),
            original_virtual_nbytes=self.ctx.vbytes(data),
            ratio=compression_ratio(decoded.nbytes, real),
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


def warm_round(
    arrays: Sequence[np.ndarray], adapters: Sequence[CompressionAdapter]
) -> Optional[List[np.ndarray]]:
    """Compress ``arrays[i]`` ahead for ``adapters[i]``; return the read-only decodes.

    The ``adapters`` share one codec (that of ``adapters[0]``).  Every input
    goes through it in **one**
    :meth:`~repro.compression.base.Compressor.compressed_nbytes` call, and its
    result joins the back of ``adapters[i].warmed`` (and of its tape, if it
    has one), so that adapter's next :meth:`~CompressionAdapter.compress` of
    an array equal to it bit for bit costs no codec call.  The queue keeps
    ``arrays[i]`` itself, read-only: the caller hands over arrays nothing else
    writes.  Returns what each array decodes to, in order — or ``None``, with
    nothing queued from this call, when the codec refuses any of them: the
    rank that compresses the refused input raises the error itself, where and
    as it would without the warm.
    """
    codec = adapters[0].codec
    flat = [np.ascontiguousarray(data).reshape(-1) for data in arrays]
    try:
        # validated as compress validates: Compressor.compress refuses NaN / Inf
        values = [check_compressible(data) for data in flat]
        restoreds = _empty_like_each(values)
        sizes = codec.compressed_nbytes(values, restoreds)
    except CompressionError:
        return None
    for adapter, data, nbytes, restored in zip(adapters, flat, sizes, restoreds):
        data.setflags(write=False)
        restored.setflags(write=False)
        entry = (data, nbytes, restored)
        adapter.warmed.append(entry)
        if adapter.tape is not None:
            adapter.tape.append(entry)
    return restoreds


def warm_ahead(adapters: Sequence[CompressionAdapter], rounds: Iterator[None]) -> None:
    """Resume ``rounds`` whenever one of ``adapters`` would compress with an empty queue.

    ``rounds`` is a generator that queues what the ``adapters`` compress next
    (with :func:`warm_round`) each time it is resumed, and pauses at a
    ``yield``; once it returns, the warm is over, every adapter is unhooked,
    and every later compression finds what is left on its queue or
    compresses on its own.  A ring plan passes
    :func:`repro.ccoll.computation.ring_rounds` itself (one round ahead) or
    drained by :func:`~repro.ccoll.computation.whole_step` (the whole step at
    once); a generator that pauses after its last round instead leaves every
    adapter hooked, and alive in a cycle through the hook.  A resumption
    must queue one entry for every adapter that is short of one (or end the
    warm), so the queues stay aligned with the order each rank compresses.
    Nothing runs at plan time, when a captured plan must run nothing, nor in
    the program factory, which the engine calls while it is being built: the
    generator first runs inside the first rank program that asks for a
    compression.  Adapters that start with a queue replay a tape: their
    rounds are compressed already, and ``rounds`` never runs.
    """
    if any(adapter.warmed for adapter in adapters):
        return

    def resume() -> None:
        try:
            next(rounds)
        except StopIteration:
            for adapter in adapters:
                adapter._warm = None

    for adapter in adapters:
        adapter._warm = resume

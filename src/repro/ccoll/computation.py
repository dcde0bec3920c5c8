"""C-Coll collective computation framework (Sections III-A2 and III-E2).

Collective computation (reduce, reduce-scatter, allreduce) updates the data
every round, so the compress-once trick of the data-movement framework does
not apply: every round's outgoing partial sum must be compressed afresh.  What
*can* be removed is the exposed communication time: the PIPE-SZx compressor
works in chunks and hands control back between chunks, so the algorithm can

* start sending compressed segments while later segments are still being
  compressed (the front-of-buffer size index makes the segments
  self-locating), and
* poll the progress of the outstanding transfers between chunks, so the
  incoming message streams in *during* compression and is consumed
  segment-by-segment during decompression.

The result is the paper's Figure 4: the send/receive time is hidden inside the
compression and decompression phases, which Figure 9 measures as a 73-80%
reduction of the reduce-scatter Wait time.

``c_reduce_scatter_program`` implements both the overlapped version and (with
``overlap=False``) the plain CPR-P2P-style version used by the ND step-wise
variant of Table V (DI runs :func:`repro.ccoll.cpr_p2p.cpr_allreduce_program`).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.ccoll.adapter import (
    CompressedMessage,
    CompressionAdapter,
    warm_before_compressing,
    warm_round,
)
from repro.ccoll.config import CCollConfig
from repro.collectives.context import CollectiveContext, CollectivePlan, as_rank_arrays
from repro.utils.chunking import split_counts, split_displacements
from repro.mpisim.commands import Compute, Irecv, Isend, Test, Wait, Waitall
from repro.mpisim.timeline import CAT_COMDECOM, CAT_MEMCPY, CAT_OTHERS, CAT_REDUCTION, CAT_WAIT

__all__ = [
    "segment_count",
    "c_reduce_scatter_program",
]

#: uncompressed bytes represented by one pipeline segment (virtual)
_SEGMENT_BYTES = 2 * 1024 * 1024
#: most pipeline segments one reduce-scatter chunk is cut into (also the tag
#: stride between rounds)
_MAX_SEGMENTS = 32


def segment_count(uncompressed_vbytes: int) -> int:
    """Number of pipeline segments used for one reduce-scatter chunk.

    Both the sender and the receiver derive this from the (globally known)
    uncompressed chunk size, so no extra coordination is needed.
    """
    if uncompressed_vbytes <= 0:
        return 1
    return max(1, min(_MAX_SEGMENTS, math.ceil(uncompressed_vbytes / _SEGMENT_BYTES)))


def _chunk_views(vector: np.ndarray, n_ranks: int) -> List[np.ndarray]:
    """The ``n_ranks`` ring chunks of ``vector`` as views: the ring only reads them,
    replacing a chunk by a new array when it adds a partial sum in."""
    counts = split_counts(vector.size, n_ranks)
    displs = split_displacements(counts)
    return [vector[displs[i] : displs[i] + counts[i]] for i in range(n_ranks)]


def c_reduce_scatter_program(
    rank: int,
    size: int,
    my_vector: np.ndarray,
    adapter: CompressionAdapter,
    ctx: CollectiveContext,
    overlap: bool = True,
):
    """Ring reduce-scatter with per-round compression.

    With ``overlap=True`` the compression/communication pipeline described in
    the module docstring is used; with ``overlap=False`` each round is the
    plain compress -> send -> wait -> decompress sequence of CPR-P2P.
    Returns the rank's fully reduced chunk ``rank``.

    The ``overlap=False`` (ND) form deliberately keeps this posting order
    rather than the shared ring schedule
    (:func:`repro.collectives.reduce_scatter._ring_reduce_scatter_over_group`
    with C-Coll hops): it posts the receive *before* compressing, drains its
    sends only *after* decompressing, charges no CPR-P2P buffer-management
    cost, and strides its tags by ``_MAX_SEGMENTS + 1`` per round.  The
    shared ring would change ND's command stream, which
    ``tests/collectives/command_streams_pin.json`` forbids, so the posting
    order is a modelling choice of this function, not a second copy of the
    ring.
    """
    if size == 1:
        return my_vector.copy()
    chunks = _chunk_views(my_vector, size)

    left = (rank - 1) % size
    right = (rank + 1) % size

    for step in range(size - 1):
        send_index = (rank - step - 1) % size
        recv_index = (rank - step - 2) % size
        outgoing = chunks[send_index]
        base_tag = step * (_MAX_SEGMENTS + 1)
        # segment counts are derived from the (globally known) uncompressed
        # chunk sizes, so the sender and receiver always agree on them; note
        # that the incoming chunk (index ``recv_index``) can be one element
        # longer/shorter than the outgoing one when the vector does not divide
        # evenly across ranks.
        if overlap:
            segments_out = segment_count(ctx.vbytes(outgoing))
            segments_in = segment_count(ctx.vbytes(chunks[recv_index]))
        else:
            segments_out = segments_in = 1

        # post the receives for every incoming segment up front
        recv_reqs = []
        for seg in range(segments_in):
            recv_reqs.append((yield Irecv(source=left, tag=base_tag + seg)))

        # compress the outgoing partial sum (this cannot be elided: the data
        # changed last round), interleaving sends and progress polls
        message = adapter.compress(outgoing)
        # a rank sends each chunk once and never reads it again: let it go
        chunks[send_index] = outgoing = None
        compress_time = adapter.compress_seconds(message)
        piece_vbytes = max(1, -(-message.virtual_nbytes // segments_out))
        send_reqs = []
        for seg in range(segments_out):
            yield Compute(compress_time / segments_out, category=CAT_COMDECOM)
            if overlap:
                yield Test(recv_reqs[0])
            # every segment carries the whole message object; what the wire
            # is charged for is the segment's share of the compressed bytes
            send_reqs.append(
                (yield Isend(dest=right, data=message, nbytes=piece_vbytes, tag=base_tag + seg))
            )

        # receive and decompress segment by segment; later segments keep
        # streaming while earlier ones are decompressed
        decompress_time_total = None
        incoming_message: Optional[CompressedMessage] = None
        for seg in range(segments_in):
            incoming_message = yield Wait(recv_reqs[seg], category=CAT_WAIT)
            if decompress_time_total is None:
                decompress_time_total = adapter.decompress_seconds(incoming_message)
            yield Compute(decompress_time_total / segments_in, category=CAT_COMDECOM)
            if overlap and seg + 1 < segments_in:
                yield Test(recv_reqs[seg + 1])
        incoming = adapter.decompress_shared(incoming_message)  # only read: summed below

        # drain the outgoing sends (mostly complete: the right neighbour has
        # been polling during its own compression/decompression)
        yield Waitall(send_reqs, category=CAT_WAIT)

        yield Compute(ctx.memcpy_seconds(incoming), category=CAT_MEMCPY)
        chunks[recv_index] = chunks[recv_index] + incoming
        yield Compute(ctx.reduce_seconds(incoming), category=CAT_REDUCTION)

    return chunks[rank]


def warm_ring_reduce_scatter(
    vectors: List[np.ndarray], adapters: List[CompressionAdapter]
) -> Optional[List[np.ndarray]]:
    """Run the ring of :func:`c_reduce_scatter_program` in lockstep, one codec call per round.

    Round ``k`` of rank ``r`` compresses ``input_r[c]`` plus what round
    ``k - 1`` of rank ``r - 1`` decoded to, whatever the timing, so every
    round's chunks are known before any rank sends them.  Each round's ``n``
    outgoing chunks go through one :func:`~repro.ccoll.adapter.warm_round`
    call onto the queues of the ``adapters`` (one per rank) that will compress
    them, and the decodes are added in with the program's own
    ``chunks[i] + incoming``.
    What the queues keep is the warm's own: round 0 sends copies of the
    inputs' chunks, every later round the sums the warm made.
    Returns every rank's reduced chunk (``None`` once the codec refuses a
    round: the programs then compress it themselves and raise).
    """
    size = len(vectors)
    chunks = [_chunk_views(vector, size) for vector in vectors]
    for step in range(size - 1):
        outgoing = [chunks[r][(r - step - 1) % size] for r in range(size)]
        decoded = warm_round(
            [chunk.copy() for chunk in outgoing] if step == 0 else outgoing, adapters
        )
        if decoded is None:
            return None
        for rank in range(size):
            index = (rank - step - 2) % size
            chunks[rank][index] = chunks[rank][index] + decoded[(rank - 1) % size]
    return [chunks[rank][rank] for rank in range(size)]


def _plan_c_reduce_scatter(
    inputs, n_ranks: int, config: CCollConfig, overlap: bool
) -> CollectivePlan:
    """Plan the C-Coll reduce-scatter; rank ``r``'s result is reduced chunk ``r``."""
    ctx = config.context()
    vectors = as_rank_arrays(inputs, n_ranks)
    adapters = config.make_adapters(ctx, n_ranks, pipelined=True)
    warm_before_compressing(adapters, lambda: warm_ring_reduce_scatter(vectors, adapters))
    return CollectivePlan(
        lambda rank, size: c_reduce_scatter_program(
            rank, size, vectors[rank], adapters[rank], ctx, overlap=overlap
        )
    )

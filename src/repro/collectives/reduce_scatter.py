"""Ring reduce-scatter (the baseline algorithm of Figure 4, without compression).

Every rank starts with a full-length vector split into ``N`` chunks; after
``N - 1`` rounds rank ``r`` owns the fully reduced chunk ``r``.  In round ``i``
rank ``r`` sends its running partial sum for chunk ``(r - i - 1) mod N`` to the
right neighbour and receives the partial sum for chunk ``(r - i - 2) mod N``
from the left neighbour, reducing it into its local copy.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan, Hop, as_rank_arrays
from repro.mpisim.commands import Compute, Irecv, Isend, Waitall
from repro.mpisim.timeline import CAT_MEMCPY, CAT_REDUCTION, CAT_WAIT
from repro.utils.chunking import split_counts, split_displacements

__all__ = ["ring_reduce_scatter_program", "partition_chunks"]


def partition_chunks(vector: np.ndarray, n_ranks: int) -> List[np.ndarray]:
    """Split a flat vector into the ``n_ranks`` chunks used by the ring algorithms."""
    counts = split_counts(vector.size, n_ranks)
    displs = split_displacements(counts)
    return [vector[displs[i] : displs[i] + counts[i]].copy() for i in range(n_ranks)]


def _ring_reduce_scatter_over_group(
    my_idx: int,
    group: Sequence[int],
    chunks: List[np.ndarray],
    ctx: CollectiveContext,
    tag_base: int,
    send: Hop,
    receive: Hop,
):
    """The ring reduce-scatter schedule over an explicit rank group, reducing into ``chunks``.

    ``group`` lists the ranks in ring order and ``my_idx`` is this rank's
    position in it; on return ``chunks[my_idx]`` is fully reduced.  ``receive``
    yields the operand summed into the local chunk (hops: see
    :mod:`repro.collectives.context`).  The baseline, the ring and CPR-P2P
    allreduces and the topology-aware leader ring all run this one schedule.
    """
    size = len(group)
    left = group[(my_idx - 1) % size]
    right = group[(my_idx + 1) % size]
    for step in range(size - 1):
        send_index = (my_idx - step - 1) % size
        recv_index = (my_idx - step - 2) % size
        data, nbytes = yield from send(chunks[send_index])
        tag = tag_base + step
        recv_req = yield Irecv(source=left, tag=tag)
        send_req = yield Isend(dest=right, data=data, nbytes=nbytes, tag=tag)
        received, _ = yield Waitall([recv_req, send_req], category=CAT_WAIT)
        incoming = yield from receive(received)
        chunks[recv_index] = chunks[recv_index] + incoming  # out-of-place: sent buffers stay intact
        yield Compute(ctx.reduce_seconds(incoming), category=CAT_REDUCTION)
    return chunks


def ring_reduce_scatter_program(
    rank: int,
    size: int,
    my_vector: np.ndarray,
    ctx: CollectiveContext,
):
    """Rank program for the ring reduce-scatter; returns the rank's reduced chunk."""
    chunks = partition_chunks(my_vector, size)
    receive = ctx.copied(CAT_MEMCPY)  # stage each received chunk before reducing it
    yield from _ring_reduce_scatter_over_group(
        rank, range(size), chunks, ctx, 0, ctx.sent_as_is, receive
    )
    return chunks[rank]


def _plan_ring_reduce_scatter(inputs, n_ranks: int, ctx: CollectiveContext) -> CollectivePlan:
    """Plan the ring reduce-scatter; rank ``r``'s result is reduced chunk ``r``."""
    vectors = as_rank_arrays(inputs, n_ranks)
    return CollectivePlan(
        lambda rank, size: ring_reduce_scatter_program(rank, size, vectors[rank], ctx)
    )

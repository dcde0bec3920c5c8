"""Ring reduce-scatter (the baseline algorithm of Figure 4, without compression).

Every rank starts with a full-length vector split into ``N`` chunks; after
``N - 1`` rounds rank ``r`` owns the fully reduced chunk ``r``.  In round ``i``
rank ``r`` sends its running partial sum for chunk ``(r - i - 1) mod N`` to the
right neighbour and receives the partial sum for chunk ``(r - i - 2) mod N``
from the left neighbour, reducing it into its local copy.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan, as_rank_arrays
from repro.mpisim.commands import Compute, Irecv, Isend, Waitall
from repro.mpisim.timeline import CAT_MEMCPY, CAT_REDUCTION, CAT_WAIT
from repro.utils.chunking import split_counts, split_displacements

__all__ = ["ring_reduce_scatter_program", "partition_chunks"]


def partition_chunks(vector: np.ndarray, n_ranks: int) -> List[np.ndarray]:
    """Split a flat vector into the ``n_ranks`` chunks used by the ring algorithms."""
    counts = split_counts(vector.size, n_ranks)
    displs = split_displacements(counts)
    return [vector[displs[i] : displs[i] + counts[i]].copy() for i in range(n_ranks)]


def ring_reduce_scatter_program(
    rank: int,
    size: int,
    my_vector: np.ndarray,
    ctx: CollectiveContext,
    wait_category: str = CAT_WAIT,
    copy_category: str = CAT_MEMCPY,
    reduce_category: str = CAT_REDUCTION,
):
    """Rank program for the ring reduce-scatter; returns the rank's reduced chunk."""
    chunks = partition_chunks(my_vector, size)
    if size == 1:
        return chunks[0]

    left = (rank - 1) % size
    right = (rank + 1) % size
    for step in range(size - 1):
        send_index = (rank - step - 1) % size
        recv_index = (rank - step - 2) % size
        outgoing = chunks[send_index]
        recv_req = yield Irecv(source=left, tag=step)
        send_req = yield Isend(
            dest=right, data=outgoing, nbytes=ctx.vbytes(outgoing), tag=step
        )
        received, _ = yield Waitall([recv_req, send_req], category=wait_category)
        # stage the received chunk, then reduce it into the local partial sum
        yield Compute(ctx.memcpy_seconds(received), category=copy_category)
        chunks[recv_index] = chunks[recv_index] + received  # out-of-place: sent buffers stay intact
        yield Compute(ctx.reduce_seconds(received), category=reduce_category)
    return chunks[rank]


def _plan_ring_reduce_scatter(inputs, n_ranks: int, ctx: CollectiveContext) -> CollectivePlan:
    """Plan the ring reduce-scatter; rank ``r``'s result is reduced chunk ``r``."""
    vectors = as_rank_arrays(inputs, n_ranks)
    return CollectivePlan(
        lambda rank, size: ring_reduce_scatter_program(rank, size, vectors[rank], ctx)
    )

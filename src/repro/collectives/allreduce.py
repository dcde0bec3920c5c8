"""Ring allreduce (reduce-scatter + allgather), the paper's main baseline (AD).

The ring allreduce moves ``2 (N-1)/N * D`` bytes per rank for a ``D``-byte
vector, which is bandwidth-optimal and the reason the paper (Section III-E)
uses it for long messages.  The time breakdown labels match Figure 7:
reduce-scatter waits are "Wait", its copies "Memcpy", its reductions
"Reduction", the whole allgather stage is "Allgather", and buffer management
is "Others".
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan, as_rank_arrays
from repro.collectives.reduce_scatter import partition_chunks
from repro.mpisim.commands import Compute, Irecv, Isend, Waitall
from repro.mpisim.timeline import CAT_ALLGATHER, CAT_MEMCPY, CAT_OTHERS, CAT_REDUCTION, CAT_WAIT

__all__ = ["ring_allreduce_over_group", "ring_allreduce_program"]


def ring_allreduce_over_group(
    my_idx: int,
    group: List[int],
    my_vector: np.ndarray,
    ctx: CollectiveContext,
    tag_base: int = 0,
):
    """Ring allreduce (reduce-scatter + allgather) over an explicit rank group.

    ``group`` lists the participating global ranks in ring order and
    ``my_idx`` is this rank's position in it.  This is the single ring
    implementation: the flat baseline runs it over ``range(size)`` and the
    hierarchical allreduce over the node leaders.
    """
    size = len(group)
    chunks = partition_chunks(my_vector, size)
    if size == 1:
        return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]

    left = group[(my_idx - 1) % size]
    right = group[(my_idx + 1) % size]

    # ---------------------------------------------------------- reduce-scatter
    for step in range(size - 1):
        send_index = (my_idx - step - 1) % size
        recv_index = (my_idx - step - 2) % size
        outgoing = chunks[send_index]
        tag = tag_base + step
        recv_req = yield Irecv(source=left, tag=tag)
        send_req = yield Isend(
            dest=right, data=outgoing, nbytes=ctx.vbytes(outgoing), tag=tag
        )
        received, _ = yield Waitall([recv_req, send_req], category=CAT_WAIT)
        yield Compute(ctx.memcpy_seconds(received), category=CAT_MEMCPY)
        chunks[recv_index] = chunks[recv_index] + received
        yield Compute(ctx.reduce_seconds(received), category=CAT_REDUCTION)

    # ------------------------------------------------------------- allgather
    send_index = my_idx
    for step in range(size - 1):
        recv_index = (my_idx - step - 1) % size
        outgoing = chunks[send_index]
        tag = tag_base + size + step
        recv_req = yield Irecv(source=left, tag=tag)
        send_req = yield Isend(
            dest=right, data=outgoing, nbytes=ctx.vbytes(outgoing), tag=tag
        )
        received, _ = yield Waitall([recv_req, send_req], category=CAT_ALLGATHER)
        chunks[recv_index] = received
        yield Compute(ctx.memcpy_seconds(received), category=CAT_ALLGATHER)
        send_index = recv_index

    return np.concatenate(chunks)


def ring_allreduce_program(
    rank: int,
    size: int,
    my_vector: np.ndarray,
    ctx: CollectiveContext,
):
    """Rank program for the uncompressed ring allreduce; returns the reduced vector."""
    if size == 1:
        chunks = partition_chunks(my_vector, size)
        return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]

    # working buffers for the whole collective ("Others" in Figure 7)
    yield Compute(ctx.alloc_seconds(my_vector), category=CAT_OTHERS)
    result = yield from ring_allreduce_over_group(rank, list(range(size)), my_vector, ctx)
    return result


def _plan_ring_allreduce(inputs, n_ranks: int, ctx: CollectiveContext) -> CollectivePlan:
    """Plan the uncompressed ring allreduce (the paper's AD baseline)."""
    vectors = as_rank_arrays(inputs, n_ranks)
    return CollectivePlan(
        lambda rank, size: ring_allreduce_program(rank, size, vectors[rank], ctx),
        algorithm="ring",
    )

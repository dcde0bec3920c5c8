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
from repro.collectives.allgather import _ring_allgather_over_group
from repro.collectives.reduce_scatter import partition_chunks, _ring_reduce_scatter_over_group
from repro.mpisim.commands import Compute
from repro.mpisim.timeline import CAT_ALLGATHER, CAT_MEMCPY, CAT_OTHERS

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
    send = ctx.sent_as_is
    yield from _ring_reduce_scatter_over_group(
        my_idx, group, chunks, ctx, tag_base, send, ctx.copied(CAT_MEMCPY)
    )
    yield from _ring_allgather_over_group(
        my_idx, group, chunks, tag_base + size, CAT_ALLGATHER, send, ctx.copied(CAT_ALLGATHER)
    )
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

"""Binomial-tree reduce (SUM) to a root rank.

Partial sums flow up a binomial tree; the root ends up with the element-wise
sum of every rank's vector.  This is the collective behind the image-stacking
use case when only the root needs the stacked image.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan, as_rank_arrays
from repro.mpisim.commands import Compute, Irecv, Isend, Wait
from repro.mpisim.timeline import CAT_REDUCTION, CAT_WAIT

__all__ = ["binomial_reduce_program"]


def binomial_reduce_program(
    rank: int,
    size: int,
    my_vector: np.ndarray,
    ctx: CollectiveContext,
    root: int = 0,
    wait_category: str = CAT_WAIT,
):
    """Rank program for the binomial reduce; the root returns the sum, others None."""
    relative = (rank - root) % size
    accumulator = my_vector
    if size == 1:
        return accumulator

    mask = 1
    while mask < size:
        if relative & mask:
            parent = (relative - mask + root) % size
            req = yield Isend(
                dest=parent, data=accumulator, nbytes=ctx.vbytes(accumulator), tag=0
            )
            yield Wait(req, category=wait_category)
            return None
        child = relative + mask
        if child < size:
            source = (child + root) % size
            req = yield Irecv(source=source, tag=0)
            incoming = yield Wait(req, category=wait_category)
            accumulator = accumulator + incoming
            yield Compute(ctx.reduce_seconds(incoming), category=CAT_REDUCTION)
        mask <<= 1
    return accumulator


def _plan_binomial_reduce(
    inputs, n_ranks: int, ctx: CollectiveContext, root: int = 0
) -> CollectivePlan:
    """Plan a sum of one vector per rank onto ``root``."""
    vectors = as_rank_arrays(inputs, n_ranks)
    return CollectivePlan(
        lambda rank, size: binomial_reduce_program(rank, size, vectors[rank], ctx, root=root)
    )

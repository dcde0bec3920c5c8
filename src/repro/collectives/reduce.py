"""Binomial-tree reduce (SUM) to a root rank.

Partial sums flow up a binomial tree; the root ends up with the element-wise
sum of every rank's vector.  This is the collective behind the image-stacking
use case when only the root needs the stacked image.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan, as_rank_arrays
from repro.collectives.hierarchical import _group_binomial_reduce

__all__ = ["binomial_reduce_program"]


def binomial_reduce_program(
    rank: int,
    size: int,
    my_vector: np.ndarray,
    ctx: CollectiveContext,
    root: int = 0,
):
    """Rank program for the binomial reduce; the root returns the sum, others None."""
    group = [(index + root) % size for index in range(size)]
    total = yield from _group_binomial_reduce((rank - root) % size, group, my_vector, ctx, tag=0)
    return total if rank == root else None


def _plan_binomial_reduce(
    inputs, n_ranks: int, ctx: CollectiveContext, root: int = 0
) -> CollectivePlan:
    """Plan a sum of one vector per rank onto ``root``."""
    vectors = as_rank_arrays(inputs, n_ranks)
    return CollectivePlan(
        lambda rank, size: binomial_reduce_program(rank, size, vectors[rank], ctx, root=root)
    )

"""Binomial-tree broadcast (the baseline of Figure 3, without compression).

This is the algorithm MPICH uses for broadcast: ``log2(N)`` rounds in which
each rank that already holds the data forwards it to a rank that does not.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan, _flat_float_array
from repro.collectives.hierarchical import _group_binomial_bcast

__all__ = ["binomial_bcast_program"]


def binomial_bcast_program(
    rank: int,
    size: int,
    data: Optional[np.ndarray],
    ctx: CollectiveContext,
    root: int = 0,
):
    """Rank program for the binomial broadcast; every rank returns the data."""
    group = [(index + root) % size for index in range(size)]
    buffer = data if rank == root else None
    return (yield from _group_binomial_bcast((rank - root) % size, group, buffer, ctx, tag=0))


def _plan_binomial_bcast(
    data: np.ndarray, n_ranks: int, ctx: CollectiveContext, root: int = 0
) -> CollectivePlan:
    """Plan a broadcast of ``data`` from ``root``; every rank's result is the full buffer."""
    data = _flat_float_array(data, "bcast data")
    return CollectivePlan(
        lambda rank, size: binomial_bcast_program(
            rank, size, data if rank == root else None, ctx, root=root
        )
    )

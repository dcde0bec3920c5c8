"""Binomial-tree broadcast (the baseline of Figure 3, without compression).

This is the algorithm MPICH uses for broadcast: ``log2(N)`` rounds in which
each rank that already holds the data forwards it to a rank that does not.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan
from repro.mpisim.commands import Compute, Irecv, Isend, Wait
from repro.mpisim.timeline import CAT_MEMCPY, CAT_WAIT

__all__ = ["binomial_bcast_program"]


def binomial_bcast_program(
    rank: int,
    size: int,
    data: Optional[np.ndarray],
    ctx: CollectiveContext,
    root: int = 0,
    wait_category: str = CAT_WAIT,
):
    """Rank program for the binomial broadcast; every rank returns the data."""
    if size == 1:
        return data

    relative = (rank - root) % size
    buffer = data if rank == root else None

    # receive phase: find the bit at which this rank gets the data
    mask = 1
    while mask < size:
        if relative & mask:
            source = (relative - mask + root) % size
            req = yield Irecv(source=source, tag=0)
            buffer = yield Wait(req, category=wait_category)
            yield Compute(ctx.memcpy_seconds(buffer), category=CAT_MEMCPY)
            break
        mask <<= 1

    # send phase: forward to the sub-tree below this rank
    mask >>= 1
    while mask > 0:
        if relative + mask < size:
            dest = (relative + mask + root) % size
            req = yield Isend(dest=dest, data=buffer, nbytes=ctx.vbytes(buffer), tag=0)
            yield Wait(req, category=wait_category)
        mask >>= 1

    return buffer


def _plan_binomial_bcast(
    data: np.ndarray, n_ranks: int, ctx: CollectiveContext, root: int = 0
) -> CollectivePlan:
    """Plan a broadcast of ``data`` from ``root``; every rank's result is the full buffer."""
    data = np.ascontiguousarray(data).reshape(-1)
    return CollectivePlan(
        lambda rank, size: binomial_bcast_program(
            rank, size, data if rank == root else None, ctx, root=root
        )
    )

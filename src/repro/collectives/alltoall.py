"""Pairwise-exchange all-to-all.

Rank ``r`` holds one block destined for every other rank; after ``N - 1``
exchange steps (in step ``i`` rank ``r`` sends to ``(r + i) mod N`` and
receives from ``(r - i) mod N``) every rank holds the blocks addressed to it.
This is the algorithm MPICH uses for long messages.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan
from repro.mpisim.commands import Compute, Irecv, Isend, Waitall
from repro.mpisim.timeline import CAT_MEMCPY, CAT_WAIT

__all__ = ["pairwise_alltoall_program"]


def pairwise_alltoall_program(
    rank: int,
    size: int,
    my_blocks: List[np.ndarray],
    ctx: CollectiveContext,
):
    """Rank program for the pairwise all-to-all.

    ``my_blocks[d]`` is the block this rank sends to rank ``d``; the result is
    the list of blocks received from every rank (own block included).
    """
    received: List[Optional[np.ndarray]] = [None] * size
    received[rank] = my_blocks[rank]
    yield Compute(ctx.memcpy_seconds(my_blocks[rank]), category=CAT_MEMCPY)

    for step in range(1, size):
        dest = (rank + step) % size
        source = (rank - step) % size
        recv_req = yield Irecv(source=source, tag=step)
        send_req = yield Isend(
            dest=dest, data=my_blocks[dest], nbytes=ctx.vbytes(my_blocks[dest]), tag=step
        )
        incoming, _ = yield Waitall([recv_req, send_req], category=CAT_WAIT)
        received[source] = incoming
        yield Compute(ctx.memcpy_seconds(incoming), category=CAT_MEMCPY)
    return received


def _plan_pairwise_alltoall(
    inputs: List[List[np.ndarray]], n_ranks: int, ctx: CollectiveContext
) -> CollectivePlan:
    """Plan the pairwise all-to-all.

    ``inputs[r][d]`` is the block rank ``r`` sends to rank ``d``; rank ``r``'s
    result is ``[inputs[0][r], inputs[1][r], ...]``.
    """
    if len(inputs) != n_ranks or any(len(row) != n_ranks for row in inputs):
        raise ValueError("inputs must be an n_ranks x n_ranks matrix of blocks")
    blocks = [[np.ascontiguousarray(b).reshape(-1) for b in row] for row in inputs]
    return CollectivePlan(
        lambda rank, size: pairwise_alltoall_program(rank, size, blocks[rank], ctx)
    )

"""Ring allgather (the baseline algorithm of Figure 2, without compression).

Every rank contributes one block; after ``N - 1`` rounds every rank holds all
``N`` blocks.  In round ``i`` rank ``r`` sends block ``(r - i) mod N`` to its
right neighbour and receives block ``(r - i - 1) mod N`` from its left
neighbour, so each block travels once around the ring.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan, as_rank_arrays
from repro.mpisim.commands import Compute, Irecv, Isend, Waitall
from repro.mpisim.timeline import CAT_ALLGATHER

__all__ = ["ring_allgather_program"]


def ring_allgather_program(
    rank: int,
    size: int,
    my_block: np.ndarray,
    ctx: CollectiveContext,
    wait_category: str = CAT_ALLGATHER,
    copy_category: str = CAT_ALLGATHER,
):
    """Rank program for the ring allgather; returns the list of all blocks."""
    blocks: List[Optional[np.ndarray]] = [None] * size
    blocks[rank] = my_block
    if size == 1:
        return blocks

    left = (rank - 1) % size
    right = (rank + 1) % size
    send_index = rank
    for step in range(size - 1):
        recv_index = (rank - step - 1) % size
        recv_req = yield Irecv(source=left, tag=step)
        send_req = yield Isend(
            dest=right,
            data=blocks[send_index],
            nbytes=ctx.vbytes(blocks[send_index]),
            tag=step,
        )
        received, _ = yield Waitall([recv_req, send_req], category=wait_category)
        blocks[recv_index] = received
        # copy the received block into the gathered output buffer
        yield Compute(ctx.memcpy_seconds(received), category=copy_category)
        send_index = recv_index
    return blocks


def _plan_ring_allgather(inputs, n_ranks: int, ctx: CollectiveContext) -> CollectivePlan:
    """Plan the ring allgather.

    ``inputs`` holds one block per rank; every rank's result is the list of
    all blocks in rank order.
    """
    blocks = as_rank_arrays(inputs, n_ranks)
    return CollectivePlan(
        lambda rank, size: ring_allgather_program(rank, size, blocks[rank], ctx)
    )

"""Ring allgather (the baseline algorithm of Figure 2, without compression).

Every rank contributes one block; after ``N - 1`` rounds every rank holds all
``N`` blocks.  In round ``i`` rank ``r`` sends block ``(r - i) mod N`` to its
right neighbour and receives block ``(r - i - 1) mod N`` from its left
neighbour, so each block travels once around the ring.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan, Hop, as_rank_arrays
from repro.mpisim.commands import Irecv, Isend, Waitall
from repro.mpisim.timeline import CAT_ALLGATHER

__all__ = ["ring_allgather_program"]


def _ring_allgather_over_group(
    my_idx: int,
    group: Sequence[int],
    blocks: List[Any],
    tag_base: int,
    category: str,
    send: Hop,
    receive: Hop,
):
    """The ring allgather schedule over an explicit rank group, filling ``blocks``.

    ``group`` lists the ranks in ring order, ``my_idx`` is this rank's position
    in it and ``blocks[my_idx]`` its own block; on return ``blocks`` holds what
    ``receive`` kept of every other one, and the waits are charged to
    ``category`` (hops: see :mod:`repro.collectives.context`).  The baseline,
    the ring allreduce, C-Allgather, its size exchange and the CPR-P2P
    allgather all run this one schedule.
    """
    size = len(group)
    left = group[(my_idx - 1) % size]
    right = group[(my_idx + 1) % size]
    send_index = my_idx
    for step in range(size - 1):
        recv_index = (my_idx - step - 1) % size
        data, nbytes = yield from send(blocks[send_index])
        tag = tag_base + step
        recv_req = yield Irecv(source=left, tag=tag)
        send_req = yield Isend(dest=right, data=data, nbytes=nbytes, tag=tag)
        received, _ = yield Waitall([recv_req, send_req], category=category)
        blocks[recv_index] = yield from receive(received)
        send_index = recv_index
    return blocks


def ring_allgather_program(
    rank: int,
    size: int,
    my_block: np.ndarray,
    ctx: CollectiveContext,
):
    """Rank program for the ring allgather; returns the list of all blocks."""
    blocks: List[Optional[np.ndarray]] = [None] * size
    blocks[rank] = my_block
    receive = ctx.copied(CAT_ALLGATHER)  # into the gathered output buffer
    return (
        yield from _ring_allgather_over_group(
            rank, range(size), blocks, 0, CAT_ALLGATHER, ctx.sent_as_is, receive
        )
    )


def _plan_ring_allgather(inputs, n_ranks: int, ctx: CollectiveContext) -> CollectivePlan:
    """Plan the ring allgather.

    ``inputs`` holds one block per rank; every rank's result is the list of
    all blocks in rank order.
    """
    blocks = as_rank_arrays(inputs, n_ranks)
    return CollectivePlan(
        lambda rank, size: ring_allgather_program(rank, size, blocks[rank], ctx)
    )

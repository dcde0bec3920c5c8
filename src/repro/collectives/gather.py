"""Binomial-tree gather (the mirror image of the binomial scatter).

Each rank contributes one block; blocks flow up a binomial tree and the root
ends up with all of them in rank order.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan, as_rank_arrays
from repro.mpisim.commands import Compute, Irecv, Isend, Wait
from repro.mpisim.timeline import CAT_MEMCPY, CAT_WAIT

__all__ = ["binomial_gather_program"]


def binomial_gather_program(
    rank: int,
    size: int,
    my_block: np.ndarray,
    ctx: CollectiveContext,
    root: int = 0,
):
    """Rank program for the binomial gather.

    The root returns the list of all blocks in absolute rank order; every
    other rank returns ``None``.
    """
    relative = (rank - root) % size
    # collected maps relative rank -> block for the sub-tree rooted here
    collected: Dict[int, np.ndarray] = {relative: my_block}
    if size == 1:
        return [my_block]

    # receive from children (low bits first), then send to the parent
    mask = 1
    while mask < size:
        if relative & mask:
            parent = (relative - mask + root) % size
            nbytes = sum(ctx.vbytes(b) for b in collected.values())
            req = yield Isend(dest=parent, data=dict(collected), nbytes=nbytes, tag=0)
            yield Wait(req, category=CAT_WAIT)
            return None
        child = relative + mask
        if child < size:
            source = (child + root) % size
            req = yield Irecv(source=source, tag=0)
            incoming = yield Wait(req, category=CAT_WAIT)
            yield Compute(
                ctx.cost.memcpy_seconds(sum(ctx.vbytes(b) for b in incoming.values())),
                category=CAT_MEMCPY,
            )
            collected.update(incoming)
        mask <<= 1

    # only the root reaches this point; collected is keyed by relative rank
    return [collected[(r - root) % size] for r in range(size)]


def _plan_binomial_gather(
    inputs, n_ranks: int, ctx: CollectiveContext, root: int = 0
) -> CollectivePlan:
    """Plan a gather of one block per rank to ``root``."""
    blocks = as_rank_arrays(inputs, n_ranks)
    return CollectivePlan(
        lambda rank, size: binomial_gather_program(rank, size, blocks[rank], ctx, root=root)
    )

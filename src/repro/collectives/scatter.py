"""Binomial-tree scatter (the MPICH algorithm used by the paper's C-Scatter baseline).

The root owns one block per rank; segments of blocks travel down a binomial
tree so that every rank ends up with exactly its own block after ``log2(N)``
rounds.  Intermediate ranks receive the blocks for their whole sub-tree and
forward the halves that belong to their children.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan, as_rank_arrays
from repro.mpisim.commands import Compute, Irecv, Isend, Wait
from repro.mpisim.timeline import CAT_MEMCPY, CAT_WAIT

__all__ = ["binomial_scatter_program"]


def _segment_nbytes(blocks: List[np.ndarray], ctx: CollectiveContext) -> int:
    return sum(ctx.vbytes(b) for b in blocks)


def binomial_scatter_program(
    rank: int,
    size: int,
    root_blocks: Optional[List[np.ndarray]],
    ctx: CollectiveContext,
    root: int = 0,
):
    """Rank program for the binomial scatter; every rank returns its own block.

    ``root_blocks`` is the per-rank block list (indexed by *relative* rank) on
    the root and ``None`` elsewhere.
    """
    relative = (rank - root) % size
    if size == 1:
        return root_blocks[0]

    # segment[i] will hold the block for relative rank `relative + i`
    segment: Optional[List[np.ndarray]] = None
    if rank == root:
        segment = list(root_blocks)

    # receive phase
    mask = 1
    while mask < size:
        if relative & mask:
            source = (relative - mask + root) % size
            req = yield Irecv(source=source, tag=0)
            segment = yield Wait(req, category=CAT_WAIT)
            segment = list(segment)
            yield Compute(
                ctx.cost.memcpy_seconds(_segment_nbytes(segment, ctx)), category=CAT_MEMCPY
            )
            break
        mask <<= 1

    # send phase: pass the upper half of the segment to each child
    mask >>= 1
    while mask > 0:
        if relative + mask < size:
            dest = (relative + mask + root) % size
            child_count = min(mask, size - (relative + mask))
            child_segment = segment[mask : mask + child_count]
            req = yield Isend(
                dest=dest,
                data=child_segment,
                nbytes=_segment_nbytes(child_segment, ctx),
                tag=0,
            )
            yield Wait(req, category=CAT_WAIT)
            segment = segment[:mask]
        mask >>= 1

    return segment[0]


def _plan_binomial_scatter(
    inputs, n_ranks: int, ctx: CollectiveContext, root: int = 0
) -> CollectivePlan:
    """Plan a scatter of one block per rank from ``root``.

    ``inputs`` holds the block for each (absolute) rank; rank ``r``'s result is
    ``inputs[r]``.
    """
    blocks = as_rank_arrays(inputs, n_ranks)
    # the root keeps its block list in relative-rank order
    relative_blocks = [blocks[(root + i) % n_ranks] for i in range(n_ranks)]
    return CollectivePlan(
        lambda rank, size: binomial_scatter_program(
            rank, size, relative_blocks if rank == root else None, ctx, root=root
        )
    )

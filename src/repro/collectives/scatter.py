"""Binomial-tree scatter (the MPICH algorithm used by the paper's C-Scatter baseline).

The root owns one block per rank; segments of blocks travel down a binomial
tree so that every rank ends up with exactly its own block after ``log2(N)``
rounds.  Intermediate ranks receive the blocks for their whole sub-tree and
forward the halves that belong to their children.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan, Hop, as_rank_arrays
from repro.mpisim.commands import Compute, Irecv, Isend, Wait
from repro.mpisim.timeline import CAT_MEMCPY, CAT_WAIT

__all__ = ["binomial_scatter_program"]


def _binomial_scatter_over_group(
    my_idx: int,
    group: Sequence[int],
    segment: Optional[list],
    send: Hop,
    receive: Hop,
):
    """The binomial-tree scatter schedule from ``group[0]``; returns this rank's own entry.

    ``segment[i]`` is the entry for position ``my_idx + i`` of ``group`` (the
    whole list on ``group[0]``, ``None`` elsewhere); the hops (see
    :mod:`repro.collectives.context`) act on the lists forwarded down the
    tree.  The baseline, C-Scatter and the CPR-P2P scatter all run this one
    schedule.
    """
    size = len(group)
    mask = 1
    while mask < size:
        if my_idx & mask:
            req = yield Irecv(source=group[my_idx - mask], tag=0)
            segment = yield from receive((yield Wait(req, category=CAT_WAIT)))
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if my_idx + mask < size:
            child_count = min(mask, size - (my_idx + mask))
            data, nbytes = yield from send(segment[mask : mask + child_count])
            req = yield Isend(dest=group[my_idx + mask], data=data, nbytes=nbytes, tag=0)
            yield Wait(req, category=CAT_WAIT)
            segment = segment[:mask]
        mask >>= 1
    return segment[0]


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

    def sent(blocks: List[np.ndarray]):
        yield from ()
        return blocks, sum(ctx.vbytes(b) for b in blocks)

    def copied(blocks: List[np.ndarray]):  # one memcpy of the whole segment
        nbytes = sum(ctx.vbytes(b) for b in blocks)
        yield Compute(ctx.cost.memcpy_seconds(nbytes), category=CAT_MEMCPY)
        return blocks

    group = [(index + root) % size for index in range(size)]
    segment = list(root_blocks) if rank == root else None
    return (
        yield from _binomial_scatter_over_group((rank - root) % size, group, segment, sent, copied)
    )


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

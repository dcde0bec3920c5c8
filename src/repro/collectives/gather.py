"""Binomial-tree gather (the mirror image of the binomial scatter).

Each rank contributes one block; blocks flow up a binomial tree and the root
ends up with all of them in rank order.  The binomial reduce runs the same
up-tree schedule with an add where the gather merges.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Sequence

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan, Hop, as_rank_arrays
from repro.mpisim.commands import Compute, Irecv, Isend, Wait
from repro.mpisim.timeline import CAT_MEMCPY, CAT_WAIT

__all__ = ["binomial_gather_program"]


def _binomial_gather_over_group(
    my_idx: int,
    group: Sequence[int],
    held: Any,
    tag: int,
    send: Hop,
    combine: Callable[[Any, Any], Generator],
):
    """The binomial up-tree schedule toward ``group[0]``; returns what this rank holds.

    The rank at position ``my_idx`` receives from its children (low bits
    first), folds each arrival in with the rank program ``combine(held,
    arrived) -> held``, then sends ``held`` to its parent through the
    ``send`` hop (see :mod:`repro.collectives.context`).
    """
    size = len(group)
    mask = 1
    while mask < size:
        if my_idx & mask:
            data, nbytes = yield from send(held)
            req = yield Isend(dest=group[my_idx - mask], data=data, nbytes=nbytes, tag=tag)
            yield Wait(req, category=CAT_WAIT)
            break
        if my_idx + mask < size:
            req = yield Irecv(source=group[my_idx + mask], tag=tag)
            held = yield from combine(held, (yield Wait(req, category=CAT_WAIT)))
        mask <<= 1
    return held


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
    if size == 1:
        return [my_block]

    def sent_copy(blocks: Dict[int, np.ndarray]):
        yield from ()
        return dict(blocks), sum(ctx.vbytes(b) for b in blocks.values())

    def merged(blocks: Dict[int, np.ndarray], incoming: Dict[int, np.ndarray]):
        nbytes = sum(ctx.vbytes(b) for b in incoming.values())
        yield Compute(ctx.cost.memcpy_seconds(nbytes), category=CAT_MEMCPY)
        blocks.update(incoming)
        return blocks

    # blocks are keyed by relative rank within the sub-tree rooted here
    relative = (rank - root) % size
    group = [(index + root) % size for index in range(size)]
    collected = yield from _binomial_gather_over_group(
        relative, group, {relative: my_block}, 0, sent_copy, merged
    )
    if relative:
        return None
    return [collected[(r - root) % size] for r in range(size)]


def _plan_binomial_gather(
    inputs, n_ranks: int, ctx: CollectiveContext, root: int = 0
) -> CollectivePlan:
    """Plan a gather of one block per rank to ``root``."""
    blocks = as_rank_arrays(inputs, n_ranks)
    return CollectivePlan(
        lambda rank, size: binomial_gather_program(rank, size, blocks[rank], ctx, root=root)
    )

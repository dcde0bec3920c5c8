"""Binomial-tree broadcast (the baseline of Figure 3, without compression).

This is the algorithm MPICH uses for broadcast: ``log2(N)`` rounds in which
each rank that already holds the data forwards it to a rank that does not.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan, Hop, _flat_float_array
from repro.mpisim.commands import Irecv, Isend, Wait
from repro.mpisim.timeline import CAT_MEMCPY, CAT_WAIT

__all__ = ["binomial_bcast_program"]


def _binomial_bcast_over_group(
    my_idx: int,
    group: Sequence[int],
    payload: Any,
    tag: int,
    send: Hop,
    receive: Hop,
):
    """The binomial-tree broadcast schedule of ``payload`` from ``group[0]``.

    ``my_idx`` is this rank's position in ``group``; returns what the rank
    holds at the end (hops: see :mod:`repro.collectives.context`).  The
    baseline, the hierarchical allreduce's stage 3, C-Bcast and the CPR-P2P
    broadcast all run this one schedule.
    """
    size = len(group)
    mask = 1
    while mask < size:
        if my_idx & mask:
            req = yield Irecv(source=group[my_idx - mask], tag=tag)
            payload = yield from receive((yield Wait(req, category=CAT_WAIT)))
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if my_idx + mask < size:
            data, nbytes = yield from send(payload)
            req = yield Isend(dest=group[my_idx + mask], data=data, nbytes=nbytes, tag=tag)
            yield Wait(req, category=CAT_WAIT)
        mask >>= 1
    return payload


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
    return (
        yield from _binomial_bcast_over_group(
            (rank - root) % size, group, buffer, 0, ctx.sent_as_is, ctx.copied(CAT_MEMCPY)
        )
    )


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

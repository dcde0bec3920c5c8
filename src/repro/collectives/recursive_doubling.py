"""Recursive-doubling allreduce (MPICH's short-message algorithm).

Every rank exchanges its full running sum with a partner at distance ``1, 2,
4, ...``; after ``log2(p)`` rounds all ranks hold the global sum.  The
algorithm is latency-optimal (``log2(p)`` rounds versus the ring's ``2(p-1)``)
but moves the full vector every round, so MPICH selects it only for short
messages — the regime :func:`repro.collectives.selection.select_algorithm`
reproduces.

Non-power-of-two communicators use the standard fold/unfold: the first
``2 * (p - pof2)`` ranks pair up, the even partner folds its vector into the
odd one and idles, the surviving ``pof2`` ranks run the doubling exchange, and
the result is copied back to the idle partners at the end.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan, as_rank_arrays
from repro.mpisim.commands import Compute, Irecv, Isend, Wait, Waitall
from repro.mpisim.timeline import CAT_MEMCPY, CAT_OTHERS, CAT_REDUCTION, CAT_WAIT

__all__ = ["recursive_doubling_allreduce_program"]


def largest_power_of_two_below(n: int) -> int:
    """Largest power of two that is <= ``n``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1 << (n.bit_length() - 1)


def fold_to_power_of_two(
    rank: int, size: int, vec: np.ndarray, ctx: CollectiveContext, tag: int
):
    """Fold ``size`` ranks onto the largest power of two below it.

    The first ``2 * (size - pof2)`` ranks pair up: the even one sends its
    vector to the odd one, which adds it to its own.  Returns ``(vec, newrank,
    real_rank)``: this rank's index among the ``pof2`` survivors (``-1`` if it
    was folded away) and the map from a survivor index back to its rank.
    """
    rem = size - largest_power_of_two_below(size)

    def real_rank(survivor: int) -> int:
        return survivor * 2 + 1 if survivor < rem else survivor + rem

    if rank >= 2 * rem:
        return vec, rank - rem, real_rank
    if rank % 2 == 0:
        req = yield Isend(dest=rank + 1, data=vec, nbytes=ctx.vbytes(vec), tag=tag)
        yield Wait(req, category=CAT_WAIT)
        return vec, -1, real_rank
    req = yield Irecv(source=rank - 1, tag=tag)
    received = yield Wait(req, category=CAT_WAIT)
    vec = vec + received
    yield Compute(ctx.reduce_seconds(received), category=CAT_REDUCTION)
    return vec, rank // 2, real_rank


def unfold_from_power_of_two(
    rank: int, size: int, vec: np.ndarray, ctx: CollectiveContext, tag: int
):
    """Undo :func:`fold_to_power_of_two`: every odd survivor of a folded pair
    hands the result back to its even partner.  Returns the result."""
    if rank < 2 * (size - largest_power_of_two_below(size)):
        if rank % 2 == 1:
            req = yield Isend(dest=rank - 1, data=vec, nbytes=ctx.vbytes(vec), tag=tag)
            yield Wait(req, category=CAT_WAIT)
        else:
            req = yield Irecv(source=rank + 1, tag=tag)
            vec = yield Wait(req, category=CAT_WAIT)
            yield Compute(ctx.memcpy_seconds(vec), category=CAT_MEMCPY)
    return vec


def recursive_doubling_allreduce_program(
    rank: int,
    size: int,
    my_vector: np.ndarray,
    ctx: CollectiveContext,
    tag_base: int = 0,
):
    """Rank program for the recursive-doubling allreduce; returns the global sum."""
    vec = np.ascontiguousarray(my_vector).reshape(-1)
    if size == 1:
        return vec.copy()

    yield Compute(ctx.alloc_seconds(vec), category=CAT_OTHERS)
    vec = vec.copy()

    pof2 = largest_power_of_two_below(size)
    vec, newrank, real_rank = yield from fold_to_power_of_two(rank, size, vec, ctx, tag_base)

    # doubling exchange among the pof2 survivors
    if newrank != -1:
        mask = 1
        while mask < pof2:
            dst = real_rank(newrank ^ mask)
            tag = tag_base + 1 + mask
            recv_req = yield Irecv(source=dst, tag=tag)
            send_req = yield Isend(dest=dst, data=vec, nbytes=ctx.vbytes(vec), tag=tag)
            received, _ = yield Waitall([recv_req, send_req], category=CAT_WAIT)
            vec = vec + received
            yield Compute(ctx.reduce_seconds(received), category=CAT_REDUCTION)
            mask <<= 1

    return (yield from unfold_from_power_of_two(rank, size, vec, ctx, tag_base + 1 + pof2))


def _plan_recursive_doubling_allreduce(
    inputs, n_ranks: int, ctx: CollectiveContext
) -> CollectivePlan:
    """Plan the recursive-doubling allreduce."""
    vectors = as_rank_arrays(inputs, n_ranks)
    return CollectivePlan(
        lambda rank, size: recursive_doubling_allreduce_program(rank, size, vectors[rank], ctx),
        algorithm="recursive_doubling",
    )

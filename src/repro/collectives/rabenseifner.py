"""Rabenseifner allreduce: recursive-halving reduce-scatter + recursive-doubling
allgather (MPICH's long-message algorithm).

The vector is block-partitioned into ``pof2`` segments.  The reduce-scatter
phase halves the working segment every round — partners exchange the half the
other will own and reduce the half they keep — so each round moves half the
data of the previous one (``~D`` bytes total versus the doubling exchange's
``D log2(p)``).  The allgather phase retraces the same pairs in reverse,
recomposing the full vector.  Both phases follow MPICH's index bookkeeping
(``send_idx`` / ``recv_idx`` / ``last_idx``) so the communication pattern is
the real one, and the fold/unfold trick handles non-power-of-two sizes.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.context import CollectiveContext, CollectivePlan, as_rank_arrays
from repro.collectives.recursive_doubling import (
    fold_to_power_of_two,
    largest_power_of_two_below,
    unfold_from_power_of_two,
)
from repro.mpisim.commands import Compute, Irecv, Isend, Waitall
from repro.mpisim.timeline import (
    CAT_ALLGATHER,
    CAT_MEMCPY,
    CAT_OTHERS,
    CAT_REDUCTION,
    CAT_WAIT,
)
from repro.utils.chunking import split_counts, split_displacements

__all__ = ["rabenseifner_allreduce_program"]


def rabenseifner_allreduce_program(
    rank: int,
    size: int,
    my_vector: np.ndarray,
    ctx: CollectiveContext,
    tag_base: int = 0,
):
    """Rank program for the Rabenseifner allreduce; returns the global sum."""
    buf = np.ascontiguousarray(my_vector).reshape(-1)
    if size == 1:
        return buf.copy()

    yield Compute(ctx.alloc_seconds(buf), category=CAT_OTHERS)
    buf = buf.copy()

    pof2 = largest_power_of_two_below(size)
    buf, newrank, real_rank = yield from fold_to_power_of_two(rank, size, buf, ctx, tag_base)

    if newrank != -1 and pof2 > 1:
        cnts = split_counts(buf.size, pof2)
        disps = split_displacements(cnts)

        # ------------------------------ reduce-scatter by recursive halving
        send_idx = recv_idx = 0
        last_idx = pof2
        mask = 1
        step = 0
        while mask < pof2:
            newdst = newrank ^ mask
            dst = real_rank(newdst)
            half = pof2 // (mask * 2)
            if newrank < newdst:
                send_idx = recv_idx + half
                send_cnt = sum(cnts[send_idx:last_idx])
                recv_cnt = sum(cnts[recv_idx:send_idx])
            else:
                recv_idx = send_idx + half
                send_cnt = sum(cnts[send_idx:recv_idx])
                recv_cnt = sum(cnts[recv_idx:last_idx])
            s0 = disps[send_idx]
            r0 = disps[recv_idx]
            # copy the outgoing half so later local updates cannot race the
            # (by-reference) in-flight payload
            outgoing = buf[s0 : s0 + send_cnt].copy()
            tag = tag_base + 1 + step
            recv_req = yield Irecv(source=dst, tag=tag)
            send_req = yield Isend(dest=dst, data=outgoing, nbytes=ctx.vbytes(outgoing), tag=tag)
            received, _ = yield Waitall([recv_req, send_req], category=CAT_WAIT)
            yield Compute(ctx.memcpy_seconds(received), category=CAT_MEMCPY)
            buf[r0 : r0 + recv_cnt] = buf[r0 : r0 + recv_cnt] + received
            yield Compute(ctx.reduce_seconds(received), category=CAT_REDUCTION)
            send_idx = recv_idx
            mask <<= 1
            step += 1
            if mask < pof2:
                last_idx = recv_idx + pof2 // mask

        # ------------------------------------ allgather by recursive doubling
        mask >>= 1
        while mask > 0:
            newdst = newrank ^ mask
            dst = real_rank(newdst)
            half = pof2 // (mask * 2)
            if newrank < newdst:
                if mask != pof2 // 2:
                    last_idx = last_idx + half
                recv_idx = send_idx + half
                send_cnt = sum(cnts[send_idx:recv_idx])
                recv_cnt = sum(cnts[recv_idx:last_idx])
            else:
                recv_idx = send_idx - half
                send_cnt = sum(cnts[send_idx:last_idx])
                recv_cnt = sum(cnts[recv_idx:send_idx])
            s0 = disps[send_idx]
            r0 = disps[recv_idx]
            outgoing = buf[s0 : s0 + send_cnt].copy()
            tag = tag_base + 1 + step
            recv_req = yield Irecv(source=dst, tag=tag)
            send_req = yield Isend(dest=dst, data=outgoing, nbytes=ctx.vbytes(outgoing), tag=tag)
            received, _ = yield Waitall([recv_req, send_req], category=CAT_ALLGATHER)
            buf[r0 : r0 + recv_cnt] = received
            yield Compute(ctx.memcpy_seconds(received), category=CAT_ALLGATHER)
            if newrank > newdst:
                send_idx = recv_idx
            mask >>= 1
            step += 1

    return (
        yield from unfold_from_power_of_two(rank, size, buf, ctx, tag_base + 1 + 2 * pof2)
    )


def _plan_rabenseifner_allreduce(inputs, n_ranks: int, ctx: CollectiveContext) -> CollectivePlan:
    """Plan the Rabenseifner (reduce-scatter + allgather) allreduce."""
    vectors = as_rank_arrays(inputs, n_ranks)
    return CollectivePlan(
        lambda rank, size: rabenseifner_allreduce_program(rank, size, vectors[rank], ctx),
        algorithm="rabenseifner",
    )

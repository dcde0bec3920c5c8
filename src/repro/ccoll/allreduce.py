"""C-Allreduce: the paper's flagship collective (Section III-E).

The ring allreduce is split into its two stages and each stage gets the
framework that fits it:

* the **reduce-scatter** stage uses the collective *computation* framework —
  per-round PIPE-SZx compression pipelined with the transfers
  (:mod:`repro.ccoll.computation`);
* the **allgather** stage uses the collective *data-movement* framework — the
  reduced chunk is compressed exactly once, the compressed chunks circulate
  around the ring with balanced sizes, and everything is decompressed only at
  the end (:mod:`repro.ccoll.movement`).

Running with ``overlap=False`` turns off the computation-framework pipelining
and yields the paper's intermediate "ND" (Novel Design) variant of Table V.
"""

from __future__ import annotations

import numpy as np

from repro.ccoll.adapter import CompressionAdapter, warm_ahead
from repro.ccoll.computation import c_reduce_scatter_program, ring_rounds, whole_step
from repro.ccoll.config import CCollConfig
from repro.ccoll.movement import _ccoll_finish, c_allgather_stage
from repro.collectives.context import CollectiveContext, CollectivePlan, as_rank_arrays

__all__ = ["c_allreduce_program"]

#: tag offset separating the allgather stage from the reduce-scatter stage
_AG_TAG_OFFSET = 1_000_000


def c_allreduce_program(
    rank: int,
    size: int,
    my_vector: np.ndarray,
    rs_adapter: CompressionAdapter,
    ag_adapter: CompressionAdapter,
    ctx: CollectiveContext,
    overlap: bool = True,
):
    """Rank program for C-Allreduce; returns the reconstructed reduced vector."""
    if size == 1:
        return np.ascontiguousarray(my_vector).reshape(-1)

    # stage 1: compression-pipelined ring reduce-scatter
    reduced_chunk = yield from c_reduce_scatter_program(
        rank, size, my_vector, rs_adapter, ctx, overlap=overlap
    )

    # stage 2: compress-once ring allgather of the reduced chunks
    blocks = yield from c_allgather_stage(
        rank, size, reduced_chunk, ag_adapter, ctx, tag_offset=_AG_TAG_OFFSET
    )
    return np.concatenate(blocks)


def _plan_c_allreduce(inputs, n_ranks: int, config: CCollConfig, overlap: bool) -> CollectivePlan:
    """Plan C-Allreduce (or its non-overlapped ND variant with ``overlap=False``).

    The flat ring schedule is kept whatever the fabric; use the topology-aware
    C-Allreduce (``Communicator.allreduce`` with ``compression="auto"``) for
    the placement-aware schedule that compresses inter-node hops only.
    """
    ctx = config.context()
    vectors = as_rank_arrays(inputs, n_ranks)
    rs_adapters = config.make_adapters(ctx, n_ranks, pipelined=True)
    ag_adapters = config.make_adapters(ctx, n_ranks)

    rounds = ring_rounds([[vector] for vector in vectors], rs_adapters, ag_adapters)
    warm_ahead(rs_adapters + ag_adapters, whole_step(rounds))
    return CollectivePlan(
        lambda rank, size: c_allreduce_program(
            rank, size, vectors[rank], rs_adapters[rank], ag_adapters[rank], ctx, overlap=overlap
        ),
        _ccoll_finish(rs_adapters + ag_adapters),
        algorithm="ring",
    )

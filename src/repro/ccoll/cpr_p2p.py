"""CPR-P2P baselines: compression bolted onto every point-to-point message.

This is the "direct integration" (DI) strategy the paper argues against and
the strategy used by the prior GPU work it compares with: every send
compresses its buffer right before transmission and every receive decompresses
right after arrival.  Consequences (all reproduced here):

* a chunk that travels ``k`` hops is compressed and decompressed ``k`` times,
  so the compression overhead scales with the number of rounds (Figures 2, 3
  and 7);
* the repeated lossy re-compression may accumulate error hop after hop: the
  guarantee is one error bound per hop
  (:func:`~repro.analysis.propagation.cpr_p2p_movement_bound`, hops x eb)
  where C-Coll's is one bound.  That is a worst case, not what SZx shows:
  re-compressing SZx's own reconstruction has not grown its max error in any
  run measured, and ``harness fig18 --scale small`` prints the same PSNR /
  NRMSE / max error for ``c-allreduce`` and ``cpr-szx`` at all three bounds
  (42.89 / 62.04 / 80.58 dB);
* every compression call allocates/frees working buffers, which the paper
  measures as a sizeable "Others" share for the direct SZx integration.

The module provides CPR-P2P variants of allreduce (the DI rung of Table V),
allgather, broadcast and scatter, each usable with SZx, ZFP(ABS) or ZFP(FXR)
via :class:`~repro.ccoll.config.CCollConfig`.  Each is the baseline's schedule
from :mod:`repro.collectives` (ring reduce-scatter, ring allgather, binomial
broadcast, binomial scatter) run with two hops: :func:`_compress_step` before
every send and :func:`_decompress_step` after every receive.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

import numpy as np

from repro.ccoll.adapter import CompressionAdapter
from repro.ccoll.config import CCollConfig
from repro.ccoll.movement import _ccoll_finish
from repro.collectives.allgather import _ring_allgather_over_group
from repro.collectives.bcast import _binomial_bcast_over_group
from repro.collectives.context import CollectiveContext, CollectivePlan, as_rank_arrays
from repro.collectives.reduce_scatter import _ring_reduce_scatter_over_group, partition_chunks
from repro.collectives.scatter import _binomial_scatter_over_group
from repro.mpisim.commands import Compute
from repro.mpisim.timeline import CAT_ALLGATHER, CAT_COMDECOM, CAT_MEMCPY, CAT_OTHERS

__all__ = [
    "cpr_allreduce_program",
    "cpr_allgather_program",
    "cpr_bcast_program",
    "cpr_scatter_program",
]


def _compress_step(adapter: CompressionAdapter, ctx: CollectiveContext, data: np.ndarray):
    """Send hop: compress ``data`` and yield the modelled compression + buffer-management
    time; returns the message and its modelled size."""
    message = adapter.compress(data)
    yield Compute(adapter.compress_seconds(message), category=CAT_COMDECOM)
    # CPR-P2P allocates and frees the compressor's output buffer on every call
    # (sized for the worst case, i.e. the uncompressed data) — the paper's
    # Figure 7 attributes the direct integration's large "Others" share to this.
    yield Compute(
        ctx.cost.compressor_buffer_seconds(message.original_virtual_nbytes),
        category=CAT_OTHERS,
    )
    return message, message.nbytes


def _decompress_step(adapter: CompressionAdapter, ctx: CollectiveContext, message):
    """Receive hop: decompress ``message`` and yield the modelled decompression + buffer time."""
    data = adapter.decompress(message)
    yield Compute(adapter.decompress_seconds(message), category=CAT_COMDECOM)
    # like the compression side, every CPR-P2P decompression call allocates and
    # frees a full-size output buffer (C-Coll reuses pre-allocated buffers instead)
    yield Compute(
        ctx.cost.compressor_buffer_seconds(message.original_virtual_nbytes),
        category=CAT_OTHERS,
    )
    return data


def _hops(adapter: CompressionAdapter, ctx: CollectiveContext):
    """The send and receive hops of one rank: compress every send, decompress every receive."""
    return partial(_compress_step, adapter, ctx), partial(_decompress_step, adapter, ctx)


def _decompress_then_copy(adapter: CompressionAdapter, ctx: CollectiveContext, message):
    """The reduce-scatter's receive hop: decompress, then stage the chunk for the reduction."""
    incoming = yield from _decompress_step(adapter, ctx, message)
    yield Compute(ctx.memcpy_seconds(incoming), category=CAT_MEMCPY)
    return incoming


def _compress_each(adapter: CompressionAdapter, ctx: CollectiveContext, blocks):
    """The scatter's send hop: one compression step per block of the forwarded segment."""
    messages = []
    for block in blocks:
        message, _ = yield from _compress_step(adapter, ctx, block)
        messages.append(message)
    return messages, sum(m.nbytes for m in messages)


def _decompress_each(adapter: CompressionAdapter, ctx: CollectiveContext, messages):
    """The scatter's receive hop: one decompression step per block of the segment."""
    blocks = []
    for message in messages:
        blocks.append((yield from _decompress_step(adapter, ctx, message)))
    return blocks


# -------------------------------------------------------------------------- allreduce


def cpr_allreduce_program(
    rank: int,
    size: int,
    my_vector: np.ndarray,
    adapter: CompressionAdapter,
    ctx: CollectiveContext,
):
    """Ring allreduce with CPR-P2P on every message (the DI variant of Table V)."""
    chunks = partition_chunks(my_vector, size)
    if size == 1:
        return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    yield Compute(ctx.alloc_seconds(my_vector), category=CAT_OTHERS)

    # reduce-scatter stage: compress before every send, decompress after every receive
    compress = partial(_compress_step, adapter, ctx)
    receive = partial(_decompress_then_copy, adapter, ctx)
    yield from _ring_reduce_scatter_over_group(rank, range(size), chunks, ctx, 0, compress, receive)

    # allgather stage: the same chunk is re-compressed at every hop, so the
    # compression error of earlier hops is compressed again (error accumulation)
    blocks = yield from cpr_allgather_program(rank, size, chunks[rank], adapter, ctx, size)
    return np.concatenate(blocks)


def _plan_cpr_allreduce(inputs, n_ranks: int, config: CCollConfig) -> CollectivePlan:
    """Plan the CPR-P2P (direct integration) ring allreduce."""
    ctx = config.context()
    vectors = as_rank_arrays(inputs, n_ranks)
    adapters = config.make_adapters(ctx, n_ranks)
    return CollectivePlan(
        lambda rank, size: cpr_allreduce_program(rank, size, vectors[rank], adapters[rank], ctx),
        _ccoll_finish(adapters),
        algorithm="ring",
    )


# -------------------------------------------------------------------------- allgather


def cpr_allgather_program(
    rank: int,
    size: int,
    my_block: np.ndarray,
    adapter: CompressionAdapter,
    ctx: CollectiveContext,
    tag_base: int,
):
    """Ring allgather with CPR-P2P: every hop re-compresses the forwarded block.

    Round ``i`` uses tag ``tag_base + i`` (the CPR-P2P allreduce runs this as
    its second stage, after the tags of its reduce-scatter rounds).
    """
    blocks: List[Optional[np.ndarray]] = [None] * size
    blocks[rank] = my_block
    return (
        yield from _ring_allgather_over_group(
            rank, range(size), blocks, tag_base, CAT_ALLGATHER, *_hops(adapter, ctx)
        )
    )


# ------------------------------------------------------------------------------ bcast


def cpr_bcast_program(
    rank: int,
    size: int,
    data: Optional[np.ndarray],
    adapter: CompressionAdapter,
    ctx: CollectiveContext,
    root: int = 0,
):
    """Binomial broadcast with CPR-P2P: every hop decompresses and re-compresses."""
    group = [(index + root) % size for index in range(size)]
    payload = data if rank == root else None
    return (
        yield from _binomial_bcast_over_group(
            (rank - root) % size, group, payload, 0, *_hops(adapter, ctx)
        )
    )


# ---------------------------------------------------------------------------- scatter


def cpr_scatter_program(
    rank: int,
    size: int,
    root_blocks: Optional[List[np.ndarray]],
    adapter: CompressionAdapter,
    ctx: CollectiveContext,
    root: int = 0,
):
    """Binomial scatter with CPR-P2P: segments are decompressed and re-compressed
    at every level of the tree."""
    group = [(index + root) % size for index in range(size)]
    segment = list(root_blocks) if rank == root else None
    send, receive = partial(_compress_each, adapter, ctx), partial(_decompress_each, adapter, ctx)
    return (
        yield from _binomial_scatter_over_group((rank - root) % size, group, segment, send, receive)
    )

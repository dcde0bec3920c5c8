"""CPR-P2P baselines: compression bolted onto every point-to-point message.

This is the "direct integration" (DI) strategy the paper argues against and
the strategy used by the prior GPU work it compares with: every send
compresses its buffer right before transmission and every receive decompresses
right after arrival.  Consequences (all reproduced here):

* a chunk that travels ``k`` hops is compressed and decompressed ``k`` times,
  so the compression overhead scales with the number of rounds (Figures 2, 3
  and 7);
* the repeated lossy re-compression accumulates error hop after hop, which is
  why the CPR-P2P stacking images in Figure 18 degrade while C-Coll stays at
  the single-compression error bound;
* every compression call allocates/frees working buffers, which the paper
  measures as a sizeable "Others" share for the direct SZx integration.

The module provides CPR-P2P variants of allreduce (the DI rung of Table V),
allgather, broadcast and scatter, each usable with SZx, ZFP(ABS) or ZFP(FXR)
via :class:`~repro.ccoll.config.CCollConfig`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ccoll.adapter import CompressionAdapter
from repro.ccoll.config import CCollConfig
from repro.ccoll.movement import _ccoll_finish
from repro.collectives.context import CollectiveContext, CollectivePlan, as_rank_arrays
from repro.collectives.reduce_scatter import partition_chunks
from repro.mpisim.commands import Compute, Irecv, Isend, Wait, Waitall
from repro.mpisim.timeline import (
    CAT_ALLGATHER,
    CAT_COMDECOM,
    CAT_MEMCPY,
    CAT_OTHERS,
    CAT_REDUCTION,
    CAT_WAIT,
)

__all__ = [
    "cpr_allreduce_program",
    "cpr_allgather_program",
    "cpr_bcast_program",
    "cpr_scatter_program",
]


def _compress_step(adapter: CompressionAdapter, ctx: CollectiveContext, data: np.ndarray):
    """Compress ``data`` and yield the modelled compression + buffer-management time."""
    message = adapter.compress(data)
    yield Compute(adapter.compress_seconds(message), category=CAT_COMDECOM)
    # CPR-P2P allocates and frees the compressor's output buffer on every call
    # (sized for the worst case, i.e. the uncompressed data) — the paper's
    # Figure 7 attributes the direct integration's large "Others" share to this.
    yield Compute(
        ctx.cost.compressor_buffer_seconds(message.original_virtual_nbytes),
        category=CAT_OTHERS,
    )
    return message


def _decompress_step(adapter: CompressionAdapter, ctx: CollectiveContext, message):
    """Decompress ``message`` and yield the modelled decompression + buffer time."""
    data = adapter.decompress(message)
    yield Compute(adapter.decompress_seconds(message), category=CAT_COMDECOM)
    # like the compression side, every CPR-P2P decompression call allocates and
    # frees a full-size output buffer (C-Coll reuses pre-allocated buffers instead)
    yield Compute(
        ctx.cost.compressor_buffer_seconds(message.original_virtual_nbytes),
        category=CAT_OTHERS,
    )
    return data


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

    left = (rank - 1) % size
    right = (rank + 1) % size
    yield Compute(ctx.alloc_seconds(my_vector), category=CAT_OTHERS)

    # reduce-scatter stage: compress before every send, decompress after every receive
    for step in range(size - 1):
        send_index = (rank - step - 1) % size
        recv_index = (rank - step - 2) % size
        outgoing_msg = yield from _compress_step(adapter, ctx, chunks[send_index])
        recv_req = yield Irecv(source=left, tag=step)
        send_req = yield Isend(
            dest=right, data=outgoing_msg, nbytes=outgoing_msg.nbytes, tag=step
        )
        received, _ = yield Waitall([recv_req, send_req], category=CAT_WAIT)
        incoming = yield from _decompress_step(adapter, ctx, received)
        yield Compute(ctx.memcpy_seconds(incoming), category=CAT_MEMCPY)
        chunks[recv_index] = chunks[recv_index] + incoming
        yield Compute(ctx.reduce_seconds(incoming), category=CAT_REDUCTION)

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
    if size == 1:
        return blocks

    left = (rank - 1) % size
    right = (rank + 1) % size
    send_index = rank
    for step in range(size - 1):
        recv_index = (rank - step - 1) % size
        outgoing_msg = yield from _compress_step(adapter, ctx, blocks[send_index])
        tag = tag_base + step
        recv_req = yield Irecv(source=left, tag=tag)
        send_req = yield Isend(dest=right, data=outgoing_msg, nbytes=outgoing_msg.nbytes, tag=tag)
        received, _ = yield Waitall([recv_req, send_req], category=CAT_ALLGATHER)
        blocks[recv_index] = yield from _decompress_step(adapter, ctx, received)
        send_index = recv_index
    return blocks


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
    if size == 1:
        return data

    relative = (rank - root) % size
    buffer = data if rank == root else None

    mask = 1
    while mask < size:
        if relative & mask:
            source = (relative - mask + root) % size
            req = yield Irecv(source=source, tag=0)
            message = yield Wait(req, category=CAT_WAIT)
            buffer = yield from _decompress_step(adapter, ctx, message)
            break
        mask <<= 1

    mask >>= 1
    while mask > 0:
        if relative + mask < size:
            dest = (relative + mask + root) % size
            message = yield from _compress_step(adapter, ctx, buffer)
            req = yield Isend(dest=dest, data=message, nbytes=message.nbytes, tag=0)
            yield Wait(req, category=CAT_WAIT)
        mask >>= 1

    return buffer


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
    relative = (rank - root) % size
    if size == 1:
        return root_blocks[0]

    segment: Optional[List[np.ndarray]] = None
    if rank == root:
        segment = list(root_blocks)

    mask = 1
    while mask < size:
        if relative & mask:
            source = (relative - mask + root) % size
            req = yield Irecv(source=source, tag=0)
            messages = yield Wait(req, category=CAT_WAIT)
            segment = []
            for message in messages:
                segment.append((yield from _decompress_step(adapter, ctx, message)))
            break
        mask <<= 1

    mask >>= 1
    while mask > 0:
        if relative + mask < size:
            dest = (relative + mask + root) % size
            child_count = min(mask, size - (relative + mask))
            child_blocks = segment[mask : mask + child_count]
            messages = []
            for block in child_blocks:
                messages.append((yield from _compress_step(adapter, ctx, block)))
            nbytes = sum(m.nbytes for m in messages)
            req = yield Isend(dest=dest, data=messages, nbytes=nbytes, tag=0)
            yield Wait(req, category=CAT_WAIT)
            segment = segment[:mask]
        mask >>= 1

    return segment[0]

"""C-Coll collective data-movement framework (Section III-A1).

The framework applies to collectives that only *move* data (allgather,
broadcast, scatter, gather, all-to-all).  Its two rules are:

1. **Compress once.**  Each data chunk is compressed exactly once at its
   source and decompressed exactly once at its final consumer(s); every
   intermediate hop forwards the *compressed* bytes untouched.  Compared with
   CPR-P2P this removes ``(rounds - 1)`` compressions per chunk and — just as
   important for accuracy — removes the repeated lossy re-compression that
   makes CPR-P2P's error grow with the number of hops.
2. **Known sizes up front.**  Because nothing is re-compressed, all compressed
   sizes are known after the initial compression; the ranks exchange them in a
   cheap (eager, 8-bytes-per-rank) synchronisation step so the subsequent
   intensive communication proceeds with a fixed, balanced pipeline.

This module implements the three collectives the paper evaluates on top of
the framework: C-Allgather (ring), C-Bcast (binomial tree) and C-Scatter
(binomial tree), each with a plan builder whose outcome also reports the
observed compression ratio.  None of them has a schedule of its own: each
compresses at the source, runs the baseline's schedule from
:mod:`repro.collectives` (ring allgather, binomial broadcast, binomial
scatter) with hops that forward the compressed bytes and keep what arrives,
and decompresses at the consumer.  The size exchange is the same ring
allgather with 8-byte hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.ccoll.adapter import (
    CompressedMessage,
    CompressionAdapter,
    warm_ahead,
    warm_round,
)
from repro.ccoll.config import CCollConfig
from repro.collectives.allgather import _ring_allgather_over_group
from repro.collectives.bcast import _binomial_bcast_over_group
from repro.collectives.context import (
    CollectiveContext,
    CollectiveOutcome,
    CollectivePlan,
    _flat_float_array,
    as_rank_arrays,
)
from repro.collectives.scatter import _binomial_scatter_over_group
from repro.mpisim.commands import Compute
from repro.mpisim.launcher import SimulationResult
from repro.mpisim.timeline import CAT_ALLGATHER, CAT_COMDECOM, CAT_OTHERS

__all__ = [
    "CCollOutcome",
    "exchange_sizes_program",
    "c_allgather_stage",
    "c_allgather_program",
    "c_bcast_program",
    "c_scatter_program",
]

#: tag offset separating the size-exchange round from the payload rounds
_SIZE_TAG = 10_000


@dataclass
class CCollOutcome(CollectiveOutcome):
    """Collective outcome extended with the observed compression ratio.

    ``inter_compressed`` records whether the topology-aware C-Allreduce
    decided to compress its inter-node hops on this fabric (``None`` for
    collectives that have no such decision to make).
    """

    compression_ratio: Optional[float] = None
    inter_compressed: Optional[bool] = None


def _ccoll_finish(
    adapters: Sequence[CompressionAdapter] = (),
    inter_compressed: Optional[bool] = None,
) -> Callable[[SimulationResult], CCollOutcome]:
    """A plan's ``finish`` reporting the mean compression ratio ``adapters`` observed."""

    def finish(sim: SimulationResult) -> CCollOutcome:
        ratios = [a.overall_ratio() for a in adapters if a.overall_ratio() is not None]
        return CCollOutcome(
            values=sim.rank_values,
            sim=sim,
            compression_ratio=float(np.mean(ratios)) if ratios else None,
            inter_compressed=inter_compressed,
        )

    return finish


# ------------------------------------------------------------------------------ hops
# What the compress-once framework does at every hop of the shared schedules:
# forward the compressed bytes at their modelled size and keep what arrives.


def _forwarded(message: CompressedMessage):
    yield from ()
    return message, message.nbytes


def _forwarded_list(messages: List[CompressedMessage]):
    yield from ()
    return messages, sum(m.nbytes for m in messages)


def _kept(received):
    yield from ()
    return received


def _size_sent(size: int):
    """The size exchange's send hop: one eager 8-byte message."""
    yield from ()
    return size, 8


def exchange_sizes_program(
    rank: int,
    size: int,
    my_size: int,
    tag_offset: int = 0,
    ring: Optional[List[int]] = None,
):
    """Ring exchange of the per-rank compressed sizes (cheap eager messages).

    This is the synchronisation step of the data-movement framework: every
    rank learns every other rank's compressed size so the payload pipeline is
    balanced.  Returns the list of sizes indexed by rank.

    When ``ring`` is given it maps ring positions to global ranks (``rank`` is
    then this rank's *position*), which lets subgroup collectives — e.g. the
    inter-node leader stage of the topology-aware C-Allreduce — reuse the
    exchange unchanged.  The returned list is then indexed by ring *position*,
    not by global rank.
    """
    sizes = [None] * size
    sizes[rank] = int(my_size)
    ring = range(size) if ring is None else ring
    return (
        yield from _ring_allgather_over_group(
            rank, ring, sizes, _SIZE_TAG + tag_offset, CAT_OTHERS, _size_sent, _kept
        )
    )


# --------------------------------------------------------------------------- allgather


def c_allgather_stage(
    rank: int,
    size: int,
    my_block: np.ndarray,
    adapter: CompressionAdapter,
    ctx: CollectiveContext,
    tag_offset: int = 0,
    ring: Optional[List[int]] = None,
):
    """The C-Allgather pipeline as a stage of a larger program.

    Ring allgather of compressed blocks, decompressed at the end.  The remote
    blocks it returns are *shared and read-only* (every rank of the ring gets
    the same arrays): the allreduces that run this as their second stage
    concatenate them into a buffer of their own; :func:`c_allgather_program`
    is the collective, whose ranks own what they return.

    With ``ring`` given (ring position -> global rank; ``rank`` is then this
    rank's position), the same compress-once pipeline runs over a subgroup —
    e.g. the inter-node leader stage of the topology-aware C-Allreduce.
    """
    if size == 1:
        return [my_block]

    # 1. compress the local block exactly once
    message = adapter.compress(my_block)
    yield Compute(adapter.compress_seconds(message), category=CAT_COMDECOM)

    # 2. exchange compressed sizes (fixed, balanced pipeline from here on)
    ring = range(size) if ring is None else ring
    yield from exchange_sizes_program(
        rank, size, message.real_nbytes, tag_offset=tag_offset, ring=ring
    )

    # 3. circulate the compressed blocks around the ring
    messages: List[Optional[CompressedMessage]] = [None] * size
    messages[rank] = message
    yield from _ring_allgather_over_group(
        rank, ring, messages, tag_offset, CAT_ALLGATHER, _forwarded, _kept
    )

    # 4. decompress everything received (the local block needs no
    # decompression).  Every rank is charged for every block, as on the real
    # machine; on the host all size - 1 receivers hold the same message
    # object and share the reconstruction it carries
    blocks: List[np.ndarray] = [None] * size
    blocks[rank] = my_block
    for index in range(size):
        if index == rank:
            continue
        blocks[index] = adapter.decompress_shared(messages[index])
        yield Compute(adapter.decompress_seconds(messages[index]), category=CAT_COMDECOM)
    return blocks


def c_allgather_program(
    rank: int,
    size: int,
    my_block: np.ndarray,
    adapter: CompressionAdapter,
    ctx: CollectiveContext,
    tag_offset: int = 0,
    ring: Optional[List[int]] = None,
):
    """C-Allgather: :func:`c_allgather_stage`, with every block the rank's own."""
    blocks = yield from c_allgather_stage(rank, size, my_block, adapter, ctx, tag_offset, ring)
    return [block if index == rank else block.copy() for index, block in enumerate(blocks)]


def _plan_compressed_allgather(
    program, inputs, n_ranks: int, config: CCollConfig
) -> CollectivePlan:
    """Plan a compressed ring allgather run by ``program`` (:func:`c_allgather_program`
    or its CPR-P2P twin); every rank's result is the list of all (reconstructed) blocks.

    C-Allgather compresses every block once, at its source: the first
    compression any rank asks for compresses all ``n`` in one codec call,
    queued with a copy of each block (the caller's arrays are not the queues'
    to freeze).
    """
    ctx = config.context()
    blocks = as_rank_arrays(inputs, n_ranks)
    adapters = config.make_adapters(ctx, n_ranks)
    if program is c_allgather_program:

        def warm():  # every block at the first compression
            warm_round([block.copy() for block in blocks], adapters)
            yield from ()

        warm_ahead(adapters, warm())
    return CollectivePlan(
        lambda rank, size: program(rank, size, blocks[rank], adapters[rank], ctx, 0),
        _ccoll_finish(adapters),
    )


# ----------------------------------------------------------------------------- bcast


def c_bcast_program(
    rank: int,
    size: int,
    data: Optional[np.ndarray],
    adapter: CompressionAdapter,
    ctx: CollectiveContext,
    root: int = 0,
):
    """C-Bcast: the root compresses once, the compressed buffer rides the binomial
    tree, and every non-root rank decompresses once after its last forward."""
    if size == 1:
        return data

    message: Optional[CompressedMessage] = None
    if rank == root:
        message = adapter.compress(data)
        yield Compute(adapter.compress_seconds(message), category=CAT_COMDECOM)

    # the *compressed* buffer rides the tree untouched
    group = [(index + root) % size for index in range(size)]
    message = yield from _binomial_bcast_over_group(
        (rank - root) % size, group, message, 0, _forwarded, _kept
    )

    if rank == root:
        return data
    # all size - 1 receivers hold the same message object; each is charged
    # for its own decode and returns a buffer of its own
    result = adapter.decompress(message)
    yield Compute(adapter.decompress_seconds(message), category=CAT_COMDECOM)
    return result


def _plan_compressed_bcast(
    program, data: np.ndarray, n_ranks: int, config: CCollConfig, root: int = 0
) -> CollectivePlan:
    """Plan a compressed binomial broadcast run by ``program`` (:func:`c_bcast_program`
    or its CPR-P2P twin); every rank's result is the (root-exact / reconstructed) buffer."""
    ctx = config.context()
    data = _flat_float_array(data, "bcast data")
    adapters = config.make_adapters(ctx, n_ranks)
    return CollectivePlan(
        lambda rank, size: program(
            rank, size, data if rank == root else None, adapters[rank], ctx, root=root
        ),
        _ccoll_finish(adapters),
    )


# --------------------------------------------------------------------------- scatter


def c_scatter_program(
    rank: int,
    size: int,
    root_blocks: Optional[List[np.ndarray]],
    adapter: CompressionAdapter,
    ctx: CollectiveContext,
    root: int = 0,
):
    """C-Scatter: the root compresses every block once; compressed segments ride the
    binomial tree; each rank decompresses only its own block at the very end."""
    if size == 1:
        return root_blocks[0]

    segment: Optional[List[CompressedMessage]] = None
    if rank == root:
        segment = []
        for block in root_blocks:
            message = adapter.compress(block)
            yield Compute(adapter.compress_seconds(message), category=CAT_COMDECOM)
            segment.append(message)

    # segments ride the tree still compressed
    group = [(index + root) % size for index in range(size)]
    own = yield from _binomial_scatter_over_group(
        (rank - root) % size, group, segment, _forwarded_list, _kept
    )
    if rank == root:
        return root_blocks[0]
    result = adapter.decompress(own)
    yield Compute(adapter.decompress_seconds(own), category=CAT_COMDECOM)
    return result


def _plan_compressed_scatter(
    program, inputs, n_ranks: int, config: CCollConfig, root: int = 0
) -> CollectivePlan:
    """Plan a compressed binomial scatter run by ``program`` (:func:`c_scatter_program`
    or its CPR-P2P twin); rank ``r``'s result is its (reconstructed) block ``inputs[r]``."""
    ctx = config.context()
    blocks = as_rank_arrays(inputs, n_ranks)
    relative_blocks = [blocks[(root + i) % n_ranks] for i in range(n_ranks)]
    adapters = config.make_adapters(ctx, n_ranks)
    return CollectivePlan(
        lambda rank, size: program(
            rank, size, relative_blocks if rank == root else None, adapters[rank], ctx, root=root
        ),
        _ccoll_finish(adapters),
    )

"""Topology-aware C-Allreduce: compress only the inter-node hops.

The paper's central trade — CPU lossy compression versus wire time — is only
worth taking on links slower than the compressor.  On a two-level topology the
intra-node links (shared-memory class, ~12 GB/s) are *faster* than SZx, so
compressing there would cost time and accuracy for nothing.  This variant is
therefore not a schedule of its own but a plug into the hierarchical skeleton
(:func:`repro.collectives.hierarchical.hierarchical_allreduce_program`:
intra-node binomial reduce to the node leader, allreduce among the leaders,
intra-node binomial bcast, the first and last uncompressed).  The skeleton
takes the leader stage — the only one crossing the inter-node fabric — as a
rank program, and this module supplies a compressed one,
:func:`_group_compressed_ring_allreduce`: the reduce-scatter half is the
shared ring reduce-scatter schedule with hops that compress each outgoing
chunk and decompress on arrival (one ``Compute`` each), and the allgather
half uses the paper's data-movement framework (compress the reduced chunk
once, forward compressed bytes, decompress only at the end).

Because only ``log-free`` inter-node hops see lossy compression, the error a
value accumulates is bounded by the reduce-scatter hop count among *nodes*
(``L - 1``) plus one allgather decompression, independent of how many ranks
share each node.

Compressing the inter-node hops is itself a bet against the wire: on the
calibrated 0.55 GB/s fabric it pays handsomely, but a rail-optimised or
non-oversubscribed next-generation fabric can outrun the compressor, in which
case the plan is the plain hierarchical allreduce (the skeleton with the
uncompressed leader ring).
:func:`select_inter_compression` (the gate behind
``Communicator.allreduce(compression="auto")``) compares the topology's
effective inter-node bandwidth (NIC rate tapered by the fabric's
oversubscription ratio — see
:meth:`repro.mpisim.topology.Topology.effective_inter_bandwidth`) against the
codec's break-even bandwidth
(:meth:`repro.perfmodel.costmodel.CostModel.codec_break_even_bandwidth`), so a
2:1-oversubscribed fat tree and a shared-uplink cluster at equal per-node NIC
rate can legitimately make *opposite* calls.

The leader ring is compressed one round per codec call, one round ahead
--------------------------------------------------------------------------
Like the flat C-Coll rings (see :mod:`repro.ccoll.adapter`), the leader
ring's values never depend on timing: a leader's node sum is the binomial
reduce of its node's inputs, and round ``k`` of leader ``i`` compresses a
chunk of that sum plus what round ``k - 1`` of leader ``i - 1`` decoded to.
So the plan warms the leaders' adapters with the flat rings' generator,
:func:`~repro.ccoll.computation.ring_rounds`, each position holding its
node's inputs: a resumption compresses one round (the ``L - 1``
reduce-scatter rounds, then the allgather's compress-once blocks) for all
``L`` leaders in one ``compressed_nbytes`` call.  Where the flat rings drain
it at the first compression, this plan hands it to
:func:`~repro.ccoll.adapter.warm_ahead` as it is, so a round is compressed
only when a leader asks with an empty queue and no queue runs more than one
round ahead.  Chunks are built slice by slice, in the order
``_group_binomial_reduce`` adds them (sums of slices are the slices of the
sums, bit for bit), so no node vector is ever summed whole for the warm.
The generator returns in the resumption that queues the allgather round,
leaving no leader hooked.  A leader finds its chunk by a byte compare, so a
warm that drifts costs a codec call, never a wrong value; a plan that
replays a tape runs no warm.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import List

import numpy as np

from repro.ccoll.adapter import CompressionAdapter, warm_ahead
from repro.ccoll.computation import ring_rounds
from repro.ccoll.config import CCollConfig
from repro.ccoll.movement import _ccoll_finish, c_allgather_stage
from repro.collectives.context import CollectiveContext, CollectivePlan, as_rank_arrays
from repro.collectives.hierarchical import (
    _plan_hierarchical_allreduce,
    hierarchical_allreduce_program,
    node_groups,
)
from repro.collectives.reduce_scatter import _ring_reduce_scatter_over_group, partition_chunks
from repro.mpisim.commands import Compute
from repro.mpisim.topology import DEFAULT_INTER_BANDWIDTH, Topology
from repro.mpisim.timeline import CAT_COMDECOM

__all__ = ["select_inter_compression"]

_TAG_INTER_RS = 10_000
_TAG_INTER_AG = 30_000


def _compressed(adapter: CompressionAdapter, chunk: np.ndarray):
    """The leader ring's send hop: compress the outgoing partial sum."""
    message = adapter.compress(chunk)
    yield Compute(adapter.compress_seconds(message), category=CAT_COMDECOM)
    return message, message.nbytes


def _decompressed_shared(adapter: CompressionAdapter, message):
    """The leader ring's receive hop: the reconstruction, only read (summed by the schedule)."""
    incoming = adapter.decompress_shared(message)
    yield Compute(adapter.decompress_seconds(message), category=CAT_COMDECOM)
    return incoming


def _group_compressed_ring_allreduce(
    adapter: CompressionAdapter,
    ctx: CollectiveContext,
    my_idx: int,
    group: List[int],
    vec: np.ndarray,
):
    """Compressed ring allreduce over ``group`` (the inter-node leader stage).

    Reduce-scatter compresses each hop's chunk (fresh partial sums must be
    re-encoded every round) on the shared ring schedule; the allgather reuses
    the data-movement framework (:func:`repro.ccoll.movement.c_allgather_stage`
    over the leader ring): one compression of the reduced chunk, compressed
    forwarding, decompression of every remote chunk at the end.
    """
    size = len(group)
    chunks = partition_chunks(vec, size)
    if size == 1:
        return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    send, receive = partial(_compressed, adapter), partial(_decompressed_shared, adapter)
    yield from _ring_reduce_scatter_over_group(
        my_idx, group, chunks, ctx, _TAG_INTER_RS, send, receive
    )
    blocks = yield from c_allgather_stage(
        my_idx,
        size,
        chunks[my_idx],
        adapter,
        ctx,
        tag_offset=_TAG_INTER_AG,
        ring=group,
    )
    return np.concatenate(blocks)


def select_inter_compression(
    topology: Topology,
    config: CCollConfig,
    flat_bandwidth: float = DEFAULT_INTER_BANDWIDTH,
) -> bool:
    """Decide whether compressing the inter-node hops pays on this fabric.

    Compares the bandwidth one leader-stage flow actually sees — the
    topology's effective inter-node bandwidth, i.e. the NIC rate tapered by
    the fabric's oversubscription *and by any live fault overlay* (see the
    "Fault model" section of :mod:`repro.mpisim.topology`) — against the
    codec's break-even bandwidth under the calibrated cost model.  Because
    the effective bandwidth is read at call time, a tier degraded mid-run by
    :mod:`repro.faults` re-evaluates the gate on the next collective: a
    fabric that was too fast for compression to pay can cross the break-even
    point exactly when a link slows down.  Topologies that do not report an
    effective bandwidth (flat fabrics) are judged by ``flat_bandwidth``, the
    global network model's rate.
    """
    effective = topology.effective_inter_bandwidth()
    if effective is None:
        effective = flat_bandwidth
    return effective < config.cost.codec_break_even_bandwidth(config.codec)


def _plan_topology_aware_c_allreduce(
    inputs, n_ranks: int, topology: Topology, config: CCollConfig, compress_inter: bool
) -> CollectivePlan:
    """Plan the topology-aware C-Allreduce (compression on inter-node hops only).

    ``compress_inter=False`` is the plain hierarchical plan (the wire outruns
    the codec); the choice is recorded on the outcome as ``inter_compressed``.
    """
    ctx = config.context()
    if not compress_inter:
        plan = _plan_hierarchical_allreduce(inputs, n_ranks, ctx, topology)
        return dataclasses.replace(plan, finish=_ccoll_finish(inter_compressed=False))

    vectors = as_rank_arrays(inputs, n_ranks)
    peers_by_rank, leaders = node_groups(topology, n_ranks)
    adapters = config.make_adapters(ctx, n_ranks)
    if len(leaders) > 1:
        ring = [adapters[leader] for leader in leaders]
        nodes = [[vectors[rank] for rank in peers_by_rank[leader]] for leader in leaders]
        warm_ahead(ring, ring_rounds(nodes, ring, ring))
    return CollectivePlan(
        lambda rank, size: hierarchical_allreduce_program(
            rank, size, vectors[rank], ctx, peers_by_rank[rank], leaders,
            partial(_group_compressed_ring_allreduce, adapters[rank], ctx),
        ),
        _ccoll_finish(adapters, inter_compressed=True),
        algorithm="hierarchical",
    )

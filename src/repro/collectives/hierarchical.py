"""Hierarchical (topology-aware) allreduce: reduce -> allreduce -> bcast.

On a two-level topology (see :mod:`repro.mpisim.topology`) the flat ring sends
the same number of bytes over fast intra-node links and the slow inter-node
fabric.  The hierarchical algorithm instead (1) binomial-reduces each node's
vectors to a per-node leader over the intra-node links, (2) runs a ring
allreduce among the leaders only — the sole stage crossing the inter-node
fabric — and (3) binomial-broadcasts the result back inside each node.

Per rank the ring moves ``2 (p-1)/p * D`` bytes (bandwidth-optimal), while the
leader here moves ``O(D log r)`` intra-node plus ``2 (L-1)/L * D`` inter-node
for ``r`` ranks/node and ``L`` nodes.  So on *dedicated* per-pair links the
flat ring still wins at large messages; the hierarchical variant pays off when
inter-node bandwidth is contended (:class:`SharedUplinkTopology`, where the
ring's ``r`` concurrent per-node egress flows split one uplink) or when
latency dominates.  ``bench_topology_scaling.py`` demonstrates both regimes.

The building blocks (`_group_binomial_reduce` here, the gather's up-tree
with an add; the shared binomial broadcast schedule of
:mod:`repro.collectives.bcast`; and
:func:`repro.collectives.allreduce.ring_allreduce_over_group`) operate over an
explicit list of global ranks, so they compose for any placement the topology
describes.  Stage 2 is a parameter of the skeleton: the topology-aware
C-Allreduce (:mod:`repro.ccoll.topology_aware`) is this same program with a
compressed leader ring plugged in.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

import numpy as np

from repro.collectives.allreduce import ring_allreduce_over_group
from repro.collectives.bcast import _binomial_bcast_over_group
from repro.collectives.context import CollectiveContext, CollectivePlan, as_rank_arrays
from repro.collectives.gather import _binomial_gather_over_group
from repro.mpisim.commands import Compute
from repro.mpisim.topology import FlatTopology, Topology
from repro.mpisim.timeline import CAT_MEMCPY, CAT_OTHERS, CAT_REDUCTION

__all__ = ["hierarchical_allreduce_program", "node_groups"]

#: tag blocks separating the three stages; the broadcast's sits above every
#: block a leader stage uses (the compressed one's reach 40 000 + leaders)
_TAG_REDUCE = 0
_TAG_INTER = 10_000
_TAG_BCAST = 50_000


def _group_binomial_reduce(
    my_idx: int,
    group: List[int],
    vec: np.ndarray,
    ctx: CollectiveContext,
    tag: int,
):
    """Binomial-tree sum reduction of ``vec`` to ``group[0]``: the gather's
    up-tree with an add; returns the partial sum held by this rank (the full
    sum on the group root)."""

    def added(held: np.ndarray, arrived: np.ndarray):
        yield Compute(ctx.reduce_seconds(arrived), category=CAT_REDUCTION)
        return held + arrived

    return (yield from _binomial_gather_over_group(my_idx, group, vec, tag, ctx.sent_as_is, added))


def node_groups(topology: Topology, n_ranks: int):
    """Precompute ``(peers_by_rank, leaders)`` for one communicator.

    ``peers_by_rank[r]`` lists the ranks co-located with ``r`` (rank order)
    and ``leaders`` the lowest rank of each node.  Runners call this once and
    hand the lists to every rank program, avoiding ``n_ranks`` redundant
    O(n_ranks) placement scans.
    """
    by_node: dict = {}
    for r in range(n_ranks):
        by_node.setdefault(topology.node_of(r), []).append(r)
    peers_by_rank = {r: by_node[topology.node_of(r)] for r in range(n_ranks)}
    leaders = [ranks[0] for ranks in by_node.values()]
    return peers_by_rank, leaders


def hierarchical_allreduce_program(
    rank: int,
    size: int,
    my_vector: np.ndarray,
    ctx: CollectiveContext,
    peers: List[int],
    leaders: List[int],
    leader_allreduce: Callable[[int, List[int], np.ndarray], Generator],
):
    """Rank program for the hierarchical allreduce; returns the global sum.

    ``peers`` / ``leaders`` come from :func:`node_groups`.  ``leader_allreduce``
    is the stage the node leaders run across the fabric, a rank program
    ``(my_idx, leaders, vec)`` returning the sum over all leaders: the plain
    plan passes the uncompressed ring, the topology-aware C-Allreduce a
    compressed one (:mod:`repro.ccoll.topology_aware`).
    """
    vec = np.ascontiguousarray(my_vector).reshape(-1).copy()
    if size == 1:
        return vec

    yield Compute(ctx.alloc_seconds(vec), category=CAT_OTHERS)

    my_idx = peers.index(rank)
    is_leader = rank == peers[0]

    # stage 1: intra-node binomial reduce to the node leader
    vec = yield from _group_binomial_reduce(my_idx, peers, vec, ctx, tag=_TAG_REDUCE)

    # stage 2: allreduce among the node leaders, the only stage on the fabric
    if is_leader and len(leaders) > 1:
        vec = yield from leader_allreduce(leaders.index(rank), leaders, vec)

    # stage 3: intra-node binomial broadcast of the reduced vector
    payload = vec if is_leader else None
    vec = yield from _binomial_bcast_over_group(
        my_idx, peers, payload, _TAG_BCAST, ctx.sent_as_is, ctx.copied(CAT_MEMCPY)
    )
    return vec


def _plan_hierarchical_allreduce(
    inputs, n_ranks: int, ctx: CollectiveContext, topology: Optional[Topology] = None
) -> CollectivePlan:
    """Plan the hierarchical allreduce.

    ``topology`` drives the rank grouping; with the default flat topology
    every rank is its own node, so the algorithm degenerates to the plain
    ring allreduce among all ranks.
    """
    topology = topology if topology is not None else FlatTopology()
    vectors = as_rank_arrays(inputs, n_ranks)
    peers_by_rank, leaders = node_groups(topology, n_ranks)

    def leader_ring(my_idx: int, group: List[int], vec: np.ndarray):
        return ring_allreduce_over_group(my_idx, group, vec, ctx, tag_base=_TAG_INTER)

    return CollectivePlan(
        lambda rank, size: hierarchical_allreduce_program(
            rank, size, vectors[rank], ctx, peers_by_rank[rank], leaders, leader_ring
        ),
        algorithm="hierarchical",
    )

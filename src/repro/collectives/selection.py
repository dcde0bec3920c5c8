"""Collective algorithm selection (MPICH-style tuning table, topology-aware).

MPICH picks its allreduce algorithm from a tuning table keyed on message size
and communicator size: recursive doubling for short messages (latency-bound,
``log2(p)`` rounds), Rabenseifner's reduce-scatter + allgather for long ones,
and a ring for the very largest buffers.  :func:`select_algorithm` reproduces
that table and extends it with a topology- and placement-aware rule: when
ranks are co-located on nodes whose uplinks are *shared* (oversubscribed
egress), the schedule is chosen from the actual placement
(:func:`classify_placement` walks ``Topology.node_of``): a uniform block
layout keeps Rabenseifner's largest halving steps intra-node (so it stays
selected), lopsided-but-contiguous nodes fall back to the hierarchical
algorithm (ring at very large sizes), and interleaved/cyclic placements —
where every flat schedule's exchanges go inter-node — always take the
hierarchical path, which sends each node's data over the fabric exactly once
per ring step.

The thresholds are expressed in *virtual* bytes (the size the network model
sees), matching how the harness scales messages.  They were tuned for the
calibrated fabric; on fabrics whose effective inter-node bandwidth differs —
an oversubscribed fat tree, a rail-optimised multi-NIC host — the table
rescales them by ``effective_bandwidth / calibrated_bandwidth``, so the
latency/bandwidth crossover points land where they belong (a 2:1-tapered tree
becomes bandwidth-bound at half the message size).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.collectives.allreduce import _plan_ring_allreduce
from repro.collectives.context import CollectiveContext, CollectivePlan
from repro.collectives.hierarchical import _plan_hierarchical_allreduce
from repro.collectives.rabenseifner import _plan_rabenseifner_allreduce
from repro.collectives.recursive_doubling import _plan_recursive_doubling_allreduce
from repro.mpisim.topology import DEFAULT_INTER_BANDWIDTH, Topology

__all__ = [
    "ALGORITHM_PLANNERS",
    "PLACEMENT_BLOCK",
    "PLACEMENT_INTERLEAVED",
    "PLACEMENT_IRREGULAR",
    "SHORT_MESSAGE_BYTES",
    "RING_MIN_BYTES",
    "DEGRADED_TIER_FACTOR",
    "bandwidth_scale",
    "classify_placement",
    "select_algorithm",
]

#: below this size the exchange is latency-bound: recursive doubling
SHORT_MESSAGE_BYTES = 32 * 1024
#: at and above this size the bandwidth-optimal ring wins over Rabenseifner's
#: log-round schedule (fewer, larger transfers amortize the per-round latency)
RING_MIN_BYTES = 4 * 1024 * 1024
#: at and above this fault degradation (nominal / degraded effective
#: bandwidth, see ``Topology.fault_degradation``) the selector steers flat
#: schedules off the fabric: once the inter-node tier runs at half rate or
#: worse, minimising fabric crossings beats minimising rounds
DEGRADED_TIER_FACTOR = 2.0


def bandwidth_scale(topology: Optional[Topology]) -> float:
    """Ratio of the topology's effective inter-node bandwidth to the calibration.

    The size thresholds of the tuning table are proportional to the wire
    bandwidth (they mark latency/bandwidth crossovers), so a fabric delivering
    half the calibrated bandwidth — e.g. a 2:1-oversubscribed fat tree at
    equal per-node NIC rate — halves them.  Returns 1.0 when the topology
    does not report an effective bandwidth (flat / global-model fabrics).
    """
    if topology is None:
        return 1.0
    effective = topology.effective_inter_bandwidth()
    if effective is None or effective <= 0:
        return 1.0
    return effective / DEFAULT_INTER_BANDWIDTH

#: uniform contiguous runs: every node's ranks are consecutive and all nodes
#: host the same count (a short final node is still "block")
PLACEMENT_BLOCK = "block"
#: contiguous runs of unequal sizes (lopsided nodes)
PLACEMENT_IRREGULAR = "irregular"
#: at least one node's ranks are non-consecutive (cyclic / scattered)
PLACEMENT_INTERLEAVED = "interleaved"


def classify_placement(topology: Topology, n_ranks: int) -> str:
    """Classify how ``topology`` places ``n_ranks`` ranks onto nodes.

    Walks :meth:`Topology.node_of` in rank order.  ``"interleaved"`` means a
    node is revisited after its run ended (round-robin / scattered placement),
    ``"irregular"`` means runs are contiguous but node populations differ
    (beyond a short final node), ``"block"`` is the uniform contiguous layout
    every flat schedule was calibrated on.
    """
    counts: Dict[int, int] = {}
    seen = set()
    prev: Optional[int] = None
    contiguous = True
    for rank in range(n_ranks):
        node = topology.node_of(rank)
        counts[node] = counts.get(node, 0) + 1
        if node != prev:
            if node in seen:
                contiguous = False
            seen.add(node)
            prev = node
    if not contiguous:
        return PLACEMENT_INTERLEAVED
    sizes = list(counts.values())
    if len(sizes) > 1 and any(size != sizes[0] for size in sizes[:-1]):
        return PLACEMENT_IRREGULAR
    if len(sizes) > 1 and sizes[-1] > sizes[0]:
        return PLACEMENT_IRREGULAR
    return PLACEMENT_BLOCK


#: algorithm name -> plan builder taking ``(inputs, n_ranks, ctx)``; the
#: hierarchical one also takes the topology it groups ranks by
ALGORITHM_PLANNERS: Dict[str, Callable[..., CollectivePlan]] = {
    "ring": _plan_ring_allreduce,
    "recursive_doubling": _plan_recursive_doubling_allreduce,
    "rabenseifner": _plan_rabenseifner_allreduce,
    "hierarchical": _plan_hierarchical_allreduce,
}


def select_algorithm(
    nbytes: int,
    n_ranks: int,
    topology: Optional[Topology] = None,
) -> str:
    """Pick an allreduce algorithm for a ``nbytes`` message on ``n_ranks`` ranks.

    Returns one of ``"recursive_doubling"``, ``"rabenseifner"``, ``"ring"`` or
    ``"hierarchical"`` (keys of :data:`ALGORITHM_PLANNERS`).
    """
    if n_ranks <= 2:
        # one exchange either way; the doubling schedule is the simplest
        return "recursive_doubling"
    scale = bandwidth_scale(topology)
    if nbytes < SHORT_MESSAGE_BYTES * scale:
        return "recursive_doubling"
    if (
        topology is not None
        and topology.shares_uplinks
        and topology.max_ranks_per_node(n_ranks) > 1
        and topology.n_nodes(n_ranks) > 1
    ):
        # Co-located ranks contending for shared egress: the right schedule
        # depends on where the ranks actually sit, so consult the placement
        # instead of assuming block.
        placement = classify_placement(topology, n_ranks)
        if placement == PLACEMENT_BLOCK:
            if topology.fault_degradation() >= DEGRADED_TIER_FACTOR:
                # A degraded inter-node tier penalises every algorithm whose
                # critical path crosses the fabric: Rabenseifner's halving
                # steps keep crossing it per round, while hierarchical sends
                # each node's data over the fabric exactly once per ring step
                # (leaders only) — the fewest degraded-tier crossings.
                return "hierarchical"
            # Rabenseifner's largest halving steps pair adjacent ranks, which
            # a uniform block layout keeps intra-node (free of the shared
            # uplink); measured 25-35% faster than hierarchical across the
            # rendezvous band, and it stays ahead of the ring at large sizes
            # because its inter-node exchanges shrink geometrically.
            return "rabenseifner"
        if placement == PLACEMENT_IRREGULAR:
            # Lopsided-but-contiguous nodes break the halving alignment, so
            # Rabenseifner degrades; the ring only crosses nodes at run
            # boundaries, which wins once bandwidth dominates.
            return "hierarchical" if nbytes < RING_MIN_BYTES * scale else "ring"
        # Interleaved (cyclic / scattered): every flat schedule's neighbour
        # exchanges go inter-node and pile onto the shared uplinks;
        # hierarchical is the only placement-robust choice.
        return "hierarchical"
    if nbytes >= RING_MIN_BYTES * scale:
        return "ring"
    return "rabenseifner"


def _plan_allreduce(
    inputs,
    n_ranks: int,
    algorithm: str,
    ctx: CollectiveContext,
    topology: Optional[Topology] = None,
) -> CollectivePlan:
    """Plan an allreduce, selecting the algorithm from the tuning table.

    ``algorithm`` may name any entry of :data:`ALGORITHM_PLANNERS` or be
    ``"auto"`` to consult :func:`select_algorithm` with the per-rank virtual
    message size; the plan's ``algorithm`` records the choice.
    """
    if algorithm == "auto":
        # size-probe without expanding: as_rank_arrays copies per rank, and
        # the selected planner normalises the inputs itself anyway
        if isinstance(inputs, np.ndarray):
            probe = inputs
        else:
            inputs = list(inputs)
            if not inputs:
                raise ValueError(f"expected {n_ranks} per-rank arrays, got 0")
            probe = np.asarray(inputs[0])
        algorithm = select_algorithm(ctx.vbytes(probe), n_ranks, topology)
    planner = ALGORITHM_PLANNERS.get(algorithm)
    if planner is None:
        raise ValueError(
            f"unknown allreduce algorithm {algorithm!r}; "
            f"available: {', '.join(ALGORITHM_PLANNERS)} or 'auto'"
        )
    if planner is _plan_hierarchical_allreduce:
        return planner(inputs, n_ranks, ctx, topology)
    return planner(inputs, n_ranks, ctx)

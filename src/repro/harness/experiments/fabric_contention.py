"""Fabric-contention experiment: switch-level topologies vs the uplink model.

PR 1's ``topo`` experiment compares collective algorithms across placements,
but its strongest contention model (:class:`SharedUplinkTopology`) meters
per-node egress only — transfers between *different* node pairs never slow
each other down.  This experiment sweeps the same algorithms over the
switch-level fabrics of :mod:`repro.mpisim.topology`, where overlapping paths
contend on shared switch stages, and asks the question the paper's trade
hinges on: *where does the wire actually saturate?*

Every fabric is configured with the **same per-node NIC bandwidth**
(:data:`NIC_GBPS`, 2x the calibrated rate, modelling a next-generation
interconnect), so any difference between rows is pure fabric structure:

* ``shared_uplink`` — per-node egress metering (the PR 1 baseline);
* ``fat_tree`` — non-blocking three-level k-ary tree (should match
  ``shared_uplink`` for single flows, contend only on ECMP collisions);
* ``fat_tree_2to1`` — the same tree with 2:1-tapered switch stages;
* ``dragonfly_2to1`` — dragonfly whose global links are 2:1-tapered;
* ``rail_fat_tree`` — the 2:1 tree with two NIC rails per host, stripe rail
  selection and adaptive routing (rail-optimised placement).

The headline result: at equal per-node bandwidth the 2:1 fat tree *flips* both
decisions the stack makes — ``select_algorithm``'s tuning thresholds rescale
with the effective (tapered) bandwidth, and the topology-aware C-Allreduce's
``auto`` gate starts compressing the inter-node hops that the shared-uplink
model says should stay raw.  ``benchmarks/bench_fabric_contention.py`` pins
both flips and the capacity-conservation invariants behind them.

Every fabric accepts ``contention="reservation"`` (the serialising default)
or ``"fair"`` (max-min fair processor sharing); the sweep itself reuses one
session per fabric and adjusts per-size settings through
``Communicator.with_options`` instead of rebuilding clusters per cell.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.api import Cluster
from repro.api.cluster import _fat_tree_arity_for
from repro.collectives.selection import select_algorithm
from repro.harness.common import (
    default_config,
    load_rtm_message,
    per_rank_variants,
    resolve_scale,
)
from repro.harness.reporting import ExperimentResult
from repro.mpisim.topology import Topology
from repro.perfmodel.presets import (
    default_network,
    dragonfly_topology,
    fat_tree_topology,
    rail_optimized_fat_tree,
    shared_uplink_topology,
)
from repro.utils.units import MB

__all__ = ["run_fabric_contention", "FABRIC_NAMES", "fabric_factories"]

#: fabrics swept by the experiment, in presentation order
FABRIC_NAMES = (
    "shared_uplink",
    "fat_tree",
    "fat_tree_2to1",
    "dragonfly_2to1",
    "rail_fat_tree",
)

#: algorithms compared in every cell — the full tuning-table range, so the
#: 'selected' column always points at a swept row (the compressed
#: topology-aware variant rides along)
_ALGORITHMS = ("ring", "recursive_doubling", "rabenseifner", "hierarchical")

#: per-node NIC rate (GB/s) of every fabric: 2x the calibrated effective
#: rate, the regime where the C-Allreduce compression gate sits *between* the
#: tapered and untapered fabrics, so the 2:1 rows make the opposite call from
#: the 1:1 rows at identical per-node bandwidth
NIC_GBPS = 1.1
#: the taper of the ``*_2to1`` fabrics and the rail-optimised tree
OVERSUBSCRIPTION = 2.0


def fabric_factories(
    ranks_per_node: int, n_ranks: int, contention: str = "reservation"
) -> Dict[str, Callable[[], Topology]]:
    """Factories for every swept fabric, all at :data:`NIC_GBPS` per node.

    Fabric dimensions grow with the communicator (paper scale needs 32 nodes;
    a hardcoded k=4 tree holds 16), keeping every scale runnable.
    ``contention`` selects the stage sharing discipline for every fabric
    (reservation queue or ``"fair"`` max-min processor sharing).
    """
    nic_bandwidth = NIC_GBPS * 1e9
    n_nodes = -(-n_ranks // ranks_per_node)
    k = _fat_tree_arity_for(n_nodes)
    nodes_per_router = -(-n_nodes // 4)  # dragonfly: 2 groups x 2 routers
    return {
        "shared_uplink": lambda: shared_uplink_topology(
            ranks_per_node=ranks_per_node,
            inter_bandwidth=nic_bandwidth,
            contention=contention,
        ),
        "fat_tree": lambda: fat_tree_topology(
            k=k,
            ranks_per_node=ranks_per_node,
            nic_bandwidth=nic_bandwidth,
            contention=contention,
        ),
        "fat_tree_2to1": lambda: fat_tree_topology(
            k=k,
            ranks_per_node=ranks_per_node,
            nic_bandwidth=nic_bandwidth,
            oversubscription=OVERSUBSCRIPTION,
            contention=contention,
        ),
        "dragonfly_2to1": lambda: dragonfly_topology(
            n_groups=2,
            routers_per_group=2,
            nodes_per_router=nodes_per_router,
            ranks_per_node=ranks_per_node,
            nic_bandwidth=nic_bandwidth,
            oversubscription=OVERSUBSCRIPTION,
            contention=contention,
        ),
        "rail_fat_tree": lambda: rail_optimized_fat_tree(
            k=k,
            ranks_per_node=ranks_per_node,
            nics_per_node=2,
            oversubscription=OVERSUBSCRIPTION,
            nic_bandwidth=nic_bandwidth,
            contention=contention,
        ),
    }


def run_fabric_contention(
    scale="small",
    sizes_mb: Optional[List[float]] = None,
    ranks_per_node: int = 4,
    fabrics=FABRIC_NAMES,
    contention: str = "reservation",
) -> ExperimentResult:
    """Allreduce makespan per (fabric, message size, algorithm) cell.

    ``contention`` times every fabric's shared stages under the reservation
    queue (default) or max-min fair processor sharing (``"fair"``).
    """
    settings = resolve_scale(scale)
    n_ranks = settings.ranks_large_cluster
    network = default_network()
    sizes = list(sizes_mb) if sizes_mb is not None else [28, 278]
    factories = fabric_factories(ranks_per_node, n_ranks, contention=contention)
    result = ExperimentResult(
        experiment="fabric",
        title=(
            f"Collectives across switch-level fabrics ({n_ranks} ranks, "
            f"{ranks_per_node} ranks/node, {NIC_GBPS:g} GB/s NIC everywhere, "
            f"{contention} contention)"
        ),
        paper_reference=(
            "beyond the paper: its cluster pinned one rank per Omni-Path node; "
            "these fabrics model where the wire saturates when paths overlap"
        ),
        columns=[
            "fabric",
            "size_mb",
            "algorithm",
            "total_time_s",
            "normalized_to_ring",
            "selected",
            "effective_gbps",
            "inter_compressed",
        ],
    )
    for fabric_name in fabrics:
        # one fabric, one session: the per-size loop only swaps the virtual
        # size multiplier through with_options, so the topology's stage and
        # path caches are built once (the engine resets contention state per
        # run) instead of rebuilding the cluster for every cell
        topology = factories[fabric_name]()
        base_comm = Cluster(
            network=network, topology=topology, config=default_config()
        ).communicator(n_ranks)
        for size_mb in sizes:
            data, multiplier = load_rtm_message(size_mb, settings)
            inputs = per_rank_variants(data, n_ranks)
            comm = base_comm.with_options(size_multiplier=multiplier)
            virtual_nbytes = int(size_mb * MB)
            ring_time = None
            rows: List[Dict[str, object]] = []
            choice = select_algorithm(virtual_nbytes, n_ranks, topology)
            for algo in _ALGORITHMS:
                outcome = comm.allreduce(inputs, algorithm=algo)
                if algo == "ring":
                    ring_time = outcome.total_time
                rows.append(
                    dict(
                        fabric=fabric_name,
                        size_mb=size_mb,
                        algorithm=algo,
                        total_time_s=outcome.total_time,
                        normalized_to_ring=(
                            outcome.total_time / ring_time if ring_time else None
                        ),
                        selected=(algo == choice),
                        effective_gbps=_effective_gbps(topology),
                        inter_compressed=None,
                    )
                )
            outcome = comm.allreduce(inputs, compression="auto")
            rows.append(
                dict(
                    fabric=fabric_name,
                    size_mb=size_mb,
                    algorithm="c_allreduce_topo",
                    total_time_s=outcome.total_time,
                    normalized_to_ring=(
                        outcome.total_time / ring_time if ring_time else None
                    ),
                    selected=False,
                    effective_gbps=_effective_gbps(topology),
                    inter_compressed=outcome.inter_compressed,
                )
            )
            for row in rows:
                result.add_row(**row)
    result.add_note(
        "'selected' marks select_algorithm()'s pick (thresholds rescale with the "
        "fabric's effective bandwidth); 'inter_compressed' is the C-Allreduce "
        "auto gate's call — watch it flip between the 1:1 and 2:1 rows"
    )
    return result


def _effective_gbps(topology: Topology) -> Optional[float]:
    effective = topology.effective_inter_bandwidth()
    return effective / 1e9 if effective is not None else None

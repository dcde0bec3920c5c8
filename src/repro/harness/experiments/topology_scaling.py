"""Scaling-vs-topology experiment: allreduce algorithms across fabrics.

This experiment goes beyond the paper (which fixed one rank per Omni-Path
node) and asks how the collective-algorithm choice shifts with placement and
contention — the question the tuning table in
:mod:`repro.collectives.selection` answers:

* on the **flat** preset the ring stays bandwidth-optimal at large messages
  and recursive doubling wins the latency-bound small ones;
* on the **two_level** preset (dedicated links) the flat ring *still* beats
  the hierarchical schedule at large messages, because most ring hops become
  intra-node and the ring moves strictly fewer bytes per rank;
* on the **shared_uplink** preset the ring's concurrent per-node egress flows
  split one uplink, and the hierarchical / topology-aware C-Allreduce
  schedules — one inter-node flow per node — pull ahead.

Each row reports one (topology, message size, algorithm) cell plus what
``select_algorithm`` would have picked for that cell.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api import Cluster
from repro.collectives.selection import select_algorithm
from repro.harness.common import (
    default_config,
    load_rtm_message,
    per_rank_variants,
    resolve_scale,
)
from repro.harness.reporting import ExperimentResult
from repro.perfmodel.presets import default_network, make_topology
from repro.utils.units import MB

__all__ = ["run_topology_scaling", "TOPOLOGY_NAMES"]

#: presets swept by the experiment (ranks_per_node fixed at 4 for the two-level ones)
TOPOLOGY_NAMES = ("flat", "two_level", "shared_uplink")

#: algorithms compared in every cell (plus the compressed topology-aware variant)
_ALGORITHMS = ("ring", "recursive_doubling", "rabenseifner", "hierarchical")


def run_topology_scaling(
    scale="small", sizes_mb: Optional[List[float]] = None, ranks_per_node: int = 4
) -> ExperimentResult:
    """Allreduce makespan per (topology, message size, algorithm) cell."""
    settings = resolve_scale(scale)
    n_ranks = settings.ranks_large_cluster
    network = default_network()
    sizes = list(sizes_mb) if sizes_mb is not None else [0.03, 28, 278]
    result = ExperimentResult(
        experiment="topo",
        title=(
            f"Allreduce algorithms across interconnect topologies "
            f"({n_ranks} ranks, {ranks_per_node} ranks/node on the two-level presets)"
        ),
        paper_reference=(
            "beyond the paper: its runs pin one rank per Omni-Path node (the 'flat' row); "
            "the other rows model placements its cluster could not express"
        ),
        columns=[
            "topology",
            "size_mb",
            "algorithm",
            "total_time_s",
            "normalized_to_ring",
            "selected",
        ],
    )
    for topo_name in TOPOLOGY_NAMES:
        topo_kwargs = {} if topo_name == "flat" else {"ranks_per_node": ranks_per_node}
        for size_mb in sizes:
            data, multiplier = load_rtm_message(size_mb, settings)
            inputs = per_rank_variants(data, n_ranks)
            config = default_config(size_multiplier=multiplier)
            virtual_nbytes = int(size_mb * MB)
            ring_time = None
            rows: List[Dict[str, object]] = []
            for algo in _ALGORITHMS:
                topology = make_topology(topo_name, **topo_kwargs)
                choice = select_algorithm(virtual_nbytes, n_ranks, topology)
                comm = Cluster(
                    network=network, topology=topology, config=config
                ).communicator(n_ranks)
                outcome = comm.allreduce(inputs, algorithm=algo)
                if algo == "ring":
                    ring_time = outcome.total_time
                rows.append(
                    dict(
                        topology=topo_name,
                        size_mb=size_mb,
                        algorithm=algo,
                        total_time_s=outcome.total_time,
                        normalized_to_ring=(
                            outcome.total_time / ring_time if ring_time else None
                        ),
                        selected=(algo == choice),
                    )
                )
            # the compressed, placement-aware C-Allreduce rides along for the
            # two-level presets (on flat it degenerates to leaderless ring hops)
            if topo_name != "flat":
                topology = make_topology(topo_name, **topo_kwargs)
                comm = Cluster(
                    network=network, topology=topology, config=config
                ).communicator(n_ranks)
                outcome = comm.allreduce(inputs, compression="auto")
                rows.append(
                    dict(
                        topology=topo_name,
                        size_mb=size_mb,
                        algorithm="c_allreduce_topo",
                        total_time_s=outcome.total_time,
                        normalized_to_ring=(
                            outcome.total_time / ring_time if ring_time else None
                        ),
                        selected=False,
                    )
                )
            for row in rows:
                result.add_row(**row)
    result.add_note(
        "'selected' marks the algorithm select_algorithm() picks for that "
        "(size, ranks, topology) cell; c_allreduce_topo compresses inter-node hops only"
    )
    return result

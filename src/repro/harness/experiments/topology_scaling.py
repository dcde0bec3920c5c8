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

A cell is one (topology, message size) pair.  Its rows are the algorithms,
each marked with whether ``select_algorithm`` would have picked it; the
``fabric`` experiment runs the same cell on switch-level fabrics.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

from repro.api import Cluster
from repro.collectives.selection import select_algorithm
from repro.harness.common import (
    default_config,
    load_rtm_message,
    per_rank_variants,
    resolve_scale,
    sweep,
)
from repro.harness.reporting import ExperimentResult
from repro.perfmodel.presets import default_network, make_topology
from repro.utils.units import MB

__all__ = ["run_topology_scaling", "TOPOLOGY_NAMES", "algorithms_sweep"]

#: presets swept by the experiment (ranks_per_node fixed at 4 for the two-level ones)
TOPOLOGY_NAMES = ("flat", "two_level", "shared_uplink")

#: algorithms compared in every cell — the full tuning-table range, so the
#: 'selected' column always points at a swept row (the compressed
#: topology-aware variant rides along)
_ALGORITHMS = ("ring", "recursive_doubling", "rabenseifner", "hierarchical")


def algorithms_sweep(axis, names, build, sizes_mb, settings) -> List[Dict[str, object]]:
    """The ``topo`` / ``fabric`` rows: one cell per (fabric name, message size).

    A cell runs every algorithm of :data:`_ALGORITHMS` on one fabric,
    normalized to the ring, and marks ``select_algorithm``'s pick; the
    compressed, placement-aware C-Allreduce (``compression="auto"``) rides
    along except on ``flat``, where it degenerates to leaderless ring hops.
    ``build(name)`` runs once per fabric: its cells only swap the virtual
    size multiplier through ``with_options`` (the engine resets contention
    state per run).
    """
    n_ranks = settings.ranks_large_cluster

    @functools.lru_cache(maxsize=1)  # the sweep visits one fabric's sizes in a row
    def session(name):
        cluster = Cluster(network=default_network(), topology=build(name), config=default_config())
        return cluster.communicator(n_ranks)

    def cell(size_mb, **key):
        name = key[axis]
        data, multiplier = load_rtm_message(size_mb, settings)
        inputs = per_rank_variants(data, n_ranks)
        comm = session(name).with_options(size_multiplier=multiplier)
        topology = comm.cluster.topology
        choice = select_algorithm(int(size_mb * MB), n_ranks, topology)
        effective = topology.effective_inter_bandwidth()
        runs = [(algo, {"algorithm": algo}) for algo in _ALGORITHMS]
        if name != "flat":
            runs.append(("c_allreduce_topo", {"compression": "auto"}))
        rows = []
        for algorithm, options in runs:
            outcome = comm.allreduce(inputs, **options)
            ring_time = rows[0]["total_time_s"] if rows else outcome.total_time
            rows.append(
                dict(
                    algorithm=algorithm,
                    total_time_s=outcome.total_time,
                    normalized_to_ring=outcome.total_time / ring_time,
                    selected=algorithm == choice,
                    effective_gbps=effective / 1e9 if effective is not None else None,
                    inter_compressed=getattr(outcome, "inter_compressed", None),
                )
            )
        return rows

    return sweep({axis: names, "size_mb": sizes_mb}, cell)


def run_topology_scaling(
    scale="small", sizes_mb: Optional[List[float]] = None, ranks_per_node: int = 4
) -> ExperimentResult:
    """Allreduce makespan per (topology, message size, algorithm) cell."""
    settings = resolve_scale(scale)
    n_ranks = settings.ranks_large_cluster
    sizes = sizes_mb if sizes_mb is not None else [0.03, 28, 278]

    def build(name):  # flat pins one rank per node
        return make_topology(name, **({} if name == "flat" else {"ranks_per_node": ranks_per_node}))

    return ExperimentResult(
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
        rows=algorithms_sweep("topology", TOPOLOGY_NAMES, build, sizes, settings),
        notes=[
            "'selected' marks the algorithm select_algorithm() picks for that "
            "(size, ranks, topology) cell; c_allreduce_topo compresses inter-node hops only"
        ],
    )

"""Figure 16: generalisation to C-Scatter and C-Bcast.

The paper demonstrates the data-movement framework on the two binomial-tree
collectives: C-Scatter reaches up to 1.8x and C-Bcast up to 2.7x over the
original MPI_Scatter / MPI_Bcast, while the SZx CPR-P2P variants are slower
than the originals.  The experiment's cells are the RTM message sizes on the
small-cluster rank count; each runs both collectives through one loop (the
original, the CPR-P2P variant and the C-Coll one) and reports speedups
normalized to the uncompressed baseline.
"""

from __future__ import annotations

from repro.api import Cluster
from repro.harness.common import (
    default_config,
    load_rtm_message,
    per_rank_variants,
    resolve_scale,
    sweep,
)
from repro.harness.reporting import ExperimentResult
from repro.perfmodel.presets import default_network

__all__ = ["run_fig16_scatter_bcast"]


def run_fig16_scatter_bcast(scale="small") -> ExperimentResult:
    """Figure 16: C-Scatter / C-Bcast speedups vs the originals and CPR-P2P."""
    settings = resolve_scale(scale)
    n_ranks = settings.ranks_small_cluster

    def cell(size_mb):
        data, multiplier = load_rtm_message(size_mb, settings)
        config = default_config(codec="szx", size_multiplier=multiplier)
        comm = Cluster(network=default_network(), config=config).communicator(n_ranks)
        rows = []
        # the broadcast sends the full message to every rank, the scatter one block each
        for collective, send, payload in (
            ("Bcast", comm.bcast, data),
            ("Scatter", comm.scatter, per_rank_variants(data, n_ranks)),
        ):
            runs = {
                "Baseline": send(payload, compression="off"),
                "SZx (CPR-P2P)": send(payload, compression="di"),
                f"C-{collective}": send(payload, compression="on"),
            }
            baseline = runs["Baseline"].total_time
            rows.extend(
                dict(
                    collective=collective,
                    implementation=name,
                    total_time_s=outcome.total_time,
                    speedup_vs_baseline=baseline / outcome.total_time,
                )
                for name, outcome in runs.items()
            )
        return rows

    return ExperimentResult(
        experiment="fig16",
        title=f"C-Scatter and C-Bcast vs baselines ({n_ranks} ranks)",
        paper_reference=(
            "C-Scatter up to 1.8x and C-Bcast up to 2.7x over the originals; the SZx CPR-P2P "
            "variants are slower than the originals (Figure 16)"
        ),
        columns=["size_mb", "collective", "implementation", "total_time_s", "speedup_vs_baseline"],
        rows=sweep({"size_mb": settings.size_sweep_mb}, cell),
    )

"""Figure 16: generalisation to C-Scatter and C-Bcast.

The paper demonstrates the data-movement framework on the two binomial-tree
collectives: C-Scatter reaches up to 1.8x and C-Bcast up to 2.7x over the
original MPI_Scatter / MPI_Bcast, while the SZx CPR-P2P variants are slower
than the originals.  The experiment sweeps the RTM message sizes on the
small-cluster rank count and reports speedups normalized to the uncompressed
baselines.
"""

from __future__ import annotations

from repro.api import Cluster
from repro.harness.common import (
    default_config,
    load_rtm_message,
    per_rank_variants,
    resolve_scale,
)
from repro.harness.reporting import ExperimentResult
from repro.perfmodel.presets import default_network

__all__ = ["run_fig16_scatter_bcast"]


def run_fig16_scatter_bcast(scale="small") -> ExperimentResult:
    """Figure 16: C-Scatter / C-Bcast speedups vs the originals and CPR-P2P."""
    settings = resolve_scale(scale)
    n_ranks = settings.ranks_small_cluster
    network = default_network()
    result = ExperimentResult(
        experiment="fig16",
        title=f"C-Scatter and C-Bcast vs baselines ({n_ranks} ranks)",
        paper_reference=(
            "C-Scatter up to 1.8x and C-Bcast up to 2.7x over the originals; the SZx CPR-P2P "
            "variants are slower than the originals (Figure 16)"
        ),
        columns=[
            "size_mb",
            "collective",
            "implementation",
            "total_time_s",
            "speedup_vs_baseline",
        ],
    )
    for size_mb in settings.size_sweep_mb:
        data, multiplier = load_rtm_message(size_mb, settings)
        config = default_config(codec="szx", size_multiplier=multiplier)
        comm = Cluster(network=network, config=config).communicator(n_ranks)

        # ---- broadcast: the root sends the full message to everyone
        baseline = comm.bcast(data, compression="off")
        runs = {
            "Baseline": baseline,
            "SZx (CPR-P2P)": comm.bcast(data, compression="di"),
            "C-Bcast": comm.bcast(data, compression="on"),
        }
        for name, outcome in runs.items():
            result.add_row(
                size_mb=size_mb,
                collective="Bcast",
                implementation=name,
                total_time_s=outcome.total_time,
                speedup_vs_baseline=baseline.total_time / outcome.total_time,
            )

        # ---- scatter: the message is split into one block per rank
        blocks = per_rank_variants(data, n_ranks)
        baseline = comm.scatter(blocks, compression="off")
        runs = {
            "Baseline": baseline,
            "SZx (CPR-P2P)": comm.scatter(blocks, compression="di"),
            "C-Scatter": comm.scatter(blocks, compression="on"),
        }
        for name, outcome in runs.items():
            result.add_row(
                size_mb=size_mb,
                collective="Scatter",
                implementation=name,
                total_time_s=outcome.total_time,
                speedup_vs_baseline=baseline.total_time / outcome.total_time,
            )
    return result

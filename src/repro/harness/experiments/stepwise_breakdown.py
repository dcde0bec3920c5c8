"""Figures 7-10: step-wise optimization of C-Allreduce on the small cluster.

These four figures share one experimental setup (16 Broadwell nodes, RTM data,
message sizes swept from 28 MB to 678 MB) and dissect the execution time of the
Table V variants:

* **Figure 7** — per-category breakdown of the original Allreduce (AD) versus
  the direct SZx integration (DI);
* **Figure 8** — the allgather-stage cost of DI versus the data-movement
  framework (ND);
* **Figure 9** — the reduce-scatter Wait time of ND versus the overlapped
  computation framework (Overlap);
* **Figure 10** — end-to-end times of all four variants.

One sweep of the simulator provides all four views; the individual ``run_*``
functions slice the shared rows accordingly.
"""

from __future__ import annotations

from typing import Dict, List

from repro.api import Cluster
from repro.api.communicator import COMPRESSION_MODES
from repro.harness.common import (
    default_config,
    load_rtm_message,
    per_rank_variants,
    resolve_scale,
)
from repro.harness.reporting import ExperimentResult
from repro.mpisim.timeline import STANDARD_CATEGORIES
from repro.perfmodel.presets import default_network

__all__ = [
    "stepwise_sweep",
    "run_fig7_breakdown",
    "run_fig8_di_vs_nd",
    "run_fig9_wait_overlap",
    "run_fig10_stepwise",
]

VARIANTS = ("AD", "DI", "ND", "Overlap")

#: the ``compression`` spelling of each Table V variant
_SPELLING = {label: spelling for spelling, label in COMPRESSION_MODES.items()}


def stepwise_sweep(scale="small", variants=VARIANTS) -> List[Dict[str, object]]:
    """Run the Table V variants over the message-size sweep; one row per (size, variant)."""
    settings = resolve_scale(scale)
    n_ranks = settings.ranks_small_cluster
    network = default_network()
    rows: List[Dict[str, object]] = []
    for size_mb in settings.size_sweep_mb:
        data, multiplier = load_rtm_message(size_mb, settings)
        inputs = per_rank_variants(data, n_ranks)
        config = default_config(size_multiplier=multiplier)
        comm = Cluster(network=network, config=config).communicator(n_ranks)
        for variant in variants:
            # the paper's AD is the ring; the compressed variants fix their schedule
            algorithm = "ring" if variant == "AD" else "auto"
            outcome = comm.allreduce(inputs, algorithm=algorithm, compression=_SPELLING[variant])
            breakdown = outcome.sim.breakdown_mean()
            row: Dict[str, object] = {
                "size_mb": size_mb,
                "variant": variant,
                "n_ranks": n_ranks,
                "total_time_s": outcome.total_time,
                "compression_ratio": getattr(outcome, "compression_ratio", None),
            }
            for category in STANDARD_CATEGORIES:
                row[category] = breakdown.get(category)
            rows.append(row)
    return rows


def _by_variant(rows, variant):
    return [row for row in rows if row["variant"] == variant]


def run_fig7_breakdown(scale="small", rows=None) -> ExperimentResult:
    """Figure 7: AD vs DI execution-time breakdown."""
    rows = rows if rows is not None else stepwise_sweep(scale, variants=("AD", "DI"))
    result = ExperimentResult(
        experiment="fig7",
        title="Breakdown of original Allreduce (AD) vs direct SZx integration (DI)",
        paper_reference=(
            "AD is dominated by communication (Allgather ~60%); DI's bottleneck becomes "
            "ComDecom with a large Others share from per-call buffer management (Figure 7)"
        ),
        columns=["size_mb", "variant", "total_time_s", *STANDARD_CATEGORIES],
    )
    for row in rows:
        if row["variant"] in ("AD", "DI"):
            result.add_row(**{k: row.get(k) for k in result.columns})
    return result


def run_fig8_di_vs_nd(scale="small", rows=None) -> ExperimentResult:
    """Figure 8: allgather-stage cost of DI vs the data-movement framework (ND)."""
    rows = rows if rows is not None else stepwise_sweep(scale, variants=("DI", "ND"))
    result = ExperimentResult(
        experiment="fig8",
        title="DI vs ND: compression and allgather-stage time",
        paper_reference=(
            "ND cuts the compression time (compress once) and balances the allgather, up to "
            "1.48x faster ComDecom+Allgather and 7.1x faster allgather communication (Figure 8)"
        ),
        columns=["size_mb", "variant", "ComDecom", "Allgather", "total_time_s"],
    )
    for row in rows:
        if row["variant"] in ("DI", "ND"):
            result.add_row(**{k: row.get(k) for k in result.columns})
    return result


def run_fig9_wait_overlap(scale="small", rows=None) -> ExperimentResult:
    """Figure 9: reduce-scatter Wait time of ND vs the overlapped framework."""
    rows = rows if rows is not None else stepwise_sweep(scale, variants=("ND", "Overlap"))
    result = ExperimentResult(
        experiment="fig9",
        title="Reduce-scatter Wait time: ND vs Overlap (PIPE-SZx)",
        paper_reference="the overlap removes 73-80% of the Wait time (Figure 9)",
        columns=["size_mb", "nd_wait_s", "overlap_wait_s", "reduction_pct"],
    )
    nd_rows = {row["size_mb"]: row for row in _by_variant(rows, "ND")}
    overlap_rows = {row["size_mb"]: row for row in _by_variant(rows, "Overlap")}
    for size_mb in sorted(set(nd_rows) & set(overlap_rows)):
        nd_wait = nd_rows[size_mb]["Wait"]
        overlap_wait = overlap_rows[size_mb]["Wait"]
        reduction = 100.0 * (1.0 - overlap_wait / nd_wait) if nd_wait > 0 else 0.0
        result.add_row(
            size_mb=size_mb,
            nd_wait_s=nd_wait,
            overlap_wait_s=overlap_wait,
            reduction_pct=reduction,
        )
    return result


def run_fig10_stepwise(scale="small", rows=None) -> ExperimentResult:
    """Figure 10: end-to-end time of AD / DI / ND / Overlap across message sizes."""
    rows = rows if rows is not None else stepwise_sweep(scale)
    result = ExperimentResult(
        experiment="fig10",
        title="End-to-end step-wise optimization of C-Allreduce",
        paper_reference=(
            "the fully optimized variant (Overlap = C-Allreduce) beats the original Allreduce by "
            "2.2-2.5x across 28-678 MB on 16 nodes (Figure 10)"
        ),
        columns=["size_mb", "variant", "total_time_s", "normalized_to_AD"],
    )
    ad_times = {row["size_mb"]: row["total_time_s"] for row in _by_variant(rows, "AD")}
    for row in rows:
        baseline = ad_times.get(row["size_mb"])
        result.add_row(
            size_mb=row["size_mb"],
            variant=row["variant"],
            total_time_s=row["total_time_s"],
            normalized_to_AD=(row["total_time_s"] / baseline) if baseline else None,
        )
    return result

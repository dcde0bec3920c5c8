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

This module has no cell of its own: :func:`stepwise_sweep` is a size axis over
:func:`~repro.harness.experiments.allreduce_comparison.versus_allreduce`, the
one cell behind Figures 7-13, run with the four variants.  Each figure is a
view of its rows, a pure function from those rows to an
:class:`~repro.harness.reporting.ExperimentResult`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.harness.common import ERROR_BOUND, load_rtm_message, resolve_scale, sweep
from repro.harness.experiments.allreduce_comparison import versus_allreduce
from repro.harness.reporting import ExperimentResult
from repro.mpisim.timeline import STANDARD_CATEGORIES

__all__ = [
    "stepwise_sweep",
    "fig7_breakdown",
    "fig8_di_vs_nd",
    "fig9_wait_overlap",
    "fig10_stepwise",
]

VARIANTS = ("AD", "DI", "ND", "Overlap")


def stepwise_sweep(scale="small") -> List[Dict[str, object]]:
    """Run the Table V variants over the message-size sweep; one row per (size, variant)."""
    settings = resolve_scale(scale)
    n_ranks = settings.ranks_small_cluster

    def cell(size_mb):
        data, multiplier = load_rtm_message(size_mb, settings)
        rows = versus_allreduce(VARIANTS, data, multiplier, n_ranks, ERROR_BOUND)
        # Table V's names for the cell's implementation and its time relative to AD
        return [
            {"variant": row["implementation"], "normalized_to_AD": row["normalized"], **row}
            for row in rows
        ]

    return sweep({"size_mb": settings.size_sweep_mb}, cell)


def _of(rows, *variants):
    return [row for row in rows if row["variant"] in variants]


def fig7_breakdown(rows) -> ExperimentResult:
    """Figure 7: AD vs DI execution-time breakdown."""
    result = ExperimentResult(
        experiment="fig7",
        title="Breakdown of original Allreduce (AD) vs direct SZx integration (DI)",
        paper_reference=(
            "AD is dominated by communication (Allgather ~60%); DI's bottleneck becomes "
            "ComDecom with a large Others share from per-call buffer management (Figure 7)"
        ),
        columns=["size_mb", "variant", "total_time_s", *STANDARD_CATEGORIES],
    )
    result.add_rows(_of(rows, "AD", "DI"))
    return result


def fig8_di_vs_nd(rows) -> ExperimentResult:
    """Figure 8: allgather-stage cost of DI vs the data-movement framework (ND)."""
    result = ExperimentResult(
        experiment="fig8",
        title="DI vs ND: compression and allgather-stage time",
        paper_reference=(
            "ND cuts the compression time (compress once) and balances the allgather, up to "
            "1.48x faster ComDecom+Allgather and 7.1x faster allgather communication (Figure 8)"
        ),
        columns=["size_mb", "variant", "ComDecom", "Allgather", "total_time_s"],
    )
    result.add_rows(_of(rows, "DI", "ND"))
    return result


def fig9_wait_overlap(rows) -> ExperimentResult:
    """Figure 9: reduce-scatter Wait time of ND vs the overlapped framework."""
    result = ExperimentResult(
        experiment="fig9",
        title="Reduce-scatter Wait time: ND vs Overlap (PIPE-SZx)",
        paper_reference="the overlap removes 73-80% of the Wait time (Figure 9)",
        columns=["size_mb", "nd_wait_s", "overlap_wait_s", "reduction_pct"],
    )
    for nd, overlap in zip(_of(rows, "ND"), _of(rows, "Overlap")):
        nd_wait, overlap_wait = nd["Wait"], overlap["Wait"]
        reduction = 100.0 * (1.0 - overlap_wait / nd_wait) if nd_wait > 0 else 0.0
        result.add_row(
            size_mb=nd["size_mb"],
            nd_wait_s=nd_wait,
            overlap_wait_s=overlap_wait,
            reduction_pct=reduction,
        )
    return result


def fig10_stepwise(rows) -> ExperimentResult:
    """Figure 10: end-to-end time of AD / DI / ND / Overlap across message sizes."""
    result = ExperimentResult(
        experiment="fig10",
        title="End-to-end step-wise optimization of C-Allreduce",
        paper_reference=(
            "the fully optimized variant (Overlap = C-Allreduce) beats the original Allreduce by "
            "2.2-2.5x across 28-678 MB on 16 nodes (Figure 10)"
        ),
        columns=["size_mb", "variant", "total_time_s", "normalized_to_AD"],
    )
    result.add_rows(rows)
    return result

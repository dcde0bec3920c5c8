"""Experiment registry and command-line driver.

Every table and figure of the paper's evaluation maps to one named experiment;
``run_experiment(name)`` regenerates it and returns an
:class:`~repro.harness.reporting.ExperimentResult`.  Each runner resolves its
scale first, then builds its header and rows; the swept ones (``fig7``-``fig16``,
``topo``, ``fabric``) get their rows from :func:`repro.harness.common.sweep`,
which runs their cells.  Three families share one sweep each
(:data:`SHARED_SWEEP`), and each member is a *view*, a pure function from the
sweep's rows to its result: ``table1``-``table3`` view ``characterise``,
``fig7``-``fig10`` ``stepwise_sweep`` and ``fig17``-``fig18``
``stacking_sweep``.  :func:`main` runs each of them at most once per
invocation, and only for the names it was given; ``run_experiment(name)``
runs a view's sweep afresh.  The module doubles as a CLI::

    python -m repro.harness --list
    python -m repro.harness fig11 --scale small
    python -m repro.harness all --scale small
    python -m repro.harness faults recovery --check-invariants

``--check-invariants`` runs each experiment under
:func:`repro.mpisim.audit.audit_fabric` and exits 1 if any run of it broke
capacity conservation or the max-min bottleneck property.  A shared sweep's
simulations are audited under the first name that runs them; a later view of
its rows simulates nothing and prints its own ``invariants ok in <name>`` line.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import Callable, Dict, List

from repro.harness.experiments import compressor_tables as tables, stacking
from repro.harness.experiments import stepwise_breakdown as stepwise
from repro.harness.experiments.allreduce_comparison import (
    run_fig11_datasizes,
    run_fig12_scaling,
    run_fig13_fields,
    run_fig14_15_accuracy,
)
from repro.harness.experiments.compressor_tables import run_table6
from repro.harness.experiments.fabric_contention import run_fabric_contention
from repro.harness.experiments.faults import run_faults
from repro.harness.experiments.multitenant import run_multitenant
from repro.harness.experiments.recovery import run_recovery
from repro.harness.experiments.fig5_error_distribution import run_fig5_fig6
from repro.harness.experiments.scatter_bcast import run_fig16_scatter_bcast
from repro.harness.experiments.theory_bounds import run_theory_bounds
from repro.harness.experiments.topology_scaling import run_topology_scaling
from repro.harness.reporting import ExperimentResult
from repro.mpisim.audit import audit_fabric, report_audit

__all__ = ["EXPERIMENTS", "SHARED_SWEEP", "list_experiments", "run_experiment", "main"]

#: experiment name -> (callable, one-line description); a view's callable
#: takes its shared sweep's rows, every other one ``scale`` and keywords
EXPERIMENTS: Dict[str, tuple] = {
    "table1": (tables.table1_throughput, "Compression/decompression throughput (Table I)"),
    "table2": (tables.table2_ratios, "Compression ratios (Table II)"),
    "table3": (tables.table3_quality, "Compression quality / PSNR (Table III)"),
    "table6": (run_table6, "Per-field compression ratios (Table VI)"),
    "fig5": (run_fig5_fig6, "Normality of compression errors (Figures 5-6)"),
    "fig7": (stepwise.fig7_breakdown, "AD vs DI breakdown (Figure 7)"),
    "fig8": (stepwise.fig8_di_vs_nd, "DI vs ND allgather stage (Figure 8)"),
    "fig9": (stepwise.fig9_wait_overlap, "ND vs Overlap wait time (Figure 9)"),
    "fig10": (stepwise.fig10_stepwise, "Step-wise optimization end-to-end (Figure 10)"),
    "fig11": (run_fig11_datasizes, "C-Allreduce vs baselines across sizes (Figure 11)"),
    "fig12": (run_fig12_scaling, "Node scaling at 678 MB (Figure 12)"),
    "fig13": (run_fig13_fields, "Per-field comparison (Figure 13)"),
    "fig14_15": (run_fig14_15_accuracy, "C-Allreduce result accuracy (Figures 14-15)"),
    "fig16": (run_fig16_scatter_bcast, "C-Scatter / C-Bcast generalisation (Figure 16)"),
    "fig17": (stacking.fig17_stacking_perf, "Image-stacking performance (Figure 17)"),
    "fig18": (stacking.fig18_stacking_quality, "Image-stacking quality (Figure 18)"),
    "theory": (run_theory_bounds, "Error-propagation theorem validation (Section III-B)"),
    "topo": (run_topology_scaling, "Allreduce algorithms across topologies (beyond the paper)"),
    "fabric": (run_fabric_contention, "Switch-level fabric contention (beyond the paper)"),
    "multitenant": (run_multitenant, "Multi-tenant job mix on one fabric (beyond the paper)"),
    "faults": (run_faults, "Job mix under injected fabric faults (beyond the paper)"),
    "recovery": (run_recovery, "Checkpoint/restart goodput under node loss (beyond the paper)"),
}

#: each view's name -> the sweep whose rows it reads
SHARED_SWEEP: Dict[str, Callable[..., list]] = {
    **dict.fromkeys(("table1", "table2", "table3"), tables.characterise),
    **dict.fromkeys(("fig7", "fig8", "fig9", "fig10"), stepwise.stepwise_sweep),
    **dict.fromkeys(("fig17", "fig18"), stacking.stacking_sweep),
}


def list_experiments() -> List[str]:
    """Names of all registered experiments (in paper order)."""
    return list(EXPERIMENTS)


def _unknown(name: str) -> str:
    return f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"


def run_experiment(name: str, scale="small", **kwargs) -> ExperimentResult:
    """Run one experiment by name; a view's ``kwargs`` go to its sweep."""
    key = name.lower()
    if key not in EXPERIMENTS:
        raise KeyError(_unknown(name))
    return _run(key, scale, kwargs, {})


def _run(key: str, scale, kwargs, swept: dict) -> ExperimentResult:
    """Run experiment ``key``; a view reads its sweep's rows from ``swept``,
    where they are put the first time that sweep runs."""
    func: Callable[..., ExperimentResult] = EXPERIMENTS[key][0]
    shared = SHARED_SWEEP.get(key)
    if shared is None:
        return func(scale=scale, **kwargs)
    if shared not in swept:
        swept[shared] = shared(scale, **kwargs)
    return func(swept[shared])


def main(argv=None) -> int:
    """CLI entry point: run experiments and print their tables."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures from the reproduction.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (see --list); use 'all' for every experiment",
    )
    parser.add_argument("--scale", choices=("small", "paper"), default="small")
    parser.add_argument(
        "--contention",
        choices=("reservation", "fair"),
        default=None,
        help="shared-stage sharing discipline for the fabric, multitenant, faults "
        "and recovery experiments",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="audit every run with the fabric capacity/fairness monitors; "
        "exit 1 on any violation",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments")
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        for name, (_, description) in EXPERIMENTS.items():
            print(f"{name:10s} {description}")
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    for name in names:  # every name is checked before any experiment runs
        if name.lower() not in EXPERIMENTS:
            print(_unknown(name), file=sys.stderr)
            return 2
    status = 0
    swept = {}  # this invocation's shared sweeps (its scale is fixed) -> rows
    for name in names:
        kwargs = {}
        if args.contention is not None and name.lower() in (
            "fabric",
            "multitenant",
            "faults",
            "recovery",
        ):
            kwargs["contention"] = args.contention
        with audit_fabric() if args.check_invariants else nullcontext([]) as violations:
            result = _run(name.lower(), args.scale, kwargs, swept)
        print(result.to_text())
        if args.check_invariants:
            status = max(status, report_audit(violations, f" in {name}"))
        print()
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())

"""Experiment harness: regenerates every table and figure of the paper.

``run_experiment("fig11")`` (or ``python -m repro.harness fig11``) produces an
:class:`~repro.harness.reporting.ExperimentResult` whose rows mirror the
corresponding table/figure; ``EXPERIMENTS`` lists everything available.

An experiment is a header (the result's name, title, paper claim and columns)
plus its rows.  A swept one declares named axes and one cell function (cell
key -> rows), and :func:`~repro.harness.common.sweep`, the one sweep loop,
runs every cell in the axes' product order.
"""

from repro.harness.common import SCALES, ScaleSettings, resolve_scale
from repro.harness.reporting import ExperimentResult, format_table
from repro.harness.runner import EXPERIMENTS, list_experiments, run_experiment

__all__ = [
    "ExperimentResult",
    "format_table",
    "EXPERIMENTS",
    "list_experiments",
    "run_experiment",
    "SCALES",
    "ScaleSettings",
    "resolve_scale",
]

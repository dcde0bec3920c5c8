"""Figures 17 and 18: the RTM image-stacking use case.

Image stacking sums per-shot partial images with an Allreduce.  Figure 17
compares the performance of C-Allreduce against the original Allreduce and the
CPR-P2P baselines across error bounds (1e-2 / 1e-3 / 1e-4 for the
error-bounded codecs, rates 4 / 8 / 16 for fixed-rate ZFP); Figure 18 compares
the quality of the resulting stacked images (PSNR / NRMSE), where the paper
reports 42.86 / 57.97 / 79.57 dB for C-Allreduce and a destroyed image for the
rate-4 fixed-rate baseline.  Both figures are views of one sweep,
:func:`stacking_sweep`: each is a pure function from its rows to an
:class:`~repro.harness.reporting.ExperimentResult`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.image_stacking import generate_partial_images, run_image_stacking
from repro.harness.common import resolve_scale
from repro.harness.reporting import ExperimentResult
from repro.perfmodel.presets import default_network
from repro.utils.units import MB

__all__ = ["stacking_sweep", "fig17_stacking_perf", "fig18_stacking_quality"]

ERROR_BOUNDS = (1e-2, 1e-3, 1e-4)
FIXED_RATES = (4, 8, 16)


def stacking_sweep(
    scale="small", virtual_mb: float = 128.0, image_shape=None
) -> List[Dict[str, object]]:
    """Run the stacking experiment for every method x setting combination."""
    settings = resolve_scale(scale)
    n_ranks = settings.ranks_small_cluster
    network = default_network()
    if image_shape is None:
        side = 96 if settings.name == "small" else 192
        image_shape = (side, side)
    partials = generate_partial_images(n_ranks, image_shape=image_shape, depth=16, seed=1)
    multiplier = max(1.0, virtual_mb * MB / partials[0].nbytes)

    rows: List[Dict[str, object]] = []

    def record(method: str, setting: str, **kwargs):
        outcome = run_image_stacking(
            n_ranks,
            method=method,
            partial_images=partials,
            size_multiplier=multiplier,
            network=network,
            **kwargs,
        )
        rows.append(
            {
                "method": method,
                "setting": setting,
                "time_s": outcome.total_time,
                "psnr_db": outcome.quality.psnr,
                "nrmse": outcome.quality.nrmse,
                "max_abs_error": outcome.quality.max_abs_error,
                "compression_ratio": outcome.compression_ratio,
            }
        )

    record("allreduce", "exact")
    for eb in ERROR_BOUNDS:
        record("c-allreduce", f"ABS {eb:.0e}", error_bound=eb)
        record("cpr-szx", f"ABS {eb:.0e}", error_bound=eb)
        record("cpr-zfp-abs", f"ABS {eb:.0e}", error_bound=eb)
    for rate in FIXED_RATES:
        record("cpr-zfp-fxr", f"FXR {rate}", rate=float(rate))
    return rows


def fig17_stacking_perf(rows) -> ExperimentResult:
    """Figure 17: image-stacking performance across error bounds / rates."""
    baseline = next(row["time_s"] for row in rows if row["method"] == "allreduce")
    result = ExperimentResult(
        experiment="fig17",
        title="Image-stacking performance (normalized to the original Allreduce)",
        paper_reference=(
            "C-Allreduce is 1.24-1.47x faster than Allreduce depending on the bound, while every "
            "CPR-P2P baseline is slower (Figure 17)"
        ),
        columns=["method", "setting", "time_s", "normalized", "speedup_vs_allreduce"],
    )
    for row in rows:
        normalized = row["time_s"] / baseline
        result.add_row(
            method=row["method"],
            setting=row["setting"],
            time_s=row["time_s"],
            normalized=normalized,
            speedup_vs_allreduce=1.0 / normalized,
        )
    return result


def fig18_stacking_quality(rows) -> ExperimentResult:
    """Figure 18: quality of the stacked image for each method/setting."""
    result = ExperimentResult(
        experiment="fig18",
        title="Stacked-image quality",
        paper_reference=(
            "C-Allreduce: PSNR 42.86 / 57.97 / 79.57 dB and NRMSE 7e-3 / 1e-3 / 1e-4 at bounds "
            "1e-2 / 1e-3 / 1e-4; ZFP(FXR) rate 4 destroys the image (Figure 18)"
        ),
        columns=["method", "setting", "psnr_db", "nrmse", "max_abs_error", "compression_ratio"],
    )
    result.add_rows(rows)
    return result

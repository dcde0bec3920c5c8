"""Data-quality and compression metrics.

The paper evaluates reconstructed data with PSNR and NRMSE (Figures 14, 15, 18,
Table III) and compressors with the compression ratio (Tables II and VI).  This
package implements those metrics exactly as defined in the referenced
literature so harness outputs are directly comparable to the paper's numbers.
"""

from repro.metrics.latency import mean_slowdown, summarize
from repro.metrics.quality import (
    psnr,
    nrmse,
    rmse,
    max_abs_error,
    mean_abs_error,
    QualityReport,
    quality_report,
)
from repro.metrics.ratios import compression_ratio, CompressionStats, aggregate_ratio_stats

__all__ = [
    "psnr",
    "nrmse",
    "rmse",
    "max_abs_error",
    "mean_abs_error",
    "QualityReport",
    "quality_report",
    "compression_ratio",
    "CompressionStats",
    "aggregate_ratio_stats",
    "mean_slowdown",
    "summarize",
]

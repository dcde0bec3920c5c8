"""Reconstruction-quality metrics (PSNR, NRMSE, max error).

Definitions follow the lossy-compression literature cited by the paper:

* ``rmse   = sqrt(mean((orig - recon)^2))``
* ``nrmse  = rmse / (max(orig) - min(orig))``
* ``psnr   = 20 * log10((max(orig) - min(orig)) / rmse)``

A constant original field has zero value range; in that case NRMSE and PSNR are
defined against a range of 1.0 if the reconstruction is not exact, and PSNR is
``inf`` for an exact reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ensure_1d_float_array

__all__ = [
    "rmse",
    "nrmse",
    "psnr",
    "max_abs_error",
    "mean_abs_error",
    "QualityReport",
    "quality_report",
]


def _as_pair(original, reconstructed):
    orig = ensure_1d_float_array(original, "original")
    recon = ensure_1d_float_array(reconstructed, "reconstructed")
    if orig.shape != recon.shape:
        raise ValueError(
            f"original and reconstructed must have the same size, got {orig.size} vs {recon.size}"
        )
    if orig.size == 0:
        raise ValueError("quality metrics are undefined for empty arrays")
    return orig, recon


def _value_range(orig: np.ndarray) -> float:
    vrange = float(orig.max() - orig.min())
    return vrange if vrange > 0.0 else 1.0


def rmse(original, reconstructed) -> float:
    """Root mean squared error between the original and reconstructed data."""
    orig, recon = _as_pair(original, reconstructed)
    diff = orig.astype(np.float64) - recon.astype(np.float64)
    return float(np.sqrt(np.mean(diff * diff)))


def nrmse(original, reconstructed) -> float:
    """RMSE normalised by the original data's value range."""
    orig, recon = _as_pair(original, reconstructed)
    return rmse(orig, recon) / _value_range(orig)


def psnr(original, reconstructed) -> float:
    """Peak signal-to-noise ratio in dB (``inf`` for an exact reconstruction)."""
    orig, recon = _as_pair(original, reconstructed)
    err = rmse(orig, recon)
    if err == 0.0:
        return float("inf")
    return float(20.0 * np.log10(_value_range(orig) / err))


def max_abs_error(original, reconstructed) -> float:
    """Maximum point-wise absolute error."""
    orig, recon = _as_pair(original, reconstructed)
    return float(np.max(np.abs(orig.astype(np.float64) - recon.astype(np.float64))))


def mean_abs_error(original, reconstructed) -> float:
    """Mean point-wise absolute error."""
    orig, recon = _as_pair(original, reconstructed)
    return float(np.mean(np.abs(orig.astype(np.float64) - recon.astype(np.float64))))


@dataclass(frozen=True)
class QualityReport:
    """Bundle of reconstruction-quality metrics for one (original, reconstructed) pair."""

    psnr: float
    nrmse: float
    rmse: float
    max_abs_error: float
    mean_abs_error: float


def quality_report(original, reconstructed) -> QualityReport:
    """Compute all quality metrics at once for one reconstruction."""
    orig, recon = _as_pair(original, reconstructed)
    return QualityReport(
        psnr=psnr(orig, recon),
        nrmse=nrmse(orig, recon),
        rmse=rmse(orig, recon),
        max_abs_error=max_abs_error(orig, recon),
        mean_abs_error=mean_abs_error(orig, recon),
    )

"""Compression-error distribution analysis (Figures 5 and 6).

Section III-B of the paper rests on the empirical observation that the
point-wise error introduced by error-bounded lossy compressors is well
described by a normal distribution (fitted by maximum-likelihood estimation),
and that the property still holds for *second-generation* errors (the error of
compressing already-reconstructed data, ``e2``).  The helpers here measure
compression errors on arbitrary data, fit the MLE normal, and quantify how
close the empirical distribution is to that normal — exactly what Figures 5
and 6 visualise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.base import Compressor
from repro.utils.validation import ensure_1d_float_array

__all__ = [
    "compression_errors",
    "second_generation_errors",
    "NormalFit",
    "fit_normal_mle",
    "normality_report",
]


def compression_errors(codec: Compressor, data) -> np.ndarray:
    """Point-wise errors ``reconstructed - original`` of one compression pass."""
    arr = ensure_1d_float_array(data)
    recon = codec.roundtrip(arr)
    return recon.astype(np.float64) - arr.astype(np.float64)


def second_generation_errors(codec: Compressor, data) -> np.ndarray:
    """Errors of compressing the *reconstructed* data again (the paper's ``e2``)."""
    arr = ensure_1d_float_array(data)
    first = codec.roundtrip(arr)
    second = codec.roundtrip(first)
    return second.astype(np.float64) - first.astype(np.float64)


@dataclass(frozen=True)
class NormalFit:
    """Maximum-likelihood normal fit of an error sample."""

    mu: float
    sigma: float
    n_samples: int


def fit_normal_mle(errors) -> NormalFit:
    """MLE fit of a normal distribution (sample mean / biased std)."""
    errors = np.asarray(errors, dtype=np.float64).reshape(-1)
    if errors.size == 0:
        raise ValueError("cannot fit a distribution to an empty error sample")
    return NormalFit(mu=float(errors.mean()), sigma=float(errors.std()), n_samples=errors.size)


def normality_report(errors) -> dict:
    """Compare the empirical error distribution against its MLE normal fit.

    Returns the fitted parameters plus the empirical coverage of the 1/2/3
    sigma intervals (a normal distribution gives 68.27% / 95.45% / 99.73%).
    Used by the Figure 5/6 experiment to quantify what the paper shows
    graphically.
    """
    errors = np.asarray(errors, dtype=np.float64).reshape(-1)
    fit = fit_normal_mle(errors)
    report = {
        "mu": fit.mu,
        "sigma": fit.sigma,
        "n_samples": fit.n_samples,
        "skewness": _skewness(errors),
    }
    for k, expected in ((1, 0.6827), (2, 0.9545), (3, 0.9973)):
        if fit.sigma == 0:
            coverage = 1.0
        else:
            coverage = float(np.mean(np.abs(errors - fit.mu) <= k * fit.sigma))
        report[f"within_{k}sigma"] = coverage
        report[f"expected_{k}sigma"] = expected
    return report


def _skewness(errors: np.ndarray) -> float:
    sigma = errors.std()
    if sigma == 0:
        return 0.0
    return float(np.mean(((errors - errors.mean()) / sigma) ** 3))

"""Analytical error-propagation results of Section III-B.

The paper proves how per-node compression errors combine through the
collective *computation* framework (SUM / AVG / MAX / MIN aggregation) and how
the *data-movement* framework keeps the error at a single bound.  This module
implements those statements as plain functions so the harness and tests can
evaluate and validate them:

* Theorem 1 — the aggregated SUM error over ``n`` nodes is normal with
  variance ``n * sigma^2``; it falls within ``+- 2 sqrt(n) sigma`` with
  probability 95.44%.
* Corollary 1 — with ``sigma ~= be / 3`` the same interval becomes
  ``+- (2/3) sqrt(n) be`` (e.g. ``+- 20/3 be`` for 100 nodes).
* Corollary 2 — the AVG error is normal with variance ``sigma^2 / n``.
* Theorem 2 — the MAX/MIN error has variance ``(2 - (n+2)/2^n) * sigma^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import ensure_positive

__all__ = [
    "sigma_from_error_bound",
    "AggregationBound",
    "sum_error_std",
    "sum_error_interval",
    "corollary1_interval",
    "average_error_std",
    "maxmin_error_variance",
    "probability_within",
    "movement_framework_bound",
    "cpr_p2p_movement_bound",
]

#: the paper's default confidence level: the exact +-2 sigma band of a normal
#: (quoted as 95.44% in the paper)
DEFAULT_CONFIDENCE = 0.9544997361036416


def sigma_from_error_bound(error_bound: float) -> float:
    """Per-compression error standard deviation implied by an absolute bound.

    The paper assumes ``be ~= 3 sigma`` (the bound captures 99.74% of a normal
    error), hence ``sigma = be / 3``.
    """
    return ensure_positive(error_bound, "error_bound") / 3.0


@dataclass(frozen=True)
class AggregationBound:
    """A symmetric error interval with its confidence level."""

    half_width: float
    confidence: float

    @property
    def interval(self):
        """The ``(-half_width, +half_width)`` tuple."""
        return (-self.half_width, self.half_width)

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies within the interval."""
        return abs(value) <= self.half_width


def _z_for_confidence(confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    from scipy import stats  # imported where it is called: 0.45 s no other path pays

    return float(stats.norm.ppf(0.5 + confidence / 2.0))


def sum_error_std(n_nodes: int, sigma: float) -> float:
    """Standard deviation of the aggregated SUM error (Theorem 1): ``sqrt(n) sigma``."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    return math.sqrt(n_nodes) * ensure_positive(sigma, "sigma")


def sum_error_interval(
    n_nodes: int, sigma: float, confidence: float = DEFAULT_CONFIDENCE
) -> AggregationBound:
    """Theorem 1 interval: ``+- z(confidence) * sqrt(n) * sigma`` (z = 2 at 95.44%)."""
    z = _z_for_confidence(confidence)
    return AggregationBound(half_width=z * sum_error_std(n_nodes, sigma), confidence=confidence)


def corollary1_interval(
    n_nodes: int, error_bound: float, confidence: float = DEFAULT_CONFIDENCE
) -> AggregationBound:
    """Corollary 1 interval: ``+- (z/3) sqrt(n) be`` (``+- 20/3 be`` at n=100, z=2)."""
    sigma = sigma_from_error_bound(error_bound)
    return sum_error_interval(n_nodes, sigma, confidence)


def average_error_std(n_nodes: int, sigma: float) -> float:
    """Corollary 2: the AVG error standard deviation is ``sigma / sqrt(n)``."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    return ensure_positive(sigma, "sigma") / math.sqrt(n_nodes)


def maxmin_error_variance(n_nodes: int, sigma: float) -> float:
    """Theorem 2: the MAX/MIN error variance is ``(2 - (n+2)/2^n) sigma^2``."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    sigma = ensure_positive(sigma, "sigma")
    factor = 2.0 - (n_nodes + 2.0) / (2.0**n_nodes)
    return factor * sigma * sigma


def probability_within(n_nodes: int, sigma: float, half_width: float) -> float:
    """Probability that the aggregated SUM error falls within ``+- half_width``."""
    std = sum_error_std(n_nodes, sigma)
    if std == 0:
        return 1.0
    from scipy import stats

    return float(stats.norm.cdf(half_width / std) - stats.norm.cdf(-half_width / std))


def movement_framework_bound(error_bound: float) -> float:
    """Worst-case point-wise error of the data-movement framework: one bound.

    Every chunk is compressed exactly once, so the reconstruction error of every
    value is within the user's error bound regardless of how many hops the
    compressed chunk travelled.
    """
    return ensure_positive(error_bound, "error_bound")


def cpr_p2p_movement_bound(error_bound: float, hops: int) -> float:
    """Worst-case point-wise error of CPR-P2P data movement: one bound per hop.

    A chunk forwarded over ``hops`` point-to-point links is re-compressed at
    every hop, so the guarantee degrades to ``hops * be`` (the factor the paper
    cites as ``(N-1)x`` for the ring allgather and ``log2(N)x`` for the
    binomial broadcast).
    """
    if hops < 1:
        raise ValueError("hops must be >= 1")
    return hops * ensure_positive(error_bound, "error_bound")

"""Latency summaries: percentiles, tails and slowdowns.

The multi-tenant workload layer (:mod:`repro.workload`) reports p50/p99
collective latency and per-job slowdown distributions; the harness reports
the same for fault and contention sweeps.  Nothing else in ``src/`` computed
percentiles before this module, so it is the single shared implementation.

The estimator is the classic *linear interpolation between closest ranks*
(numpy's default ``"linear"`` method): for ``n`` sorted samples the ``q``-th
percentile sits at fractional rank ``q/100 * (n - 1)``.  Implemented without
numpy so callers summarising a handful of values do not pay an array
round-trip, and results are plain floats either way.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

__all__ = [
    "mean_slowdown",
    "percentile",
    "summarize",
]


def _percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an already-sorted non-empty sample."""
    if not (0.0 <= q <= 100.0):
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    frac = rank - lo
    if frac == 0.0:
        return ordered[lo]
    return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    ``values`` need not be sorted; raises ``ValueError`` when empty so a
    silent 0.0 can never masquerade as a real latency.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    return _percentile_sorted(sorted(float(v) for v in values), q)


def summarize(values: Iterable[float]) -> Dict[str, float]:
    """``{count, mean, p50, p99, min, max}`` of a sample, all floats.

    Exact (keeps every sample): the workload collector summarises at most a
    few hundred thousand collective steps.  The empty sample keeps the full
    schema with every statistic at ``0.0`` (and ``count == 0.0``), so callers
    indexing ``["p50"]`` on a quiet interval never hit a ``KeyError``; check
    ``count`` to tell a genuinely zero latency from an empty sample.
    """
    samples = [float(value) for value in values]
    if not samples:
        return {"count": 0.0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "min": 0.0, "max": 0.0}
    total = 0.0
    for value in samples:  # left to right: sum() compensates on Python >= 3.12
        total += value
    ordered = sorted(samples)
    return {
        "count": float(len(samples)),
        "mean": total / len(samples),
        "p50": _percentile_sorted(ordered, 50.0),
        "p99": _percentile_sorted(ordered, 99.0),
        "min": min(samples),
        "max": max(samples),
    }


def mean_slowdown(slowdowns: Sequence[float]) -> float:
    """Arithmetic mean of per-job slowdown factors (empty -> 0.0).

    Slowdown is ``contended_makespan / isolated_makespan`` per job; the mean
    over jobs is the workload layer's headline interference number.  An empty
    sample means no job retired, which the caller reports as 0.0 rather than
    an error so partial reports stay printable.
    """
    if not slowdowns:
        return 0.0
    return sum(float(s) for s in slowdowns) / len(slowdowns)

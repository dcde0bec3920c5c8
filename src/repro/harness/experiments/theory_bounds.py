"""Section III-B: validation of the error-propagation theorems.

Not a numbered figure in the paper, but the theory section makes quantitative
claims (Theorem 1, Corollaries 1-2, Theorem 2) that this experiment validates
with Monte-Carlo sampling and with measured codec errors, including the
paper's worked example: for 100 nodes the aggregated SUM error lies within
``+- 20/3 be`` with probability 95.44%.
"""

from __future__ import annotations

from repro.analysis.montecarlo import (
    measured_sum_coverage,
    simulate_average_error_std,
    simulate_maxmin_variance,
    simulate_sum_coverage,
)
from repro.analysis.propagation import (
    average_error_std,
    corollary1_interval,
    maxmin_error_variance,
    sigma_from_error_bound,
)
from repro.compression.szx import SZxCompressor
from repro.datasets.registry import load_field
from repro.harness.common import ERROR_BOUND, resolve_scale
from repro.harness.reporting import ExperimentResult
from repro.utils.rng import resolve_rng

__all__ = ["run_theory_bounds"]


def run_theory_bounds(scale="small", trials: int = 40_000) -> ExperimentResult:
    """Validate Theorems 1-2 and Corollaries 1-2 numerically."""
    settings = resolve_scale(scale)
    sigma = sigma_from_error_bound(ERROR_BOUND)
    result = ExperimentResult(
        experiment="theory",
        title="Error-propagation theory validation (Section III-B)",
        paper_reference=(
            "Theorem 1 / Corollary 1: SUM error within +-(2/3) sqrt(n) be with 95.44% probability "
            "(+-20/3 be at n=100); Corollary 2: AVG error shrinks by n; Theorem 2: MAX/MIN error "
            "variance (2 - (n+2)/2^n) sigma^2"
        ),
        columns=["claim", "n_nodes", "expected", "observed", "holds"],
    )

    for n_nodes in (4, 16, 100, 128):
        coverage = simulate_sum_coverage(n_nodes, sigma, trials=trials, rng=1)
        result.add_row(
            claim="Theorem 1 coverage (Monte Carlo)",
            n_nodes=n_nodes,
            expected=coverage.expected,
            observed=coverage.coverage,
            holds=coverage.satisfied,
        )

    interval = corollary1_interval(100, ERROR_BOUND)
    expected_half_width = (20.0 / 3.0) * ERROR_BOUND
    result.add_row(
        claim="Corollary 1 half-width at n=100 equals 20/3 * be",
        n_nodes=100,
        expected=expected_half_width,
        observed=interval.half_width,
        holds=abs(interval.half_width - expected_half_width) < 1e-3 * expected_half_width,
    )

    for n_nodes in (16, 100):
        observed = simulate_average_error_std(n_nodes, sigma, trials=trials, rng=2)
        expected = average_error_std(n_nodes, sigma)
        result.add_row(
            claim="Corollary 2 AVG error std",
            n_nodes=n_nodes,
            expected=expected,
            observed=observed,
            holds=abs(observed - expected) / expected < 0.1,
        )

    for n_nodes in (4, 16, 64):
        mc = simulate_maxmin_variance(n_nodes, sigma, trials=trials, rng=3)
        result.add_row(
            claim="Theorem 2 MAX/MIN variance",
            n_nodes=n_nodes,
            expected=maxmin_error_variance(n_nodes, sigma),
            observed=mc["empirical_variance"],
            holds=abs(mc["empirical_variance"] - mc["theoretical_variance"])
            / mc["theoretical_variance"]
            < 0.15,
        )

    # measured-codec validation on synthetic per-node climate data
    base = load_field("cesm", "CLOUD", seed=5).flatten()[: settings.table_points]
    rng = resolve_rng(7)
    per_node = [
        (base + rng.normal(0, 5e-3, base.size).astype(base.dtype)) for _ in range(8)
    ]
    measured = measured_sum_coverage(
        SZxCompressor(error_bound=ERROR_BOUND),
        per_node,
        error_bound=ERROR_BOUND,
        use_measured_sigma=True,
        rng=0,
    )
    result.add_row(
        claim="Theorem 1 coverage (measured SZx errors, measured sigma)",
        n_nodes=8,
        expected=measured.expected,
        observed=measured.coverage,
        holds=measured.coverage >= measured.expected - 0.03,
    )
    corollary = measured_sum_coverage(
        SZxCompressor(error_bound=ERROR_BOUND),
        per_node,
        error_bound=ERROR_BOUND,
        use_measured_sigma=False,
        rng=0,
    )
    result.add_row(
        claim="Corollary 1 coverage (measured SZx errors, be ~= 3 sigma; holds if >= 0.6)",
        n_nodes=8,
        expected=corollary.expected,
        observed=corollary.coverage,
        holds=corollary.coverage >= 0.6,
    )
    result.add_note(
        "the be ~= 3 sigma assumption is optimistic for SZx's quantisation errors (closer to "
        "uniform, sigma ~= be/sqrt(3)); Theorem 1 evaluated with the measured sigma holds as stated."
    )
    return result

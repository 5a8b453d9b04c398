"""Statistical-equivalence analysis (Section III-D, Eq. 2–3 of the paper).

The paper claims that sampling a pattern period ``dp ~ K`` and a uniform bias
each iteration makes the long-run probability of any *individual* neuron being
dropped equal to the global dropout rate of the distribution,

``p_n = Σ_i k_i (i-1)/i = p_g ≈ p``,

because for a fixed period ``i`` each neuron is dropped in exactly ``i-1`` of
the ``i`` equally-likely bias phases.  The helpers here verify that claim both
analytically and empirically (by Monte-Carlo simulation of the sampler), and
quantify sub-model diversity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dropout.patterns import row_pattern_masks
from repro.dropout.sampler import PatternSampler
from repro.dropout.search import SearchResult, pattern_drop_rates


def expected_global_drop_rate(distribution: np.ndarray) -> float:
    """Analytic global dropout rate ``Σ k_i (i-1)/i`` of a period distribution."""
    distribution = np.asarray(distribution, dtype=np.float64)
    rates = pattern_drop_rates(len(distribution))
    return float(distribution @ rates)


def analytic_unit_drop_rate(distribution: np.ndarray) -> float:
    """Per-neuron drop probability under uniform bias sampling (Eq. 2).

    For period ``i`` a given neuron is dropped under ``i-1`` of the ``i``
    equally-likely biases, so its marginal drop probability is
    ``Σ_i k_i (i-1)/i`` — identical to :func:`expected_global_drop_rate`,
    which is exactly the equivalence the paper proves.
    """
    return expected_global_drop_rate(distribution)


def empirical_unit_drop_rate(sampler: PatternSampler, num_units: int,
                             iterations: int = 2000) -> np.ndarray:
    """Monte-Carlo estimate of each neuron's drop frequency over many iterations.

    Returns an array of length ``num_units`` with the fraction of iterations in
    which each neuron was dropped.
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    # One batched draw + one vectorized mask build instead of an
    # `iterations`-long Python loop.
    periods, biases = sampler.sample_many(iterations, num_units)
    masks = row_pattern_masks(num_units, periods, biases)
    return 1.0 - masks.mean(axis=0)


def sub_model_count(num_units: int, max_period: int | None = None) -> int:
    """Number of distinct RDP sub-models: ``Σ_{i=1..N} i = N(N+1)/2``.

    Each period ``i`` contributes ``i`` distinct bias phases.  The paper
    quotes this as the count of possible sub-models for RDP.  ``max_period``
    defaults to ``num_units`` only when it is ``None``.
    """
    if num_units < 1:
        raise ValueError("num_units must be >= 1")
    if max_period is None:
        max_period = num_units
    elif max_period < 1:
        raise ValueError("max_period must be >= 1")
    max_period = min(max_period, num_units)
    return max_period * (max_period + 1) // 2


@dataclass
class EquivalenceReport:
    """Summary comparing the pattern stream to the target Bernoulli dropout."""

    target_rate: float
    analytic_global_rate: float
    analytic_unit_rate: float
    empirical_unit_rate_mean: float
    empirical_unit_rate_std: float
    max_unit_deviation: float
    entropy: float
    effective_sub_models: float

    def is_equivalent(self, tolerance: float = 0.05) -> bool:
        """True when both analytic and empirical unit rates are within tolerance."""
        return (abs(self.analytic_unit_rate - self.target_rate) <= tolerance
                and abs(self.empirical_unit_rate_mean - self.target_rate) <= tolerance)


def equivalence_report(sampler: PatternSampler, num_units: int,
                       iterations: int = 2000) -> EquivalenceReport:
    """Build a full :class:`EquivalenceReport` for a sampler and a layer width."""
    result: SearchResult = sampler.result
    distribution = result.distribution
    empirical = empirical_unit_drop_rate(sampler, num_units, iterations=iterations)
    return EquivalenceReport(
        target_rate=sampler.target_rate,
        analytic_global_rate=expected_global_drop_rate(distribution),
        analytic_unit_rate=analytic_unit_drop_rate(distribution),
        empirical_unit_rate_mean=float(empirical.mean()),
        empirical_unit_rate_std=float(empirical.std()),
        max_unit_deviation=float(np.max(np.abs(empirical - sampler.target_rate))),
        entropy=result.entropy,
        effective_sub_models=result.effective_sub_models(),
    )

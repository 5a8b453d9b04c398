"""SGD-based Search Algorithm for the dropout-pattern distribution (Algorithm 1).

Given a target global dropout rate ``p`` and the maximum pattern period ``N``,
the algorithm finds a categorical distribution ``K = {k_i}`` over pattern
periods ``dp = i ∈ {1..N}`` minimising

``loss = λ1 * || d·pu − p ||²  +  λ2 * (1/N) Σ_i d_i log d_i``

where ``d = softmax(v)`` and ``pu_i = (i−1)/i`` is the global dropout rate of
a period-``i`` pattern (period 1 keeps everything, period 2 drops half, period
``i`` drops ``(i−1)/i``).  The first term pins the *expected* global dropout
rate to the target; the second term is the (negative) entropy, so minimising
it spreads probability mass over many periods and maximises sub-model
diversity.

The optimisation is plain gradient descent on the logits ``v`` with
analytically derived gradients (no autodiff needed), exactly mirroring the
paper's description: iterate until the loss change falls below a threshold.

The paper calls the search "a one-time effort" (Section IV-C).  A seeded
search is a pure function of its inputs, so its results are interned in a
bounded, process-wide cache keyed by every input that decides them (the
search's eight hyper-parameters and the target rate), the way
:mod:`repro.dropout.patterns` interns patterns: every dropout site of a model
that asks for the same ``(p, N)`` shares one search, and a later model in the
same process pays nothing.  Results are immutable (a frozen
:class:`SearchResult` with a read-only ``distribution`` and a tuple
``loss_history``), so no caller can change what another one sees.
:func:`~repro.dropout.patterns.clear_pattern_caches` empties the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def pattern_drop_rates(max_period: int) -> np.ndarray:
    """The constant vector ``pu``: global dropout rate of each period ``1..N``.

    ``pu = [0, 1/2, 2/3, ..., (N-1)/N]`` — line 2 of Algorithm 1.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    periods = np.arange(1, max_period + 1, dtype=np.float64)
    return (periods - 1.0) / periods


def softmax(v: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over a 1-D logit vector."""
    shifted = v - v.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the SGD-based search (immutable: results are shared).

    Attributes
    ----------
    distribution:
        The probability ``k_i`` of each pattern period ``i = 1..N`` (sums to
        1; read-only).
    target_rate:
        The requested global dropout rate ``p``.
    achieved_rate:
        The expected global dropout rate ``Σ k_i (i-1)/i`` under the result.
    entropy:
        Shannon entropy of the distribution in nats.
    iterations:
        Number of gradient steps performed.
    loss_history:
        Loss value after every step (useful for convergence tests/plots).
    converged:
        Whether the |Δloss| threshold was reached before the iteration cap.
    """

    distribution: np.ndarray
    target_rate: float
    achieved_rate: float
    entropy: float
    iterations: int
    loss_history: tuple[float, ...] = ()
    converged: bool = True

    @property
    def max_period(self) -> int:
        return len(self.distribution)

    def rate_error(self) -> float:
        """Absolute difference between achieved and target global dropout rate."""
        return abs(self.achieved_rate - self.target_rate)

    def effective_sub_models(self) -> float:
        """Perplexity of the distribution, ``exp(entropy)`` — a diversity measure."""
        return float(np.exp(self.entropy))


class PatternDistributionSearch:
    """Implementation of Algorithm 1.

    Parameters
    ----------
    max_period:
        ``N`` — the largest pattern period considered (``dp_max``).  For RDP
        this is bounded by the layer width; for TDP by the number of tiles.
    lambda_rate:
        ``λ1`` — weight on the squared rate error.
    lambda_entropy:
        ``λ2`` — weight on the negative entropy; the paper requires
        ``λ1 + λ2 = 1``.
    learning_rate, max_iterations, threshold:
        SGD hyper-parameters; iteration stops when ``|Δloss| < threshold`` or
        the cap is hit.  The step size decays as ``lr / (1 + t / decay)`` so
        the iterates settle and the |Δloss| stopping rule is reachable.
    decay:
        Time constant (in iterations) of the learning-rate decay.
    """

    def __init__(self, max_period: int, lambda_rate: float = 0.95,
                 lambda_entropy: float = 0.05, learning_rate: float = 0.5,
                 max_iterations: int = 20000, threshold: float = 1e-9,
                 decay: float = 200.0, seed: int | None = 0):
        if max_period < 1:
            raise ValueError("max_period must be >= 1")
        if lambda_rate < 0 or lambda_entropy < 0:
            raise ValueError("lambda weights must be non-negative")
        if not np.isclose(lambda_rate + lambda_entropy, 1.0):
            raise ValueError(
                f"lambda_rate + lambda_entropy must equal 1 (paper constraint), "
                f"got {lambda_rate} + {lambda_entropy}")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.max_period = int(max_period)
        self.lambda_rate = float(lambda_rate)
        self.lambda_entropy = float(lambda_entropy)
        self.learning_rate = float(learning_rate)
        self.max_iterations = int(max_iterations)
        self.threshold = float(threshold)
        if decay <= 0:
            raise ValueError("decay must be positive")
        self.decay = float(decay)
        self.seed = seed
        self.pattern_rates = pattern_drop_rates(self.max_period)

    def loss(self, distribution: np.ndarray, target_rate: float) -> float:
        """Evaluate the Algorithm 1 loss for a given distribution ``d``."""
        d = np.asarray(distribution, dtype=np.float64)
        rate_error = float(d @ self.pattern_rates - target_rate)
        energy = self.lambda_rate * rate_error ** 2
        entropy_term = self.lambda_entropy * float(
            np.mean(d * np.log(np.clip(d, 1e-12, None))))
        return energy + entropy_term

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(self, target_rate: float) -> SearchResult:
        """Run the search for a target global dropout rate ``p``.

        Returns a :class:`SearchResult` whose ``distribution`` satisfies
        ``Σ k_i (i-1)/i ≈ p`` while remaining as spread-out as the entropy
        weight allows.  With an integer ``seed`` the result is interned: a
        search with the same inputs returns the same (immutable) object
        without running again.  Any other seed (``None`` starts from fresh
        random logits) runs the descent every time.
        """
        if not 0.0 <= target_rate < 1.0:
            raise ValueError(f"target dropout rate must be in [0, 1), got {target_rate}")
        max_reachable = float(self.pattern_rates[-1])
        if target_rate > max_reachable:
            raise ValueError(
                f"target rate {target_rate} exceeds the maximum reachable global rate "
                f"{max_reachable:.3f} with max_period={self.max_period}; "
                f"increase max_period")
        inputs = (self.max_period, self.lambda_rate, self.lambda_entropy,
                  self.learning_rate, self.max_iterations, self.threshold,
                  self.decay, self.seed, float(target_rate))
        if isinstance(self.seed, (int, np.integer)):
            return _interned_search(*inputs)
        return _descend(*inputs)

    def search_many(self, target_rates: list[float]) -> dict[float, SearchResult]:
        """Convenience helper: run the search for several target rates."""
        return {rate: self.search(rate) for rate in target_rates}


def _descend(max_period: int, lambda_rate: float, lambda_entropy: float,
             learning_rate: float, max_iterations: int, threshold: float,
             decay: float, seed, target_rate: float) -> SearchResult:
    """Algorithm 1's gradient descent on the softmax logits, uncached."""
    pattern_rates = pattern_drop_rates(max_period)
    logits = np.random.default_rng(seed).normal(0.0, 0.1, size=max_period)
    loss_history: list[float] = []
    previous_loss = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        d = softmax(logits)
        log_d = np.log(np.maximum(d, 1e-12))
        rate_error = float(d @ pattern_rates - target_rate)
        loss = (lambda_rate * rate_error ** 2
                + lambda_entropy * float((d * log_d).sum() / max_period))
        loss_history.append(loss)
        if abs(previous_loss - loss) < threshold:
            converged = True
            break
        previous_loss = loss
        # dLoss/dd, then back through the softmax: dv_i = d_i (g_i - Σ_j g_j d_j).
        # Both dot products are ``@`` on purpose (``np.dot`` may round
        # differently); the tests pin every loss bit against a reference loop.
        grad_d = (lambda_rate * 2.0 * rate_error * pattern_rates
                  + lambda_entropy * (log_d + 1.0) / max_period)
        grad_v = d * (grad_d - float(grad_d @ d))
        step = learning_rate / (1.0 + iterations / decay)
        logits = logits - step * grad_v

    distribution = softmax(logits)
    distribution.flags.writeable = False
    entropy = float(-np.sum(distribution * np.log(np.maximum(distribution, 1e-12))))
    return SearchResult(
        distribution=distribution,
        target_rate=target_rate,
        achieved_rate=float(distribution @ pattern_rates),
        entropy=entropy,
        iterations=iterations,
        loss_history=tuple(loss_history),
        converged=converged,
    )


# Each entry holds a loss history of up to ``max_iterations`` floats (about
# 0.6 MB at the default 20,000), so the table is bounded.
@lru_cache(maxsize=64)
def _interned_search(*inputs) -> SearchResult:
    """:func:`_descend`, once per distinct set of inputs."""
    return _descend(*inputs)

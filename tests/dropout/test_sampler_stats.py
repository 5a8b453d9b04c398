"""Statistical tests for the vectorized (batched) pattern sampler.

The pattern-pool engine replaces per-step scalar RNG draws with one batched
draw per epoch; these tests check the replacement is statistically faithful:
the empirical drop rate matches the target, the period distribution matches
the searched distribution ``K`` (and the scalar sampler's), and the
distribution entropy — the paper's sub-model-diversity measure — is preserved.
"""

import numpy as np
import pytest

from repro.dropout import (
    ApproxDropConnectLinear,
    ApproxRandomDropout,
    PatternSampler,
    row_keep_counts,
    row_pattern_mask,
    row_pattern_masks,
)

N_DRAWS = 20_000


def empirical_period_distribution(periods: np.ndarray, max_period: int) -> np.ndarray:
    counts = np.bincount(periods - 1, minlength=max_period)
    return counts / counts.sum()


def entropy(distribution: np.ndarray) -> float:
    clipped = np.clip(distribution, 1e-12, None)
    return float(-np.sum(distribution * np.log(clipped)))


class TestVectorizedSamplerStatistics:
    @pytest.mark.parametrize("target", [0.3, 0.5, 0.7])
    def test_empirical_drop_rate_matches_target(self, target):
        site = ApproxRandomDropout(128, target, max_period=16,
                                   rng=np.random.default_rng(0))
        patterns = site.draw_pool(N_DRAWS)
        mean_rate = float(np.mean([p.drop_rate for p in patterns]))
        # The achieved rate of the search is within 0.02 of the target, and
        # 20k draws put the Monte-Carlo error well below 0.01.
        assert abs(mean_rate - target) < 0.03

    def test_period_distribution_matches_searched_distribution(self):
        sampler = PatternSampler(0.5, max_period=16, rng=np.random.default_rng(1))
        periods, _ = sampler.sample_many(N_DRAWS, limit=16)
        empirical = empirical_period_distribution(periods, 16)
        total_variation = 0.5 * np.abs(empirical - sampler.distribution).sum()
        assert total_variation < 0.02

    def test_entropy_preserved(self):
        """Pattern-distribution entropy (sub-model diversity) survives batching."""
        sampler = PatternSampler(0.6, max_period=16, rng=np.random.default_rng(2))
        periods, _ = sampler.sample_many(N_DRAWS, limit=16)
        empirical = empirical_period_distribution(periods, 16)
        assert abs(entropy(empirical) - sampler.result.entropy) < 0.05

    def test_vectorized_matches_scalar_sampler(self):
        """Batched and scalar draws realise the same period distribution."""
        vec = PatternSampler(0.5, max_period=12, rng=np.random.default_rng(3))
        scalar = PatternSampler(0.5, max_period=12, rng=np.random.default_rng(4))
        vec_periods, _ = vec.sample_many(N_DRAWS, limit=12)
        scalar_periods = np.array([scalar.sample_period() for _ in range(4000)])
        vec_dist = empirical_period_distribution(vec_periods, 12)
        scalar_dist = empirical_period_distribution(scalar_periods, 12)
        total_variation = 0.5 * np.abs(vec_dist - scalar_dist).sum()
        assert total_variation < 0.04
        assert abs(entropy(vec_dist) - entropy(scalar_dist)) < 0.1

    def test_biases_uniform_conditional_on_period(self):
        sampler = PatternSampler(0.7, max_period=8, rng=np.random.default_rng(5))
        periods, biases = sampler.sample_many(N_DRAWS, limit=8)
        assert np.all(biases >= 0) and np.all(biases < periods)
        for dp in (2, 3, 4):
            conditional = biases[periods == dp]
            if len(conditional) < 500:
                continue
            freqs = np.bincount(conditional, minlength=dp) / len(conditional)
            np.testing.assert_allclose(freqs, 1.0 / dp, atol=0.05)

    def test_per_unit_drop_rate_uniform_across_units(self):
        """No unit is systematically favoured by the pooled pattern stream."""
        site = ApproxRandomDropout(64, 0.5, max_period=8,
                                   rng=np.random.default_rng(6))
        patterns = site.draw_pool(4000)
        drop_freq = np.zeros(64)
        for pattern in patterns:
            drop_freq += 1.0 - pattern.mask()
        drop_freq /= len(patterns)
        assert abs(drop_freq.mean() - site.sampler.expected_drop_rate()) < 0.03
        assert drop_freq.std() < 0.05

    def test_sample_many_validation(self):
        sampler = PatternSampler(0.5, max_period=8, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            sampler.sample_many(0, limit=8)

    def test_tile_patterns_period_clipped_to_tile_count(self):
        site = ApproxDropConnectLinear(8, 8, 0.5, tile=4, max_period=16,
                                       rng=np.random.default_rng(7))
        patterns = site.draw_pool(200)  # 4 tiles
        assert all(p.dp <= 4 for p in patterns)
        assert all(p.bias < p.dp for p in patterns)


class TestVectorizedMaskHelpers:
    def test_batched_masks_match_scalar_masks(self):
        periods = np.array([1, 2, 3, 5, 5])
        biases = np.array([0, 1, 2, 0, 4])
        batched = row_pattern_masks(17, periods, biases)
        assert batched.shape == (5, 17)
        for row, (dp, b) in enumerate(zip(periods, biases)):
            np.testing.assert_array_equal(batched[row],
                                          row_pattern_mask(17, int(dp), int(b)))

    def test_keep_counts_match_mask_sums(self):
        rng = np.random.default_rng(0)
        periods = rng.integers(1, 9, size=50)
        biases = (rng.random(50) * periods).astype(np.int64)
        counts = row_keep_counts(23, periods, biases)
        masks = row_pattern_masks(23, periods, biases)
        np.testing.assert_array_equal(counts, masks.sum(axis=1).astype(np.int64))

    def test_validation(self):
        with pytest.raises(ValueError):
            row_pattern_masks(8, np.array([2, 2]), np.array([0]))
        with pytest.raises(ValueError):
            row_pattern_masks(8, np.array([2]), np.array([2]))
        with pytest.raises(ValueError):
            row_keep_counts(8, np.array([0]), np.array([0]))

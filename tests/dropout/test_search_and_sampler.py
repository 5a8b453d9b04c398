"""Tests for Algorithm 1 (distribution search), the sampler and the statistics."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dropout import search as search_module
from repro.dropout import (
    PatternDistributionSearch,
    PatternSampler,
    PatternSchedule,
    RowDropoutPattern,
    TileDropoutPattern,
    empirical_unit_drop_rate,
    equivalence_report,
    expected_global_drop_rate,
    pattern_drop_rates,
    sub_model_count,
)
from repro.dropout.layers import default_max_period
from repro.dropout.patterns import clear_pattern_caches
from repro.execution import EngineRuntime, ExecutionConfig
from repro.models import LSTMConfig, LSTMLanguageModel, MLPClassifier, MLPConfig


class TestPatternDropRates:
    def test_values(self):
        rates = pattern_drop_rates(4)
        assert np.allclose(rates, [0.0, 0.5, 2 / 3, 0.75])

    def test_invalid(self):
        with pytest.raises(ValueError):
            pattern_drop_rates(0)


class TestSearchValidation:
    def test_lambda_sum_constraint(self):
        with pytest.raises(ValueError):
            PatternDistributionSearch(max_period=8, lambda_rate=0.5, lambda_entropy=0.1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            PatternDistributionSearch(max_period=0)
        with pytest.raises(ValueError):
            PatternDistributionSearch(max_period=8, learning_rate=0.0)
        with pytest.raises(ValueError):
            PatternDistributionSearch(max_period=8, max_iterations=0)

    def test_target_rate_out_of_range(self):
        search = PatternDistributionSearch(max_period=8)
        with pytest.raises(ValueError):
            search.search(1.0)
        with pytest.raises(ValueError):
            search.search(-0.1)

    def test_unreachable_rate_raises(self):
        search = PatternDistributionSearch(max_period=2)  # max achievable 0.5
        with pytest.raises(ValueError):
            search.search(0.8)


class TestSearchBehaviour:
    @pytest.mark.parametrize("target", [0.3, 0.5, 0.7])
    def test_achieves_target_rate(self, target):
        result = PatternDistributionSearch(max_period=16).search(target)
        assert result.rate_error() < 0.02
        assert np.isclose(result.distribution.sum(), 1.0)
        assert np.all(result.distribution >= 0)

    def test_converges_for_moderate_rates(self):
        result = PatternDistributionSearch(max_period=16).search(0.5)
        assert result.converged
        assert result.iterations < 20000

    def test_loss_history_decreases_overall(self):
        result = PatternDistributionSearch(max_period=16).search(0.6)
        assert result.loss_history[-1] <= result.loss_history[0]

    def test_zero_rate_concentrates_on_period_one(self):
        result = PatternDistributionSearch(max_period=8).search(0.0)
        assert result.distribution[0] > 0.5
        assert result.achieved_rate < 0.1

    def test_entropy_weight_increases_diversity(self):
        low = PatternDistributionSearch(max_period=16, lambda_rate=0.99,
                                        lambda_entropy=0.01).search(0.5)
        high = PatternDistributionSearch(max_period=16, lambda_rate=0.7,
                                         lambda_entropy=0.3).search(0.5)
        assert high.entropy >= low.entropy - 1e-6

    def test_loss_method_matches_internal(self):
        search = PatternDistributionSearch(max_period=8)
        result = search.search(0.4)
        direct = search.loss(result.distribution, 0.4)
        assert np.isfinite(direct)
        assert direct == pytest.approx(result.loss_history[-1], abs=1e-3)

    def test_search_many(self):
        results = PatternDistributionSearch(max_period=8).search_many([0.3, 0.5])
        assert set(results) == {0.3, 0.5}

    def test_effective_sub_models_positive(self):
        result = PatternDistributionSearch(max_period=16).search(0.5)
        assert result.effective_sub_models() > 1.0

    def test_deterministic_given_seed(self):
        a = PatternDistributionSearch(max_period=8, seed=3).search(0.5)
        b = PatternDistributionSearch(max_period=8, seed=3).search(0.5)
        assert np.allclose(a.distribution, b.distribution)


class TestPatternSampler:
    def test_sample_period_within_range(self, rng):
        sampler = PatternSampler(0.5, max_period=8, rng=rng)
        for _ in range(50):
            assert 1 <= sampler.sample_period() <= 8

    def test_sample_bias_uniform_range(self, rng):
        sampler = PatternSampler(0.5, max_period=8, rng=rng)
        biases = {sampler.sample_bias(4) for _ in range(200)}
        assert biases == {0, 1, 2, 3}

    def test_sample_bias_invalid(self, rng):
        with pytest.raises(ValueError):
            PatternSampler(0.5, 8, rng=rng).sample_bias(0)

    def test_sample_row_pattern_caps_period_at_width(self, rng):
        sampler = PatternSampler(0.5, max_period=8, rng=rng)
        pattern = sampler.sample_row_pattern(num_units=3)
        assert isinstance(pattern, RowDropoutPattern)
        assert pattern.dp <= 3

    def test_sample_tile_pattern(self, rng):
        sampler = PatternSampler(0.5, max_period=8, rng=rng)
        pattern = sampler.sample_tile_pattern(rows=64, cols=64, tile=32)
        assert isinstance(pattern, TileDropoutPattern)
        assert pattern.dp <= pattern.num_tiles

    def test_expected_drop_rate_matches_target(self, rng):
        sampler = PatternSampler(0.6, max_period=16, rng=rng)
        assert abs(sampler.expected_drop_rate() - 0.6) < 0.02

    def test_mean_sampled_rate_matches_target(self, rng):
        sampler = PatternSampler(0.5, max_period=8, rng=rng)
        rates = [sampler.sample_row_pattern(128).drop_rate for _ in range(800)]
        assert abs(np.mean(rates) - 0.5) < 0.05

    def test_search_result_cached(self, rng):
        sampler = PatternSampler(0.5, max_period=8, rng=rng)
        assert sampler.result is sampler.result


class TestPatternSchedule:
    def test_register_and_resample(self, rng):
        schedule = PatternSchedule(rng=rng)
        schedule.register_row_site("fc1", num_units=64, target_rate=0.5)
        schedule.register_tile_site("fc2", rows=64, cols=64, target_rate=0.5)
        patterns = schedule.resample()
        assert set(patterns) == {"fc1", "fc2"}
        assert isinstance(schedule.current("fc1"), RowDropoutPattern)
        assert isinstance(schedule.current("fc2"), TileDropoutPattern)
        assert len(schedule) == 2
        assert schedule.iteration == 1

    def test_duplicate_site_rejected(self, rng):
        schedule = PatternSchedule(rng=rng)
        schedule.register_row_site("fc1", num_units=8, target_rate=0.5)
        with pytest.raises(ValueError):
            schedule.register_row_site("fc1", num_units=8, target_rate=0.5)

    def test_unknown_site(self, rng):
        with pytest.raises(KeyError):
            PatternSchedule(rng=rng).current("missing")

    def test_current_before_resample_raises(self, rng):
        schedule = PatternSchedule(rng=rng)
        schedule.register_row_site("fc1", num_units=8, target_rate=0.5)
        with pytest.raises(RuntimeError):
            schedule.current("fc1")

    def test_resample_changes_patterns_over_time(self, rng):
        schedule = PatternSchedule(rng=rng)
        schedule.register_row_site("fc1", num_units=64, target_rate=0.5)
        seen = set()
        for _ in range(30):
            pattern = schedule.resample()["fc1"]
            seen.add((pattern.dp, pattern.bias))
        assert len(seen) > 1


class TestStatistics:
    def test_expected_global_drop_rate(self):
        # All mass on period 2 -> rate 0.5 exactly.
        assert expected_global_drop_rate(np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_sub_model_count(self):
        assert sub_model_count(4) == 10
        assert sub_model_count(2048, max_period=8) == 36

    def test_empirical_unit_drop_rate_matches_target(self, rng):
        sampler = PatternSampler(0.5, max_period=8, rng=rng)
        rates = empirical_unit_drop_rate(sampler, num_units=64, iterations=1200)
        assert rates.shape == (64,)
        assert abs(rates.mean() - 0.5) < 0.05

    def test_empirical_invalid_iterations(self, rng):
        with pytest.raises(ValueError):
            empirical_unit_drop_rate(PatternSampler(0.5, 8, rng=rng), 8, iterations=0)

    def test_equivalence_report(self, rng):
        sampler = PatternSampler(0.3, max_period=8, rng=rng)
        report = equivalence_report(sampler, num_units=64, iterations=1000)
        assert report.is_equivalent(tolerance=0.06)
        assert report.effective_sub_models > 1.0
        assert report.analytic_unit_rate == pytest.approx(report.analytic_global_rate)


class TestDefaultMaxPeriod:
    def test_zero_rate(self):
        assert default_max_period(0.0, 100) == 1

    @pytest.mark.parametrize("rate", [0.3, 0.5, 0.7, 0.9])
    def test_can_express_rate(self, rate):
        period = default_max_period(rate, 4096)
        assert (period - 1) / period > rate or period >= 3

    def test_clipped_by_available(self):
        assert default_max_period(0.7, 2) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            default_max_period(1.5, 10)
        with pytest.raises(ValueError):
            default_max_period(0.5, 0)


@settings(max_examples=25, deadline=None)
@given(target=st.floats(0.05, 0.8), max_period=st.integers(6, 24))
def test_search_rate_error_bounded_property(target, max_period):
    """For any reasonable target and period budget the achieved rate is close."""
    result = PatternDistributionSearch(max_period=max_period,
                                       max_iterations=4000).search(target)
    assert result.rate_error() < 0.05
    assert np.isclose(result.distribution.sum(), 1.0)


# ----------------------------------------------------------------------
# interning and the trimmed descent
# ----------------------------------------------------------------------

def reference_search(search: PatternDistributionSearch, target_rate: float):
    """The descent as it ran before the loop was trimmed (two logs per
    iteration, ``np.clip``, ``np.mean``), kept as the bit-exact oracle:
    (distribution, loss history, iterations, converged)."""
    def softmax(v):
        exp = np.exp(v - np.max(v))
        return exp / exp.sum()

    rates = pattern_drop_rates(search.max_period)
    logits = np.random.default_rng(search.seed).normal(
        0.0, 0.1, size=search.max_period)
    history, previous, converged, iterations = [], np.inf, False, 0
    for iterations in range(1, search.max_iterations + 1):
        d = softmax(logits)
        safe_d = np.clip(d, 1e-12, None)
        rate_error = float(d @ rates - target_rate)
        loss = (search.lambda_rate * rate_error ** 2
                + search.lambda_entropy * float(np.mean(d * np.log(safe_d))))
        grad_d = (search.lambda_rate * 2.0 * rate_error * rates
                  + search.lambda_entropy * (np.log(safe_d) + 1.0)
                  / search.max_period)
        grad_v = d * (grad_d - float(grad_d @ d))
        history.append(loss)
        if abs(previous - loss) < search.threshold:
            converged = True
            break
        previous = loss
        logits = logits - (search.learning_rate
                           / (1.0 + iterations / search.decay)) * grad_v
    return softmax(logits), history, iterations, converged


@pytest.fixture
def searches(monkeypatch):
    """The inputs of every uncached search, from empty caches on."""
    seen = []
    descend = search_module._descend

    def spy(*inputs):
        seen.append(inputs)
        return descend(*inputs)

    clear_pattern_caches()
    monkeypatch.setattr(search_module, "_descend", spy)
    yield seen
    clear_pattern_caches()


SEARCH_FIELDS = dict(max_period=8, lambda_rate=0.95, lambda_entropy=0.05,
                     learning_rate=0.5, max_iterations=300, threshold=1e-9,
                     decay=200.0, seed=0)


class TestSearchInterning:
    def test_mlp_train_model_runs_one_search(self, searches):
        # 784-1024-1024-10 at rate 0.7: both sites search N=4, p=0.7.
        model = MLPClassifier(MLPConfig(
            input_size=784, hidden_sizes=(1024, 1024), num_classes=10,
            drop_rates=(0.7, 0.7), strategy="row", seed=1))
        EngineRuntime(ExecutionConfig(mode="pooled", seed=1)).bind(model).step()
        assert [inputs[0] for inputs in searches] == [4]

    def test_tiled_lstm_runs_one_search(self, searches):
        # Input, recurrent and output sites all search N=3, p=0.3.
        model = LSTMLanguageModel(LSTMConfig(
            vocab_size=50, embed_size=64, hidden_size=64, num_layers=2,
            drop_rates=(0.3, 0.3), strategy="row", seed=1))
        EngineRuntime(ExecutionConfig(mode="pooled", recurrent="tiled",
                                      seed=1)).bind(model).step()
        assert [inputs[0] for inputs in searches] == [3]

    def test_equal_inputs_share_one_byte_equal_result(self, searches):
        first = PatternDistributionSearch(**SEARCH_FIELDS).search(0.5)
        second = PatternDistributionSearch(**SEARCH_FIELDS).search(0.5)
        assert len(searches) == 1
        assert second is first
        fresh = search_module._descend(*searches[0])
        assert fresh.distribution.tobytes() == first.distribution.tobytes()
        assert ([loss.hex() for loss in fresh.loss_history]
                == [loss.hex() for loss in first.loss_history])

    @pytest.mark.parametrize("field,value", [
        ("max_period", 9), ("lambda_rate", 0.95 + 1e-9),
        ("lambda_entropy", 0.05 + 1e-9), ("learning_rate", 0.4),
        ("max_iterations", 301), ("threshold", 1e-8), ("decay", 100.0),
        ("seed", 1), ("target_rate", 0.4)])
    def test_each_key_field_searches_again(self, searches, field, value):
        PatternDistributionSearch(**SEARCH_FIELDS).search(0.5)
        fields = dict(SEARCH_FIELDS)
        rate = value if field == "target_rate" else 0.5
        if field != "target_rate":
            fields[field] = value
        PatternDistributionSearch(**fields).search(rate)
        assert len(searches) == 2

    def test_unseeded_search_is_never_interned(self, searches):
        fields = dict(SEARCH_FIELDS, seed=None)
        first = PatternDistributionSearch(**fields).search(0.5)
        second = PatternDistributionSearch(**fields).search(0.5)
        assert len(searches) == 2
        assert second is not first

    def test_clear_pattern_caches_forces_a_new_search(self, searches):
        PatternDistributionSearch(**SEARCH_FIELDS).search(0.5)
        clear_pattern_caches()
        PatternDistributionSearch(**SEARCH_FIELDS).search(0.5)
        assert len(searches) == 2

    def test_results_are_read_only(self):
        result = PatternDistributionSearch(**SEARCH_FIELDS).search(0.5)
        with pytest.raises(ValueError):
            result.distribution[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.iterations = 1
        assert isinstance(result.loss_history, tuple)


def assert_matches_reference(search: PatternDistributionSearch,
                             rate: float) -> None:
    result = search.search(rate)
    distribution, history, iterations, converged = reference_search(search, rate)
    assert result.distribution.tobytes() == distribution.tobytes()
    assert ([loss.hex() for loss in result.loss_history]
            == [loss.hex() for loss in history])
    assert (result.iterations, result.converged) == (iterations, converged)


@pytest.mark.parametrize("max_period,rates", [
    (1, (0.0,)), (2, (0.0, 0.3, 0.5)), (3, (0.1, 0.3, 0.6)),
    (4, (0.3, 0.5, 0.7)), (16, (0.3, 0.7, 0.9)), (64, (0.1, 0.5, 0.9))])
def test_descent_matches_the_untrimmed_loop_bit_for_bit(max_period, rates):
    for rate, (lambda_rate, seed) in itertools.product(
            rates, [(0.95, 0), (0.7, 3), (0.99, 11)]):
        assert_matches_reference(PatternDistributionSearch(
            max_period=max_period, lambda_rate=lambda_rate,
            lambda_entropy=1.0 - lambda_rate, max_iterations=1500, seed=seed),
            rate)


@pytest.mark.parametrize("max_period,rate", [(4, 0.7), (3, 0.3)])
def test_benchmark_searches_match_the_untrimmed_loop(max_period, rate):
    """The default settings the benchmark workloads search with (20,000
    iterations; N=4 at 0.7 never converges)."""
    assert_matches_reference(PatternDistributionSearch(max_period=max_period),
                             rate)

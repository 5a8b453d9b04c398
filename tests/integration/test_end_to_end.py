"""Integration tests: full training runs tying the whole stack together.

These exercise the paper's central claims end-to-end at a small scale:
training with the approximate dropout patterns works (the model learns), the
pattern stream is statistically equivalent to the target Bernoulli rate, and
the modelled GPU time of a pattern run is lower than the conventional-dropout
baseline while the learned accuracy stays in the same band.
"""

import pytest

from repro.data import make_synthetic_mnist
from repro.dropout import PatternSampler, equivalence_report
from repro.models import MLPClassifier, MLPConfig, LSTMConfig, LSTMLanguageModel
from repro.training import (
    ClassifierTrainer,
    ClassifierTrainingConfig,
    LanguageModelTrainer,
    LanguageModelTrainingConfig,
)


@pytest.fixture(scope="module")
def easy_mnist():
    """A moderately easy digit task so short training runs reach high accuracy."""
    return make_synthetic_mnist(num_train=900, num_test=300, noise=0.35,
                                prototypes_per_class=4, label_noise=0.02, seed=11)


def train_mlp(strategy, data, rates=(0.3, 0.3), epochs=6, hidden=96):
    model = MLPClassifier(MLPConfig(hidden_sizes=(hidden, hidden), drop_rates=rates,
                                    strategy=strategy, seed=1))
    trainer = ClassifierTrainer(model, data, ClassifierTrainingConfig(
        batch_size=64, epochs=epochs, learning_rate=0.01, seed=1))
    return trainer.train()


class TestMLPEndToEnd:
    @pytest.mark.parametrize("strategy", ["original", "row", "tile"])
    def test_each_strategy_learns(self, easy_mnist, strategy):
        result = train_mlp(strategy, easy_mnist)
        assert result.final_metric > 0.6, f"{strategy} failed to learn"

    def test_approximate_dropout_accuracy_close_to_baseline(self, easy_mnist):
        """The headline accuracy claim, at reduced scale with a loose band."""
        baseline = train_mlp("original", easy_mnist)
        row = train_mlp("row", easy_mnist)
        assert row.final_metric > baseline.final_metric - 0.10

    def test_row_run_is_faster_on_modelled_gpu_time(self, easy_mnist):
        baseline = train_mlp("original", easy_mnist, epochs=1)
        row = train_mlp("row", easy_mnist, epochs=1)
        assert row.iterations == baseline.iterations
        assert row.simulated_time_ms < baseline.simulated_time_ms

    def test_deterministic_given_seed(self, easy_mnist):
        first = train_mlp("row", easy_mnist, epochs=1)
        second = train_mlp("row", easy_mnist, epochs=1)
        assert first.final_metric == pytest.approx(second.final_metric)


class TestLSTMEndToEnd:
    def test_row_lstm_learns_language_structure(self, tiny_corpus):
        model = LSTMLanguageModel(LSTMConfig(
            vocab_size=tiny_corpus.vocab_size, embed_size=20, hidden_size=32,
            num_layers=2, drop_rates=(0.3, 0.3), strategy="row", seed=2))
        trainer = LanguageModelTrainer(model, tiny_corpus, LanguageModelTrainingConfig(
            batch_size=5, seq_len=12, epochs=3, learning_rate=1.0, seed=2))
        result = trainer.train()
        # Better than a uniform model over the vocabulary.
        assert result.final_metric < tiny_corpus.vocab_size * 0.8
        assert result.speedup > 1.0


class TestStatisticalEquivalenceEndToEnd:
    @pytest.mark.parametrize("rate", [0.3, 0.5, 0.7])
    def test_sampled_pattern_stream_matches_bernoulli_rate(self, rate, rng):
        sampler = PatternSampler(rate, max_period=8, rng=rng)
        report = equivalence_report(sampler, num_units=128, iterations=1500)
        assert report.is_equivalent(tolerance=0.05)
        assert abs(report.analytic_global_rate - rate) < 0.02

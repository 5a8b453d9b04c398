"""Tests for the training harness (classifier + language model) and history records."""

import numpy as np
import pytest

from repro.data.batching import BPTTBatcher
from repro.execution import EngineRuntime, ExecutionConfig
from repro.models import LSTMConfig, LSTMLanguageModel, MLPClassifier, MLPConfig
from repro.tensor.dirty import active_tracker
from repro.training import (
    ClassifierTrainer,
    ClassifierTrainingConfig,
    LanguageModelTrainer,
    LanguageModelTrainingConfig,
    TrainingHistory,
    TrainingResult,
)


class TestTrainingHistory:
    def test_record_and_arrays(self):
        history = TrainingHistory()
        history.record(10, 2.0, 0.5, 100.0, 1.0)
        history.record(20, 1.5, 0.6, 200.0, 2.0)
        assert len(history) == 2
        arrays = history.as_arrays()
        assert np.allclose(arrays["eval_metric"], [0.5, 0.6])
        assert history.best_metric() == 0.6
        assert history.best_metric(higher_is_better=False) == 0.5

    def test_best_metric_empty_raises(self):
        with pytest.raises(ValueError):
            TrainingHistory().best_metric()

    def test_training_result_speedup(self):
        result = TrainingResult(strategy="ROW", final_metric=0.9, best_metric=0.9,
                                iterations=100, simulated_time_ms=50.0,
                                simulated_baseline_time_ms=100.0, wall_time_s=1.0,
                                history=TrainingHistory())
        assert result.speedup == pytest.approx(2.0)
        assert result.time_saved_fraction == pytest.approx(0.5)


class TestClassifierTrainingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClassifierTrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            ClassifierTrainingConfig(learning_rate=0)
        with pytest.raises(ValueError):
            ClassifierTrainingConfig(momentum=1.0)


class TestClassifierTrainer:
    def make_trainer(self, tiny_mnist, strategy="original", epochs=1):
        model = MLPClassifier(MLPConfig(hidden_sizes=(48, 48), drop_rates=(0.5, 0.5),
                                        strategy=strategy, seed=0))
        config = ClassifierTrainingConfig(batch_size=50, epochs=epochs,
                                          learning_rate=0.02, seed=0)
        return ClassifierTrainer(model, tiny_mnist, config)

    def test_training_improves_over_chance(self, tiny_mnist):
        trainer = self.make_trainer(tiny_mnist, epochs=3)
        result = trainer.train()
        assert result.final_metric > 0.3  # chance is 0.1
        assert result.iterations == 3 * (400 // 50)
        assert result.simulated_time_ms > 0
        assert result.strategy == "original"
        assert len(result.history) >= 3

    def test_max_iterations_cap(self, tiny_mnist):
        model = MLPClassifier(MLPConfig(hidden_sizes=(32, 32), drop_rates=(0.3, 0.3),
                                        strategy="row", seed=0))
        config = ClassifierTrainingConfig(batch_size=50, epochs=10, max_iterations=5)
        trainer = ClassifierTrainer(model, tiny_mnist, config)
        assert trainer.train().iterations == 5

    def test_row_strategy_speedup_recorded(self, tiny_mnist):
        trainer = self.make_trainer(tiny_mnist, strategy="row")
        result = trainer.train()
        # The 48-unit test network is too small to benefit (Table I trend:
        # speedup grows with layer width); the record itself must still differ
        # from the baseline and stay in a sane band.
        assert result.simulated_time_ms != result.simulated_baseline_time_ms
        assert 0.8 < result.speedup < 2.0

    def test_baseline_speedup_is_one(self, tiny_mnist):
        trainer = self.make_trainer(tiny_mnist, strategy="original")
        assert trainer.train().speedup == pytest.approx(1.0)

    def test_evaluate_in_unit_interval(self, tiny_mnist):
        trainer = self.make_trainer(tiny_mnist)
        assert 0.0 <= trainer.evaluate() <= 1.0

    def test_train_step_returns_finite_loss(self, tiny_mnist):
        trainer = self.make_trainer(tiny_mnist)
        loss = trainer.train_step(tiny_mnist.train_images[:50], tiny_mnist.train_labels[:50])
        assert np.isfinite(loss)

    def test_eval_every_records_intermediate_points(self, tiny_mnist):
        model = MLPClassifier(MLPConfig(hidden_sizes=(32, 32), drop_rates=(0.3, 0.3),
                                        strategy="original", seed=0))
        config = ClassifierTrainingConfig(batch_size=50, epochs=1, eval_every=2)
        result = ClassifierTrainer(model, tiny_mnist, config).train()
        assert len(result.history) >= 3


class TestLanguageModelTrainer:
    def make_trainer(self, tiny_corpus, strategy="original", epochs=1,
                     eval_metric="perplexity"):
        model = LSTMLanguageModel(LSTMConfig(
            vocab_size=tiny_corpus.vocab_size, embed_size=16, hidden_size=24,
            num_layers=2, drop_rates=(0.3, 0.3), strategy=strategy, seed=0))
        config = LanguageModelTrainingConfig(batch_size=5, seq_len=12, epochs=epochs,
                                             learning_rate=1.0, eval_metric=eval_metric,
                                             seed=0)
        return LanguageModelTrainer(model, tiny_corpus, config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LanguageModelTrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            LanguageModelTrainingConfig(eval_metric="bogus")

    def test_training_beats_uniform_perplexity(self, tiny_corpus):
        trainer = self.make_trainer(tiny_corpus, epochs=2)
        result = trainer.train()
        assert result.final_metric < tiny_corpus.vocab_size  # better than uniform
        assert result.iterations > 0

    def test_accuracy_metric_mode(self, tiny_corpus):
        trainer = self.make_trainer(tiny_corpus, eval_metric="accuracy")
        result = trainer.train()
        assert 0.0 <= result.final_metric <= 1.0

    def test_row_strategy_speedup_recorded(self, tiny_corpus):
        trainer = self.make_trainer(tiny_corpus, strategy="row")
        assert trainer.train().speedup > 1.0

    def test_max_iterations_cap(self, tiny_corpus):
        model = LSTMLanguageModel(LSTMConfig(
            vocab_size=tiny_corpus.vocab_size, embed_size=8, hidden_size=12,
            num_layers=2, drop_rates=(0.3, 0.3), strategy="original", seed=0))
        config = LanguageModelTrainingConfig(batch_size=5, seq_len=10, epochs=10,
                                             max_iterations=3)
        assert LanguageModelTrainer(model, tiny_corpus, config).train().iterations == 3

    def test_evaluate_splits(self, tiny_corpus):
        trainer = self.make_trainer(tiny_corpus)
        assert trainer.evaluate("valid") > 0
        assert trainer.evaluate("test") > 0


def make_guarded_classifier(tiny_mnist, optimizer):
    """A row-dropout MLP trainer and a one-step closure over a fixed batch."""
    model = MLPClassifier(MLPConfig(hidden_sizes=(32, 32), drop_rates=(0.5, 0.5),
                                    strategy="row", seed=0))
    trainer = ClassifierTrainer(
        model, tiny_mnist, ClassifierTrainingConfig(batch_size=50, seed=0),
        runtime=EngineRuntime(ExecutionConfig(optimizer=optimizer, seed=0)))
    images, labels = tiny_mnist.train_images[:50], tiny_mnist.train_labels[:50]
    return trainer, lambda: trainer.train_step(images, labels)


def make_guarded_lm(tiny_corpus, optimizer, loss_head="dense"):
    """A row-dropout LSTM trainer and a one-step closure over a fixed window."""
    model = LSTMLanguageModel(LSTMConfig(
        vocab_size=tiny_corpus.vocab_size, embed_size=16, hidden_size=24,
        num_layers=2, drop_rates=(0.3, 0.3), strategy="row", seed=0))
    trainer = LanguageModelTrainer(
        model, tiny_corpus,
        LanguageModelTrainingConfig(batch_size=5, seq_len=12, seed=0),
        runtime=EngineRuntime(ExecutionConfig(optimizer=optimizer,
                                              loss_head=loss_head, seed=0)))
    inputs, targets = next(iter(BPTTBatcher(tiny_corpus.train, 5, 12)))
    state = model.init_state(5)
    return trainer, lambda: trainer.train_step(inputs, targets, state)


def snapshot(trainer):
    """Copies of every parameter and momentum buffer."""
    params = [param.data.copy() for param in trainer.model.parameters()]
    velocity = [None if buffer is None else buffer.copy()
                for buffer in trainer.optimizer._velocity]
    return params, velocity


class TestNonFiniteLoss:
    """A non-finite loss stops the step before backward and the update."""

    @pytest.mark.parametrize("optimizer", ["dense", "sparse"])
    @pytest.mark.parametrize("kind", ["classifier", "lm"])
    def test_nan_loss_raises_and_leaves_state_untouched(
            self, kind, optimizer, tiny_mnist, tiny_corpus):
        trainer, step = (make_guarded_classifier(tiny_mnist, optimizer)
                         if kind == "classifier"
                         else make_guarded_lm(tiny_corpus, optimizer))
        step()
        output_bias = list(trainer.model.parameters())[-1]
        output_bias.data[0] = np.nan
        params, velocity = snapshot(trainer)
        with pytest.raises(FloatingPointError, match=r"loss nan at step 2"):
            step()
        assert trainer.optimizer.step_count == 1
        assert active_tracker() is None
        after_params, after_velocity = snapshot(trainer)
        for before, after in zip(params, after_params):
            assert np.array_equal(before, after, equal_nan=True)
        for before, after in zip(velocity, after_velocity):
            assert (before is None) == (after is None)
            if before is not None:
                assert np.array_equal(before, after)

    def test_out_of_range_target_leaves_no_tracker_active(self, tiny_corpus):
        trainer, _ = make_guarded_lm(tiny_corpus, "sparse", loss_head="adaptive")
        vocab = tiny_corpus.vocab_size
        inputs = np.zeros((12, 5), dtype=np.int64)
        targets = np.full((12, 5), vocab, dtype=np.int64)
        with pytest.raises(ValueError):
            trainer.train_step(inputs, targets, trainer.model.init_state(5))
        assert active_tracker() is None

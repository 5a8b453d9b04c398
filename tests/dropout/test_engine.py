"""Tests for the vectorized pattern-pool execution engine.

Covers pattern interning, :class:`PatternPool` consumption/refill semantics,
the module-bound pooled :class:`PatternSchedule` (including the trainer fall
back for strategies without pattern sites), and the layers' pool-draw hooks.
"""

import numpy as np
import pytest

from repro.dropout import (
    ApproxBlockDropout,
    ApproxDropConnectLinear,
    ApproxRandomDropout,
    ApproxRandomDropoutLinear,
    PatternPool,
    PatternSampler,
    PatternSchedule,
    RowDropoutPattern,
    row_pattern,
    tile_pattern,
)
from repro.models import MLPClassifier, MLPConfig, LSTMConfig, LSTMLanguageModel
from repro.tensor import Tensor


class TestPatternInterning:
    def test_row_pattern_interned(self):
        assert row_pattern(64, 4, 1) is row_pattern(64, 4, 1)
        assert row_pattern(64, 4, 1) is not row_pattern(64, 4, 2)

    def test_tile_pattern_interned(self):
        assert tile_pattern(64, 64, 2, 0, 32) is tile_pattern(64, 64, 2, 0, 32)

    def test_interned_pattern_caches_derived_data(self):
        pattern = row_pattern(128, 4, 1)
        assert pattern.kept_indices is pattern.kept_indices
        assert pattern.mask() is pattern.mask()
        assert not pattern.mask().flags.writeable

    def test_sampler_returns_interned_patterns(self, rng):
        sampler = PatternSampler(0.5, max_period=4, rng=rng)
        draws = {id(p) for p in sampler.sample_row_patterns(32, 500)}
        # At most sum(dp) = 1+2+3+4 = 10 distinct objects regardless of count.
        assert len(draws) <= 10


class TestPatternPool:
    def make_pool(self, pool_size=16):
        sampler = PatternSampler(0.5, max_period=4, rng=np.random.default_rng(0))
        return PatternPool(lambda n: sampler.sample_row_patterns(32, n),
                           pool_size=pool_size)

    def test_pool_prefill_and_consume(self):
        pool = self.make_pool()
        pool.refill(10)
        assert len(pool) == 10
        assert pool.remaining == 10
        patterns = [pool.next() for _ in range(10)]
        assert all(isinstance(p, RowDropoutPattern) for p in patterns)
        assert pool.remaining == 0
        assert pool.consumed == 10
        assert pool.refills == 1

    def test_pool_auto_refills_when_dry(self):
        pool = self.make_pool(pool_size=4)
        for _ in range(9):
            pool.next()
        assert pool.refills == 3  # 4 + 4 + 1 consumed
        assert pool.consumed == 9

    def test_pool_validation(self):
        with pytest.raises(ValueError):
            self.make_pool(pool_size=0)


class TestPooledSchedule:
    def test_from_model_finds_mlp_row_sites(self):
        model = MLPClassifier(MLPConfig(hidden_sizes=(32, 32), drop_rates=(0.5, 0.5),
                                        strategy="row", seed=0))
        schedule = PatternSchedule.from_model(model, pool_size=8)
        assert len(schedule.pooled_sites()) == 2
        schedule.plan(5)
        patterns = schedule.step()
        assert len(patterns) == 2
        assert schedule.iteration == 1
        # The pooled pattern was actually installed into the live layers.
        for module in model.modules():
            if isinstance(module, ApproxRandomDropoutLinear):
                assert module.pattern in patterns.values()

    def test_from_model_finds_tile_sites(self):
        model = MLPClassifier(MLPConfig(hidden_sizes=(32, 32), drop_rates=(0.5, 0.5),
                                        strategy="tile", seed=0))
        schedule = PatternSchedule.from_model(model, pool_size=8)
        assert len(schedule.pooled_sites()) == 2
        installed = schedule.step()
        for module in model.modules():
            if isinstance(module, ApproxDropConnectLinear):
                assert module.pattern in installed.values()

    def test_from_model_finds_lstm_activation_sites(self):
        model = LSTMLanguageModel(LSTMConfig(vocab_size=40, embed_size=16,
                                             hidden_size=16, num_layers=2,
                                             drop_rates=(0.5, 0.5),
                                             strategy="row", seed=0))
        schedule = PatternSchedule.from_model(model, pool_size=8)
        # input dropout + per-layer dropout + output dropout sites
        assert len(schedule.pooled_sites()) >= 3
        patterns = schedule.step()
        assert patterns

    def test_conventional_strategy_falls_back_to_resample(self):
        model = MLPClassifier(MLPConfig(hidden_sizes=(16,), drop_rates=(0.5,),
                                        strategy="original", seed=0))
        schedule = PatternSchedule.from_model(model)
        assert schedule.pooled_sites() == []
        assert schedule.step() == {}  # no error: falls back to resample_patterns

    def test_zero_rate_sites_skipped(self):
        model = MLPClassifier(MLPConfig(hidden_sizes=(16, 16), drop_rates=(0.0, 0.5),
                                        strategy="row", seed=0))
        schedule = PatternSchedule.from_model(model)
        assert len(schedule.pooled_sites()) == 1

    def test_step_advances_patterns_over_time(self):
        model = MLPClassifier(MLPConfig(hidden_sizes=(64,), drop_rates=(0.5,),
                                        strategy="row", seed=0))
        schedule = PatternSchedule.from_model(model, pool_size=64)
        schedule.plan(40)
        seen = set()
        name = schedule.pooled_sites()[0]
        for _ in range(40):
            schedule.step()
            pattern = schedule.current(name)
            seen.add((pattern.dp, pattern.bias))
        assert len(seen) > 1

    def test_pool_stats_and_plan(self):
        model = MLPClassifier(MLPConfig(hidden_sizes=(32,), drop_rates=(0.5,),
                                        strategy="row", seed=0))
        schedule = PatternSchedule.from_model(model, pool_size=4)
        schedule.plan(10)
        for _ in range(3):
            schedule.step()
        stats = schedule.pool_stats()
        (site_stats,) = stats.values()
        assert site_stats["refills"] == 1
        assert site_stats["consumed"] == 3
        assert site_stats["remaining"] == 7

    def test_attach_module_requires_pool_protocol(self):
        schedule = PatternSchedule()
        with pytest.raises(TypeError):
            schedule.attach_module("bogus", object())

    def test_duplicate_names_rejected_across_site_kinds(self, rng):
        layer = ApproxRandomDropoutLinear(8, 8, drop_rate=0.5, rng=rng)
        schedule = PatternSchedule(rng=rng)
        schedule.attach_module("shared", layer)
        with pytest.raises(ValueError):
            schedule.register_row_site("shared", num_units=8, target_rate=0.5)
        with pytest.raises(ValueError):
            schedule.attach_module("shared", layer)

    def test_mixed_descriptor_and_pooled_sites(self, rng):
        layer = ApproxRandomDropoutLinear(8, 8, drop_rate=0.5, rng=rng)
        schedule = PatternSchedule(rng=rng)
        schedule.attach_module("pooled", layer)
        schedule.register_row_site("descriptor", num_units=16, target_rate=0.5)
        assert len(schedule) == 2
        assert set(schedule.sites()) == {"pooled", "descriptor"}


class TestLayerPoolHooks:
    def test_linear_draw_pool_widths(self, rng):
        layer = ApproxRandomDropoutLinear(8, 24, drop_rate=0.5, rng=rng)
        patterns = layer.draw_pool(20)
        assert len(patterns) == 20
        assert all(p.num_units == 24 for p in patterns)

    def test_dropconnect_draw_pool_geometry(self, rng):
        layer = ApproxDropConnectLinear(64, 64, drop_rate=0.5, tile=32, rng=rng)
        patterns = layer.draw_pool(20)
        assert all((p.rows, p.cols, p.tile) == (64, 64, 32) for p in patterns)

    def test_activation_dropout_draw_pool(self, rng):
        layer = ApproxRandomDropout(48, 0.5, rng=rng)
        patterns = layer.draw_pool(10)
        assert all(p.num_units == 48 for p in patterns)

    def test_block_dropout_draw_pool_and_set_pattern(self, rng):
        layer = ApproxBlockDropout(32, 0.5, block=8, rng=rng)  # 4 blocks
        patterns = layer.draw_pool(10)
        assert all(p.num_units == layer.num_blocks for p in patterns)
        layer.set_pattern(patterns[0])
        assert layer.pattern is patterns[0]
        with pytest.raises(ValueError):
            layer.set_pattern(RowDropoutPattern(layer.num_blocks + 1, 2, 0))

    def test_pooled_forward_matches_mask_semantics(self, rng):
        layer = ApproxRandomDropoutLinear(8, 16, drop_rate=0.5, rng=rng)
        pattern = layer.draw_pool(1)[0]
        layer.set_pattern(pattern)
        x = Tensor(rng.normal(size=(4, 8)))
        out = layer(x)
        expected = (x.data @ layer.weight.data.T + layer.bias.data) * pattern.mask()
        np.testing.assert_allclose(out.data, expected, rtol=1e-9, atol=1e-10)


class TestTrainerIntegration:
    def test_classifier_trainer_uses_pooled_schedule(self, tiny_mnist):
        from repro.training import ClassifierTrainer, ClassifierTrainingConfig

        model = MLPClassifier(MLPConfig(hidden_sizes=(32, 32), drop_rates=(0.5, 0.5),
                                        strategy="row", seed=0))
        config = ClassifierTrainingConfig(batch_size=50, epochs=1,
                                          max_iterations=4, seed=0)
        trainer = ClassifierTrainer(model, tiny_mnist, config)
        assert len(trainer.pattern_schedule.pooled_sites()) == 2
        result = trainer.train()
        assert result.iterations == 4
        stats = trainer.pattern_schedule.pool_stats()
        assert all(site["consumed"] == 4 for site in stats.values())
        assert all(site["refills"] == 1 for site in stats.values())

    def test_lm_trainer_uses_pooled_schedule(self, tiny_corpus):
        from repro.training import LanguageModelTrainer, LanguageModelTrainingConfig

        model = LSTMLanguageModel(LSTMConfig(vocab_size=60, embed_size=16,
                                             hidden_size=16, num_layers=2,
                                             drop_rates=(0.5, 0.5),
                                             strategy="row", seed=0))
        config = LanguageModelTrainingConfig(batch_size=8, seq_len=10, epochs=1,
                                             max_iterations=3, seed=0)
        trainer = LanguageModelTrainer(model, tiny_corpus, config)
        assert len(trainer.pattern_schedule.pooled_sites()) >= 3
        result = trainer.train()
        assert result.iterations == 3
        assert np.isfinite(result.final_metric)

    def test_trainer_with_conventional_dropout_still_works(self, tiny_mnist):
        from repro.training import ClassifierTrainer, ClassifierTrainingConfig

        model = MLPClassifier(MLPConfig(hidden_sizes=(32,), drop_rates=(0.5,),
                                        strategy="original", seed=0))
        config = ClassifierTrainingConfig(batch_size=50, epochs=1,
                                          max_iterations=2, seed=0)
        trainer = ClassifierTrainer(model, tiny_mnist, config)
        assert trainer.pattern_schedule.pooled_sites() == []
        assert trainer.train().iterations == 2

    def test_lm_trainer_lr_decay_not_clobbered_by_pattern_schedule(self, tiny_corpus):
        """Regression: the pattern schedule must not shadow the LR schedule."""
        from repro.training import LanguageModelTrainer, LanguageModelTrainingConfig

        model = LSTMLanguageModel(LSTMConfig(vocab_size=60, embed_size=16,
                                             hidden_size=16, num_layers=2,
                                             drop_rates=(0.5, 0.5),
                                             strategy="row", seed=0))
        # No max_iterations: the LR schedule only steps at completed epochs.
        config = LanguageModelTrainingConfig(batch_size=8, seq_len=30, epochs=3,
                                             learning_rate=1.0, lr_decay=0.5,
                                             lr_flat_epochs=0, seed=0)
        trainer = LanguageModelTrainer(model, tiny_corpus, config)
        trainer.train()
        assert trainer.optimizer.lr == pytest.approx(1.0 * 0.5 ** 3)


class TestMultiForwardSafety:
    """A layer applied 3+ times inside one graph (weight sharing) must
    accumulate the exact gradient of every application."""

    @pytest.mark.parametrize("layer_cls, kwargs", [
        (ApproxRandomDropoutLinear, {}),
        (ApproxDropConnectLinear, {"tile": 4}),
    ])
    def test_shared_layer_three_forwards_matches_dense_reference(
            self, rng, layer_cls, kwargs):
        layer = layer_cls(8, 8, drop_rate=0.5, rng=rng, **kwargs)
        layer.resample()
        inputs = [Tensor(rng.normal(size=(3, 8)), requires_grad=True)
                  for _ in range(3)]

        out = layer(inputs[0])
        for x in inputs[1:]:
            out = out + layer(x)
        out.sum().backward()
        shared_grad = layer.weight.grad.copy()

        # Reference: the same three applications against the dense masked math.
        expected = np.zeros_like(layer.weight.data)
        for x in inputs:
            grad_out = np.ones((3, 8))
            if isinstance(layer, ApproxRandomDropoutLinear):
                expected[layer.pattern.kept_indices] += (
                    grad_out[:, layer.pattern.kept_indices].T @ x.data)
            else:
                expected += (grad_out.T @ x.data) * layer.pattern.mask()
        np.testing.assert_allclose(shared_grad, expected, rtol=1e-9, atol=1e-10)

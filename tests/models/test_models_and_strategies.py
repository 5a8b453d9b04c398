"""Tests for the MLP/LSTM model builders and the dropout strategies."""

import numpy as np
import pytest

from repro.dropout import (
    ApproxDropConnectLinear,
    ApproxRandomDropoutLinear,
    PatternSchedule,
)
from repro.models import (
    ConventionalDropout,
    LSTMConfig,
    LSTMLanguageModel,
    MLPClassifier,
    MLPConfig,
    NoDropout,
    RowPatternDropout,
    TilePatternDropout,
    build_strategy,
)
from repro.nn import Dropout, Linear
from repro.nn.layers import Identity
from repro.tensor import Tensor


class TestStrategyFactory:
    @pytest.mark.parametrize("name,cls", [
        ("none", NoDropout), ("original", ConventionalDropout),
        ("baseline", ConventionalDropout), ("row", RowPatternDropout),
        ("rdp", RowPatternDropout), ("tile", TilePatternDropout),
        ("tdp", TilePatternDropout),
    ])
    def test_lookup(self, name, cls):
        assert isinstance(build_strategy(name), cls)

    def test_unknown(self):
        with pytest.raises(KeyError):
            build_strategy("bogus")

    def test_timing_modes(self):
        assert build_strategy("none").timing_mode == "none"
        assert build_strategy("original").timing_mode == "baseline"
        assert build_strategy("row").timing_mode == "row"
        assert build_strategy("tile").timing_mode == "tile"

    def test_layer_factories(self, rng):
        assert isinstance(build_strategy("original").hidden_linear(4, 4, 0.5, rng), Linear)
        assert isinstance(build_strategy("original").post_activation(4, 0.5, rng), Dropout)
        assert isinstance(build_strategy("row").hidden_linear(4, 4, 0.5, rng),
                          ApproxRandomDropoutLinear)
        assert isinstance(build_strategy("tile").hidden_linear(4, 4, 0.5, rng),
                          ApproxDropConnectLinear)
        assert isinstance(build_strategy("row").post_activation(4, 0.5, rng), Identity)


class TestMLPConfig:
    def test_layer_sizes(self):
        config = MLPConfig(hidden_sizes=(128, 64), drop_rates=(0.5, 0.5))
        assert config.layer_sizes == [784, 128, 64, 10]

    def test_validation(self):
        with pytest.raises(ValueError):
            MLPConfig(hidden_sizes=(), drop_rates=())
        with pytest.raises(ValueError):
            MLPConfig(hidden_sizes=(64,), drop_rates=(0.5, 0.5))
        with pytest.raises(ValueError):
            MLPConfig(input_size=0, hidden_sizes=(64,), drop_rates=(0.5,))


class TestMLPClassifier:
    def small_config(self, strategy):
        return MLPConfig(input_size=20, hidden_sizes=(32, 16), num_classes=5,
                         drop_rates=(0.5, 0.5), strategy=strategy, seed=0)

    @pytest.mark.parametrize("strategy", ["none", "original", "row", "tile"])
    def test_forward_shape(self, strategy, rng):
        model = MLPClassifier(self.small_config(strategy))
        out = model(Tensor(rng.normal(size=(7, 20))))
        assert out.shape == (7, 5)

    @pytest.mark.parametrize("strategy", ["none", "original", "row", "tile"])
    def test_backward_populates_all_gradients(self, strategy, rng):
        model = MLPClassifier(self.small_config(strategy))
        model(Tensor(rng.normal(size=(4, 20)))).sum().backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_eval_deterministic_train_stochastic(self, rng):
        model = MLPClassifier(self.small_config("original"))
        x = Tensor(rng.normal(size=(4, 20)))
        model.eval()
        assert np.allclose(model(x).data, model(x).data)
        model.train()
        first = model(x).data.copy()
        # conventional dropout redraws its mask every call
        assert not np.allclose(first, model(x).data)

    def test_resample_patterns_changes_row_patterns(self, rng):
        model = MLPClassifier(self.small_config("row"))
        schedule = PatternSchedule.from_model(model)
        seen = set()
        for _ in range(20):
            schedule.step()
            seen.add(tuple((l.pattern.dp, l.pattern.bias) for l in model.hidden_linears))
        assert len(seen) > 1

    def test_timing_integration(self):
        # Use paper-like widths for the timing check: tiny test layers do not
        # benefit (Table I trend), so the >1 speedup assertion needs real sizes.
        config = MLPConfig(input_size=784, hidden_sizes=(1024, 1024), num_classes=10,
                           drop_rates=(0.5, 0.5), strategy="row", seed=0)
        model = MLPClassifier(config)
        timing = model.timing_model(batch_size=128)
        timing_config = model.timing_config()
        assert timing_config.mode == "row"
        assert timing_config.rates == (0.5, 0.5)
        baseline = timing.iteration(model.baseline_timing_config())
        accelerated = timing.iteration(timing_config)
        assert accelerated.speedup_over(baseline) > 1.0

    def test_parameter_count(self):
        model = MLPClassifier(self.small_config("none"))
        expected = 20 * 32 + 32 + 32 * 16 + 16 + 16 * 5 + 5
        assert model.num_parameters() == expected

    def test_row_eval_matches_scaled_dense(self, rng):
        """In eval mode the ROW model is deterministic and uses full weights."""
        model = MLPClassifier(self.small_config("row"))
        model.eval()
        x = Tensor(rng.normal(size=(3, 20)))
        assert np.allclose(model(x).data, model(x).data)


class TestLSTMConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LSTMConfig(num_layers=2, drop_rates=(0.5,))
        with pytest.raises(ValueError):
            LSTMConfig(vocab_size=0, drop_rates=(0.5, 0.5))


class TestLSTMLanguageModel:
    def small_config(self, strategy):
        return LSTMConfig(vocab_size=50, embed_size=12, hidden_size=16, num_layers=2,
                          drop_rates=(0.5, 0.5), strategy=strategy, seed=0)

    @pytest.mark.parametrize("strategy", ["none", "original", "row", "tile"])
    def test_forward_shapes(self, strategy, rng):
        model = LSTMLanguageModel(self.small_config(strategy))
        tokens = rng.integers(0, 50, size=(7, 3))
        logits, state = model(tokens)
        assert logits.shape == (21, 50)
        assert len(state) == 2

    def test_rejects_non_2d_tokens(self, rng):
        model = LSTMLanguageModel(self.small_config("none"))
        with pytest.raises(ValueError):
            model(rng.integers(0, 50, size=(7,)))

    def test_state_detach_cuts_graph(self, rng):
        model = LSTMLanguageModel(self.small_config("none"))
        tokens = rng.integers(0, 50, size=(5, 2))
        _, state = model(tokens)
        detached = model.detach_state(state)
        assert all(not h.requires_grad and not c.requires_grad for h, c in detached)

    def test_backward(self, rng):
        model = LSTMLanguageModel(self.small_config("row"))
        tokens = rng.integers(0, 50, size=(4, 2))
        logits, _ = model(tokens)
        logits.sum().backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_timing_integration(self):
        model = LSTMLanguageModel(self.small_config("row"))
        timing = model.timing_model(batch_size=20, seq_len=35)
        baseline = timing.iteration(model.baseline_timing_config())
        accelerated = timing.iteration(model.timing_config())
        assert accelerated.speedup_over(baseline) > 1.0

    def test_resample_patterns_runs(self, rng):
        model = LSTMLanguageModel(self.small_config("row"))
        PatternSchedule.from_model(model).step()  # must not raise

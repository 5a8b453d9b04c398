"""Tests for the loss-head subsystem (`repro.heads`).

Covers the head registry, the dense head's exact equivalence with the classic
logits-then-cross-entropy path, the sampled head's estimator properties
(targets always kept, dp=1 exactness, tolerance against the dense loss,
counters), the gated fallbacks (eval / masked execution), and the LSTM
integration — including the ISSUE 5 regression contract: the sampled head's
training loss matches the dense head within tolerance while dense evaluation
(perplexity) stays exact.
"""

import numpy as np
import pytest

from repro.dropout.patterns import RowDropoutPattern, row_pattern
from repro.heads import (
    LOSS_HEAD_KINDS,
    CompactSoftmaxHead,
    DenseSoftmaxHead,
    build_loss_head,
    sampled_class_set,
    sampled_softmax_loss,
)
from repro.tensor import Tensor, check_gradients, functional as F


def make_head_inputs(rng, batch=6, hidden=8, vocab=40):
    features = Tensor(rng.normal(size=(batch, hidden)), requires_grad=True)
    weight = Tensor(rng.normal(size=(vocab, hidden)) * 0.1, requires_grad=True)
    bias = Tensor(rng.normal(size=vocab) * 0.1, requires_grad=True)
    targets = rng.integers(0, vocab, size=batch)
    return features, weight, bias, targets


class TestBuildLossHead:
    def test_registry_round_trip(self):
        assert isinstance(build_loss_head("dense"), DenseSoftmaxHead)
        head = build_loss_head("sampled", vocab_size=100, rate=0.6)
        assert isinstance(head, CompactSoftmaxHead)
        assert head.vocab_size == 100
        assert head.drop_rate == 0.6

    def test_unknown_kind_fails_with_available_list(self):
        with pytest.raises(ValueError, match="dense"):
            build_loss_head("bogus")

    def test_sampled_requires_vocab_size(self):
        with pytest.raises(ValueError, match="vocab_size"):
            build_loss_head("sampled")

    def test_kinds_cover_all_heads(self):
        assert set(LOSS_HEAD_KINDS) == {"dense", "sampled", "adaptive"}


class TestDenseSoftmaxHead:
    def test_loss_equals_functional_cross_entropy(self, rng):
        features, weight, bias, targets = make_head_inputs(rng)
        head = DenseSoftmaxHead()
        head.train()
        expected = F.cross_entropy(F.linear(features, weight, bias), targets)
        np.testing.assert_allclose(
            head.loss(features, weight, bias, targets).data, expected.data)

    def test_logits_compact_against_input_pattern_match_dense(self, rng):
        """The consumer-GEMM compaction refactored out of the model is
        numerically identical to the dense projection of masked features."""
        features, weight, bias, targets = make_head_inputs(rng, hidden=12)
        pattern = RowDropoutPattern(12, dp=3, bias=1)
        masked = Tensor(features.data * pattern.mask())
        head = DenseSoftmaxHead()
        head.train()
        head.execution_mode = "compact"
        compact = head.logits(masked, weight, bias, input_pattern=pattern)
        dense = F.linear(masked, weight, bias)
        np.testing.assert_allclose(compact.data, dense.data,
                                   rtol=1e-10, atol=1e-12)


class TestSampledClassSet:
    def test_targets_always_kept(self, rng):
        pattern = RowDropoutPattern(50, dp=5, bias=2)
        targets = rng.integers(0, 50, size=12)
        classes, log_weights, positions = sampled_class_set(pattern, targets)
        assert np.all(np.isin(targets, classes))
        np.testing.assert_array_equal(classes[positions], targets)
        # Target classes carry unit weight; kept non-targets carry log(dp).
        assert np.all(log_weights[positions] == 0.0)
        non_target = np.isin(classes, targets, invert=True)
        np.testing.assert_allclose(log_weights[non_target], np.log(5))

    def test_dp_one_keeps_everything_with_zero_weights(self):
        pattern = RowDropoutPattern(20, dp=1, bias=0)
        classes, log_weights, _ = sampled_class_set(pattern, np.array([3, 7]))
        np.testing.assert_array_equal(classes, np.arange(20))
        assert not np.any(log_weights)


class TestSampledSoftmaxLoss:
    def test_dp_one_equals_dense_cross_entropy(self, rng):
        features, weight, bias, targets = make_head_inputs(rng)
        pattern = RowDropoutPattern(40, dp=1, bias=0)
        sampled = sampled_softmax_loss(features, weight, bias, targets, pattern)
        dense = F.cross_entropy(F.linear(features, weight, bias), targets)
        np.testing.assert_allclose(sampled.data, dense.data,
                                   rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("dp,bias", [(2, 0), (3, 2), (5, 4)])
    def test_estimator_tracks_dense_loss(self, rng, dp, bias):
        """The importance-weighted normaliser is a consistent estimate of the
        full softmax normaliser — at head scales the loss stays within a few
        percent of the exact dense cross-entropy."""
        features = Tensor(rng.normal(size=(16, 24)), requires_grad=True)
        weight = Tensor(rng.normal(size=(512, 24)) * 0.05, requires_grad=True)
        targets = rng.integers(0, 512, size=16)
        pattern = RowDropoutPattern(512, dp=dp, bias=bias)
        sampled = float(sampled_softmax_loss(features, weight, None, targets,
                                             pattern).data)
        dense = float(F.cross_entropy(F.linear(features, weight, None),
                                      targets).data)
        assert abs(sampled - dense) / dense < 0.05

    def test_gradients_match_finite_differences(self, rng):
        features, weight, bias, targets = make_head_inputs(rng, batch=4,
                                                           hidden=6, vocab=15)
        pattern = RowDropoutPattern(15, dp=3, bias=1)
        check_gradients(
            lambda: sampled_softmax_loss(features, weight, bias, targets,
                                         pattern),
            [features, weight, bias])

    def test_dropped_classes_receive_zero_gradient(self, rng):
        features, weight, bias, targets = make_head_inputs(rng, vocab=30)
        pattern = RowDropoutPattern(30, dp=3, bias=0)
        loss = sampled_softmax_loss(features, weight, bias, targets, pattern)
        loss.backward()
        classes, _, _ = sampled_class_set(pattern, targets)
        dropped = np.setdiff1d(np.arange(30), classes)
        assert np.all(weight.grad[dropped] == 0.0)
        assert np.all(bias.grad[dropped] == 0.0)
        assert np.any(weight.grad[classes] != 0.0)

    def test_pattern_size_mismatch_fails(self, rng):
        features, weight, bias, targets = make_head_inputs(rng, vocab=30)
        with pytest.raises(ValueError, match="classes"):
            sampled_softmax_loss(features, weight, bias, targets,
                                 RowDropoutPattern(29, dp=2, bias=0))


class TestCompactSoftmaxHead:
    def make_head(self, vocab=40, rate=0.5, seed=3) -> CompactSoftmaxHead:
        head = CompactSoftmaxHead(vocab, drop_rate=rate,
                                  rng=np.random.default_rng(seed))
        head.train()
        head.execution_mode = "compact"
        return head

    def test_validation(self):
        with pytest.raises(ValueError):
            CompactSoftmaxHead(0)
        with pytest.raises(ValueError):
            CompactSoftmaxHead(10, drop_rate=1.0)

    def test_pool_protocol(self):
        head = self.make_head()
        patterns = head.draw_pool(8)
        assert len(patterns) == 8
        head.set_pattern(patterns[0])
        assert head.pattern is patterns[0]
        with pytest.raises(ValueError):
            head.set_pattern(row_pattern(39, 2, 0))
        from repro.dropout.sampler import is_pattern_site

        assert is_pattern_site(head)
        assert not is_pattern_site(DenseSoftmaxHead())

    def test_loss_counts_draws_and_kept_classes(self, rng):
        features, weight, bias, targets = make_head_inputs(rng)
        head = self.make_head()
        head.set_pattern(row_pattern(40, 2, 0))
        head.loss(features, weight, bias, targets)
        head.loss(features, weight, bias, targets)
        counters = head.head_counters()
        assert counters["draws"] == 2
        classes, _, _ = sampled_class_set(head.pattern, targets)
        assert counters["kept_classes"] == 2 * len(classes)

    def test_loss_matches_functional_form(self, rng):
        features, weight, bias, targets = make_head_inputs(rng)
        head = self.make_head()
        head.set_pattern(row_pattern(40, 4, 1))
        expected = sampled_softmax_loss(features, weight, bias, targets,
                                        head.pattern)
        np.testing.assert_allclose(
            head.loss(features, weight, bias, targets).data, expected.data)

    @pytest.mark.parametrize("setup", ["eval", "masked", "zero_rate"])
    def test_fallbacks_compute_the_exact_dense_loss(self, rng, setup):
        features, weight, bias, targets = make_head_inputs(rng)
        head = self.make_head(rate=0.0 if setup == "zero_rate" else 0.5)
        if setup == "eval":
            head.eval()
        elif setup == "masked":
            head.execution_mode = "masked"
        dense = F.cross_entropy(F.linear(features, weight, bias), targets)
        np.testing.assert_allclose(
            head.loss(features, weight, bias, targets).data, dense.data)
        assert head.head_counters()["draws"] == 0


@pytest.mark.parametrize("kind", LOSS_HEAD_KINDS)
@pytest.mark.parametrize("bad", ["negative", "vocab"])
def test_out_of_range_targets_raise(rng, kind, bad):
    """A target of -1 or ``vocab`` is an error on every head, not a class:
    fancy indexing would train -1 against the last class (or the last
    band's pilot slot)."""
    vocab = 11
    features, weight, bias, targets = make_head_inputs(rng, vocab=vocab)
    head = build_loss_head(kind, vocab, rate=0.5, shortlist=4, clusters=2,
                           rng=np.random.default_rng(0))
    head.train()
    head.execution_mode = "compact"
    if kind == "sampled":
        head.set_pattern(row_pattern(vocab, 2, 1))
    target = -1 if bad == "negative" else vocab
    targets[2] = target
    with pytest.raises(ValueError,
                       match=f"target {target} is out of range for {vocab} classes"):
        head.loss(features, weight, bias, targets)


class TestLSTMIntegration:
    def make_model(self, vocab=80, strategy="row"):
        from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel

        return LSTMLanguageModel(LSTMConfig(
            vocab_size=vocab, embed_size=12, hidden_size=16, num_layers=2,
            drop_rates=(0.5, 0.5), strategy=strategy, seed=0))

    def test_model_defaults_to_dense_head(self):
        assert isinstance(self.make_model().loss_head, DenseSoftmaxHead)

    def test_set_loss_head_installs_sampled_head_sized_to_vocab(self):
        model = self.make_model(vocab=80)
        model.set_loss_head("sampled", rate=0.6)
        assert isinstance(model.loss_head, CompactSoftmaxHead)
        assert model.loss_head.vocab_size == 80
        assert model.loss_head.drop_rate == 0.6
        # The head is registered as a child module (reseeded/pooled by bind).
        assert model.loss_head in list(model.modules())

    def test_model_loss_equals_forward_plus_cross_entropy_for_dense(self, rng):
        model = self.make_model()
        model.train()
        tokens = rng.integers(0, 80, size=(5, 4))
        targets = rng.integers(0, 80, size=20)
        state = model.init_state(4)
        # Same pattern draws for both paths: resample once, then reuse.
        loss, _ = model.loss(tokens, targets, state)
        logits, _ = model(tokens, state)
        expected = F.cross_entropy(logits, targets)
        np.testing.assert_allclose(loss.data, expected.data,
                                   rtol=1e-10, atol=1e-12)

    def test_forward_logits_identical_under_either_head(self, rng):
        """Dense evaluation is preserved: swapping the training head never
        changes the exact logits the eval path computes."""
        tokens = rng.integers(0, 80, size=(5, 4))
        dense_model = self.make_model()
        sampled_model = self.make_model()
        sampled_model.set_loss_head("sampled", rate=0.7)
        sampled_model.load_state_dict(dense_model.state_dict())
        for model in (dense_model, sampled_model):
            model.eval()
        dense_logits, _ = dense_model(tokens)
        sampled_logits, _ = sampled_model(tokens)
        np.testing.assert_array_equal(dense_logits.data, sampled_logits.data)

    def test_sampled_training_loss_tracks_dense_loss(self, rng):
        """ISSUE 5 regression: with identical parameters and dropout
        patterns, the sampled head's training loss stays within tolerance of
        the dense head's exact loss."""
        vocab = 600
        from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel

        model = LSTMLanguageModel(LSTMConfig(
            vocab_size=vocab, embed_size=16, hidden_size=24, num_layers=2,
            drop_rates=(0.5, 0.5), strategy="row", seed=0))
        model.train()
        tokens = rng.integers(0, vocab, size=(8, 6))
        targets = rng.integers(0, vocab, size=48)
        state = model.init_state(6)
        dense_loss, _ = model.loss(tokens, targets, state)
        model.set_loss_head("sampled", rate=0.5)
        model.loss_head.execution_mode = "compact"
        model.loss_head.set_pattern(row_pattern(vocab, 2, 1))
        sampled_loss, _ = model.loss(tokens, targets, state)
        dense, sampled = float(dense_loss.data), float(sampled_loss.data)
        assert abs(sampled - dense) / dense < 0.05

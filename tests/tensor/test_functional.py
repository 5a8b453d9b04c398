"""Unit tests for repro.tensor.functional composite operations."""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, functional as F


class TestSoftmaxFamily:
    def test_softmax_sums_to_one(self, rng):
        x = Tensor(rng.normal(size=(5, 7)))
        probs = F.softmax(x)
        assert np.allclose(probs.data.sum(axis=1), 1.0)
        assert np.all(probs.data >= 0)

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(3, 4))
        p1 = F.softmax(Tensor(x)).data
        p2 = F.softmax(Tensor(x + 100.0)).data
        assert np.allclose(p1, p2)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(4, 6)))
        assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data))

    def test_softmax_numerical_stability_large_values(self):
        x = Tensor(np.array([[1000.0, 1001.0, 999.0]]))
        probs = F.softmax(x).data
        assert np.all(np.isfinite(probs))
        assert np.allclose(probs.sum(), 1.0)

    def test_softmax_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        weights = Tensor(rng.normal(size=(3, 5)))
        check_gradients(lambda: (F.softmax(x) * weights).sum(), [x])


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = rng.normal(size=(6, 4))
        targets = rng.integers(0, 4, size=6)
        loss = F.cross_entropy(Tensor(logits), targets)
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(6), targets].mean()
        assert np.allclose(float(loss.data), expected)

    def test_reductions(self, rng):
        logits = Tensor(rng.normal(size=(5, 3)))
        targets = rng.integers(0, 3, size=5)
        total = F.cross_entropy(logits, targets, reduction="sum")
        mean = F.cross_entropy(logits, targets, reduction="mean")
        per_sample = F.cross_entropy(logits, targets, reduction="none")
        assert np.allclose(float(total.data), float(mean.data) * 5)
        assert per_sample.shape == (5,)

    def test_perfect_prediction_low_loss(self):
        logits = np.full((3, 4), -20.0)
        logits[np.arange(3), [0, 1, 2]] = 20.0
        loss = F.cross_entropy(Tensor(logits), np.array([0, 1, 2]))
        assert float(loss.data) < 1e-6

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros(3)), np.array([0]))
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1]), reduction="bogus")

    @pytest.mark.parametrize("target", [-1, 3])
    def test_out_of_range_targets_rejected(self, target):
        # Fancy indexing would read -1 as the last class and train on it.
        logits = Tensor(np.zeros((2, 3)))
        message = f"target {target} is out of range for 3 classes"
        with pytest.raises(ValueError, match=message):
            F.cross_entropy(logits, np.array([0, target]))
        with pytest.raises(ValueError, match=message):
            F.nll_loss(F.log_softmax(logits), np.array([target, 1]))

    def test_gradcheck(self, rng):
        logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        targets = rng.integers(0, 5, size=4)
        check_gradients(lambda: F.cross_entropy(logits, targets), [logits])

    def test_nll_loss_consistent_with_cross_entropy(self, rng):
        logits = Tensor(rng.normal(size=(4, 5)))
        targets = rng.integers(0, 5, size=4)
        ce = F.cross_entropy(logits, targets)
        nll = F.nll_loss(F.log_softmax(logits), targets)
        assert np.allclose(float(ce.data), float(nll.data))

    def test_mse_loss(self):
        pred = Tensor([[1.0, 2.0]])
        target = np.array([[0.0, 4.0]])
        assert np.allclose(float(F.mse_loss(pred, target).data), (1 + 4) / 2)


class TestConcatStack:
    def test_concat_values_and_grads(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = F.concat([a, b], axis=0)
        assert out.shape == (6, 3)
        check_gradients(lambda: (F.concat([a, b], axis=0) ** 2).sum(), [a, b])

    def test_concat_axis1(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2, 5)))
        assert F.concat([a, b], axis=1).shape == (2, 8)

    def test_stack(self, rng):
        tensors = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(4)]
        out = F.stack(tensors, axis=0)
        assert out.shape == (4, 2, 3)
        check_gradients(lambda: (F.stack(tensors, axis=0) * 2).sum(), tensors)


class TestEmbeddingAndMasks:
    def test_embedding_lookup_values(self, rng):
        weight = Tensor(rng.normal(size=(10, 4)), requires_grad=True)
        indices = np.array([[1, 2], [3, 1]])
        out = F.embedding_lookup(weight, indices)
        assert out.shape == (2, 2, 4)
        assert np.allclose(out.data[0, 0], weight.data[1])

    def test_embedding_gradient_accumulates_repeats(self, rng):
        weight = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        indices = np.array([2, 2, 2])
        F.embedding_lookup(weight, indices).sum().backward()
        assert np.allclose(weight.grad[2], 3.0)
        assert np.allclose(weight.grad[0], 0.0)

    def test_embedding_gradient_matches_numerical(self, rng):
        weight = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        indices = np.array([[0, 2, 2], [5, 0, 1]])
        check_gradients(
            lambda: (F.embedding_lookup(weight, indices) ** 2).sum(), [weight])

    def test_embedding_negative_index_aliases_accumulate(self, rng):
        weight = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        F.embedding_lookup(weight, np.array([-5, 1])).sum().backward()
        assert np.allclose(weight.grad[1], 2.0)  # -5 and 1 alias row 1

    def test_embedding_empty_lookup_backward_is_zero(self, rng):
        weight = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        out = F.embedding_lookup(weight, np.zeros((0,), dtype=int))
        assert out.shape == (0, 3)
        out.sum().backward()
        assert np.all(weight.grad == 0.0)

    def test_apply_mask(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        mask = np.array([1.0, 0.0, 1.0, 0.0])
        out = F.apply_mask(x, mask)
        assert np.allclose(out.data[:, 1], 0.0)
        out.sum().backward()
        assert np.allclose(x.grad[:, 1], 0.0)
        assert np.allclose(x.grad[:, 0], 1.0)

    def test_linear_matches_manual(self, rng):
        x = Tensor(rng.normal(size=(5, 3)))
        w = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=2))
        assert np.allclose(F.linear(x, w, b).data, x.data @ w.data.T + b.data)


class TestRowColumnScatter:
    def test_rows_select_and_scatter_roundtrip(self, rng):
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        idx = np.array([0, 2, 4])
        compact = F.rows_select(x, idx)
        full = F.rows_scatter(compact, idx, 6)
        assert np.allclose(full.data[idx], x.data[idx])
        assert np.allclose(full.data[[1, 3, 5]], 0.0)

    def test_rows_scatter_gradcheck(self, rng):
        compact = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        idx = np.array([1, 3, 5])
        check_gradients(lambda: (F.rows_scatter(compact, idx, 7) ** 2).sum(), [compact])

    def test_cols_select_and_scatter(self, rng):
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        idx = np.array([0, 3, 6])
        compact = F.cols_select(x, idx)
        assert compact.shape == (4, 3)
        full = F.cols_scatter(compact, idx, 8)
        assert np.allclose(full.data[:, idx], x.data[:, idx])
        assert np.allclose(full.data[:, 1], 0.0)

    def test_cols_select_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        idx = np.array([1, 4])
        check_gradients(lambda: (F.cols_select(x, idx) ** 2).sum(), [x])


class TestLSTMRecurrence:
    """The fused LSTM recurrence: its hand-written BPTT against numerical
    gradients for every kind of recurrent projection, with a loss on the
    outputs and on the final ``h`` and ``c``."""

    HIDDEN, BATCH = 8, 2

    def _projection(self, kind, weight):
        from repro.dropout.compact_ops import recurrent_compact_context
        from repro.dropout.patterns import RecurrentTilePattern

        pattern = RecurrentTilePattern(hidden_size=self.HIDDEN, num_gates=4,
                                       dp=2, bias=1, tile=4)
        if kind == "dense":
            return F.DenseProjection(weight)
        if kind == "masked":
            return F.DenseProjection(F.apply_mask(weight, pattern.mask()))
        return recurrent_compact_context(weight, pattern)

    @pytest.mark.parametrize("kind", ["dense", "masked", "tiled"])
    @pytest.mark.parametrize("seq_len", [1, 4])
    def test_gradcheck(self, kind, seq_len, rng):
        hidden, batch = self.HIDDEN, self.BATCH
        gates_x = Tensor(rng.normal(size=(seq_len * batch, 4 * hidden)),
                         requires_grad=True)
        h0 = Tensor(rng.normal(size=(batch, hidden)), requires_grad=True)
        c0 = Tensor(rng.normal(size=(batch, hidden)), requires_grad=True)
        weight = Tensor(rng.normal(size=(4 * hidden, hidden)) * 0.5,
                        requires_grad=True)
        seeds = [Tensor(rng.normal(size=shape)) for shape in
                 ((seq_len, batch, hidden), (batch, hidden), (batch, hidden))]

        def loss_fn():
            out, h, c = F.lstm_recurrence(gates_x, h0, c0,
                                          self._projection(kind, weight))
            return ((out * seeds[0]).sum() + (h * seeds[1]).sum()
                    + (c * seeds[2]).sum())

        check_gradients(loss_fn, [gates_x, h0, c0, weight],
                        rtol=1e-5, atol=1e-7)

    def test_matches_per_step_cell_math(self, rng):
        hidden, batch, seq_len = self.HIDDEN, self.BATCH, 3
        gates_x = rng.normal(size=(seq_len * batch, 4 * hidden))
        weight = rng.normal(size=(4 * hidden, hidden))
        h, c = rng.normal(size=(2, batch, hidden))
        out, h_last, c_last = F.lstm_recurrence(
            Tensor(gates_x), Tensor(h), Tensor(c),
            F.DenseProjection(Tensor(weight)))
        def sigmoid(z):
            return 1.0 / (1.0 + np.exp(-z))

        for t in range(seq_len):
            z = gates_x[t * batch:(t + 1) * batch] + h @ weight.T
            i, f, g, o = np.split(z, 4, axis=1)
            c = sigmoid(f) * c + sigmoid(i) * np.tanh(g)
            h = sigmoid(o) * np.tanh(c)
            assert np.array_equal(out.data[t], h)
        assert np.array_equal(h_last.data, h)
        assert np.array_equal(c_last.data, c)

    def test_float32_stays_float32(self, rng):
        hidden, batch = self.HIDDEN, self.BATCH
        f32 = np.float32
        gates_x = Tensor(rng.normal(size=(3 * batch, 4 * hidden)), dtype=f32,
                         requires_grad=True)
        h0 = Tensor(np.zeros((batch, hidden)), dtype=f32)
        c0 = Tensor(np.zeros((batch, hidden)), dtype=f32)
        weight = Tensor(rng.normal(size=(4 * hidden, hidden)), dtype=f32,
                        requires_grad=True)
        out, h, c = F.lstm_recurrence(gates_x, h0, c0, F.DenseProjection(weight))
        assert out.dtype == h.dtype == c.dtype == f32
        (out.sum() + c.sum()).backward()
        assert gates_x.grad.dtype == f32
        assert weight.grad.dtype == f32

    def test_empty_window_returns_the_initial_state(self, rng):
        hidden, batch = self.HIDDEN, self.BATCH
        h0 = Tensor(rng.normal(size=(batch, hidden)), requires_grad=True)
        c0 = Tensor(rng.normal(size=(batch, hidden)), requires_grad=True)
        out, h, c = F.lstm_recurrence(
            Tensor(np.zeros((0, 4 * hidden))), h0, c0,
            F.DenseProjection(Tensor(rng.normal(size=(4 * hidden, hidden)))))
        assert out.shape == (0, batch, hidden)
        assert np.array_equal(h.data, h0.data)
        assert np.array_equal(c.data, c0.data)
        (h.sum() + c.sum()).backward()
        assert np.array_equal(h0.grad, np.ones((batch, hidden)))

    def test_rejects_misshaped_gates(self, rng):
        state = Tensor(np.zeros((self.BATCH, self.HIDDEN)))
        with pytest.raises(ValueError, match="gates_x"):
            F.lstm_recurrence(Tensor(np.zeros((3, 4 * self.HIDDEN))), state,
                              state, F.DenseProjection(
                                  Tensor(np.zeros((4 * self.HIDDEN, self.HIDDEN)))))

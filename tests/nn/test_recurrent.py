"""Tests for the LSTM cell and multi-layer LSTM."""

import numpy as np
import pytest

from repro.nn import Dropout, LSTM, LSTMCell
from repro.tensor import Tensor, check_gradients
from repro.tensor.functional import DenseProjection


class TestLSTMCell:
    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            LSTMCell(0, 4)
        with pytest.raises(ValueError):
            LSTMCell(4, 0)

    def test_output_shapes(self, rng):
        cell = LSTMCell(6, 8, rng=rng)
        x = Tensor(rng.normal(size=(3, 6)))
        h, (h_state, c_state) = cell(x)
        assert h.shape == (3, 8)
        assert h_state.shape == (3, 8)
        assert c_state.shape == (3, 8)

    def test_state_carries_information(self, rng):
        cell = LSTMCell(4, 5, rng=rng)
        x = Tensor(rng.normal(size=(2, 4)))
        _, state = cell(x)
        out_with_state, _ = cell(x, state)
        out_without, _ = cell(x)
        assert not np.allclose(out_with_state.data, out_without.data)

    def test_forget_bias_initialised_positive(self, rng):
        cell = LSTMCell(4, 5, rng=rng, forget_bias=1.0)
        hidden = 5
        assert np.allclose(cell.bias.data[hidden:2 * hidden], 1.0)
        assert np.allclose(cell.bias.data[:hidden], 0.0)

    def test_gradients_flow_through_time(self, rng):
        cell = LSTMCell(3, 4, rng=rng)
        x1 = Tensor(rng.normal(size=(2, 3)))
        x2 = Tensor(rng.normal(size=(2, 3)))

        def loss_fn():
            _, state = cell(x1)
            out, _ = cell(x2, state)
            return (out ** 2).sum()

        check_gradients(loss_fn, [cell.weight_x, cell.weight_h, cell.bias],
                        rtol=1e-3, atol=1e-5)

    def test_cell_state_bounded_by_tanh_output(self, rng):
        cell = LSTMCell(3, 4, rng=rng)
        h, _ = cell(Tensor(rng.normal(size=(2, 3)) * 10))
        assert np.all(np.abs(h.data) <= 1.0 + 1e-9)


class TestLSTM:
    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            LSTM(4, 4, num_layers=0)

    def test_output_shapes(self, rng):
        lstm = LSTM(5, 7, num_layers=2, rng=rng)
        inputs = Tensor(rng.normal(size=(6, 3, 5)))
        outputs, state = lstm(inputs)
        assert outputs.shape == (6, 3, 7)
        assert len(state) == 2
        assert state[0][0].shape == (3, 7)

    def test_init_state_zeros(self, rng):
        lstm = LSTM(4, 6, num_layers=3, rng=rng)
        state = lstm.init_state(batch=5)
        assert len(state) == 3
        assert np.allclose(state[1][0].data, 0.0)

    def test_state_continuation_differs_from_fresh(self, rng):
        lstm = LSTM(4, 6, num_layers=1, rng=rng)
        inputs = Tensor(rng.normal(size=(3, 2, 4)))
        _, state = lstm(inputs)
        continued, _ = lstm(inputs, state)
        fresh, _ = lstm(inputs)
        assert not np.allclose(continued.data, fresh.data)

    def test_wrong_state_length_raises(self, rng):
        lstm = LSTM(4, 6, num_layers=2, rng=rng)
        inputs = Tensor(rng.normal(size=(3, 2, 4)))
        with pytest.raises(ValueError):
            lstm(inputs, lstm.init_state(2)[:1])

    def test_dropout_builder_is_used_between_layers(self, rng):
        built = []

        def builder(layer):
            built.append(layer)
            return Dropout(0.5, rng=rng)

        lstm = LSTM(4, 6, num_layers=3, rng=rng, dropout_builder=builder)
        assert built == [0, 1]
        assert len(lstm.inter_layer_dropout) == 2

    def test_backward_through_sequence(self, rng):
        lstm = LSTM(3, 4, num_layers=2, rng=rng)
        inputs = Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True)
        outputs, _ = lstm(inputs)
        (outputs ** 2).sum().backward()
        assert inputs.grad is not None
        assert all(p.grad is not None for p in lstm.parameters())

    def test_single_layer_has_no_interlayer_dropout(self, rng):
        lstm = LSTM(4, 4, num_layers=1, rng=rng)
        assert lstm.inter_layer_dropout == []


class TestInputPatternCompaction:
    """The pattern-aware cell input GEMM (paper's non-recurrent LSTM dropout)."""

    def _pattern(self, num_units, dp=2, bias=0):
        from repro.dropout.patterns import RowDropoutPattern

        return RowDropoutPattern(num_units=num_units, dp=dp, bias=bias)

    def test_cell_compact_matches_dense_on_masked_input(self, rng):
        cell = LSTMCell(6, 5, rng=rng)
        pattern = self._pattern(6, dp=3, bias=1)
        x = Tensor(rng.normal(size=(4, 6)) * pattern.mask()[None, :])
        dense, _ = cell(x)
        compact, _ = cell(x, input_pattern=pattern)
        assert np.allclose(dense.data, compact.data)

    def test_lstm_discovers_interlayer_patterns(self, rng):
        from repro.dropout.layers import ApproxRandomDropout
        from repro.nn.recurrent import active_input_pattern

        dropout = ApproxRandomDropout(6, 0.5, rng=np.random.default_rng(0))
        assert active_input_pattern(dropout, 6) is not None or dropout.pattern.dp == 1
        assert active_input_pattern(dropout, 7) is None  # wrong width
        dropout.execution_mode = "masked"
        assert active_input_pattern(dropout, 6) is None
        dropout.execution_mode = "compact"
        dropout.eval()
        assert active_input_pattern(dropout, 6) is None  # not training

    def test_conventional_dropout_never_compacts(self, rng):
        from repro.nn.recurrent import active_input_pattern

        assert active_input_pattern(Dropout(0.5, rng=rng), 6) is None
        assert active_input_pattern(None, 6) is None

    def test_lstm_forward_with_pattern_matches_dense(self, rng):
        from repro.dropout.layers import ApproxRandomDropout

        def builder(layer):
            return ApproxRandomDropout(5, 0.5, rng=np.random.default_rng(3))

        lstm = LSTM(4, 5, num_layers=2, rng=rng, dropout_builder=builder)
        inputs = Tensor(rng.normal(size=(3, 2, 4)))
        out_compact, _ = lstm(inputs)
        for module in lstm.modules():
            if hasattr(module, "execution_mode"):
                module.execution_mode = "masked"
        out_masked, _ = lstm(inputs)
        assert np.allclose(out_compact.data, out_masked.data)


class TestRecurrentDropConnectSite:
    """The recurrent weight_h projection as a pattern site (tiled execution)."""

    def _build_lstm(self, mode, seed=5, hidden=24, layers=2):
        from repro.dropout.layers import ApproxRecurrentDropConnect

        sites = []

        def recurrent_builder(layer):
            site = ApproxRecurrentDropConnect(hidden, 0.5, enabled=True,
                                              rng=np.random.default_rng(9))
            site.execution_mode = mode
            sites.append(site)
            return site

        lstm = LSTM(6, hidden, num_layers=layers,
                    rng=np.random.default_rng(seed),
                    recurrent_dropout_builder=recurrent_builder)
        return lstm, sites

    def test_builder_attaches_one_site_per_cell(self):
        lstm, sites = self._build_lstm("compact", layers=3)
        assert len(sites) == 3
        assert [cell.recurrent_dropout for cell in lstm.cells] == sites

    def test_dense_vs_tiled_equivalence_through_the_unroll(self, rng):
        """With the same installed pattern, the masked (dense GEMM + weight
        mask) and tiled (compact plan + hoisted window context) executions of
        a whole multi-layer unroll agree — forward and gradients."""
        masked_lstm, masked_sites = self._build_lstm("masked")
        tiled_lstm, tiled_sites = self._build_lstm("compact")
        patterns = [site.resample() for site in masked_sites]
        for masked_site, tiled_site, pattern in zip(masked_sites, tiled_sites,
                                                    patterns):
            masked_site.set_pattern(pattern)
            tiled_site.set_pattern(pattern)
        inputs = rng.normal(size=(4, 3, 6))
        results = []
        for lstm in (masked_lstm, tiled_lstm):
            x = Tensor(inputs, requires_grad=True)
            out, _ = lstm(x)
            (out ** 2).sum().backward()
            grads = [cell.weight_h.grad.copy() for cell in lstm.cells]
            results.append((out.data.copy(), x.grad.copy(), grads))
        np.testing.assert_allclose(results[1][0], results[0][0],
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(results[1][1], results[0][1],
                                   rtol=1e-10, atol=1e-12)
        for masked_grad, tiled_grad, pattern in zip(results[0][2],
                                                    results[1][2], patterns):
            np.testing.assert_allclose(tiled_grad, masked_grad,
                                       rtol=1e-10, atol=1e-12)
            # Dropped recurrent tiles receive exactly zero gradient.
            assert np.all(tiled_grad[pattern.mask() == 0.0] == 0.0)

    def test_unroll_hoists_one_context_per_cell(self, rng):
        """The weight-tile gather and the weight-gradient GEMMs run once per
        cell per window; only the projection GEMMs run per timestep."""
        from repro.backends import ExecutionBackend
        from repro.dropout.engine import compile_recurrent_plan

        lstm, sites = self._build_lstm("compact", layers=2)
        backend = ExecutionBackend()
        for site in sites:
            site.backend = backend
        seq_len, cells = 5, 2
        out, _ = lstm(Tensor(rng.normal(size=(seq_len, 2, 6))))
        classes = sum(len(compile_recurrent_plan(site.pattern).classes)
                      for site in sites)
        # One weight gather per column class for the whole window (the
        # context) and nothing per timestep: the per-timestep class GEMMs run
        # through the backend's context primitives against the pre-gathered
        # blocks (one context_forward per timestep, one GEMM per class each).
        assert backend.calls["gather"] == classes
        assert backend.calls["context_forward"] == seq_len * cells
        assert backend.calls["context_gemm"] == seq_len * classes
        (out ** 2).sum().backward()
        # The weight gradient is one call per cell over every timestep's
        # rows; the state gradient is one per timestep after the first (the
        # initial state is off the tape).
        assert backend.calls["context_backward_blocks"] == cells
        assert backend.calls["context_backward_h"] == (seq_len - 1) * cells
        assert backend.calls["context_forward"] == seq_len * cells

    def test_eval_mode_unroll_is_dense_scaled(self, rng):
        lstm, sites = self._build_lstm("compact", layers=1)
        lstm.eval()
        x = Tensor(rng.normal(size=(3, 2, 6)))
        out, _ = lstm(x)
        assert np.all(np.isfinite(out.data))
        # No compact path in eval: the site hands the cell a dense projection.
        assert isinstance(sites[0].window_projection(lstm.cells[0].weight_h),
                          DenseProjection)

    def test_disabled_site_matches_plain_cell(self, rng):
        from repro.dropout.layers import ApproxRecurrentDropConnect

        site = ApproxRecurrentDropConnect(8, 0.5, enabled=False,
                                          rng=np.random.default_rng(0))
        with_site = LSTMCell(4, 8, rng=np.random.default_rng(1),
                             recurrent_dropout=site)
        without = LSTMCell(4, 8, rng=np.random.default_rng(1))
        x = Tensor(rng.normal(size=(2, 4)))
        np.testing.assert_allclose(with_site(x)[0].data, without(x)[0].data)

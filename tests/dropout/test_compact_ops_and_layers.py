"""Tests for the compact GEMM ops and the approximate-dropout layers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dropout import (
    ApproxBlockDropout,
    ApproxDropConnectLinear,
    ApproxRandomDropout,
    ApproxRandomDropoutLinear,
    RowDropoutPattern,
    TileDropoutPattern,
)
from repro.dropout.compact_ops import (
    dense_masked_linear_reference,
    row_compact_linear,
    tile_compact_linear,
)
from repro.dropout.layers import ApproxRecurrentDropConnect
from repro.dropout.patterns import RecurrentTilePattern
from repro.tensor import Tensor, check_gradients, functional as F


def make_linear_inputs(rng, batch=4, in_features=7, out_features=9):
    x = Tensor(rng.normal(size=(batch, in_features)), requires_grad=True)
    weight = Tensor(rng.normal(size=(out_features, in_features)), requires_grad=True)
    bias = Tensor(rng.normal(size=out_features), requires_grad=True)
    return x, weight, bias


class TestRowCompactLinear:
    def test_matches_dense_masked_reference(self, rng):
        x, weight, bias = make_linear_inputs(rng)
        pattern = RowDropoutPattern(num_units=9, dp=3, bias=1)
        out = row_compact_linear(x, weight, bias, pattern)
        reference = dense_masked_linear_reference(
            x.data, weight.data, bias.data, pattern.mask(), mask_axis="rows")
        assert np.allclose(out.data, reference)

    def test_input_pattern_compaction_is_equivalent_when_inputs_already_zero(self, rng):
        """Skipping dropped input columns changes nothing when those inputs are zero."""
        input_pattern = RowDropoutPattern(num_units=7, dp=2, bias=0)
        x_raw = rng.normal(size=(5, 7)) * input_pattern.mask()  # dropped inputs zeroed
        x = Tensor(x_raw, requires_grad=True)
        weight = Tensor(rng.normal(size=(9, 7)), requires_grad=True)
        bias = Tensor(rng.normal(size=9), requires_grad=True)
        pattern = RowDropoutPattern(num_units=9, dp=3, bias=2)
        chained = row_compact_linear(x, weight, bias, pattern, input_pattern=input_pattern)
        unchained = row_compact_linear(x, weight, bias, pattern)
        assert np.allclose(chained.data, unchained.data)

    def test_gradcheck_without_input_pattern(self, rng):
        x, weight, bias = make_linear_inputs(rng)
        pattern = RowDropoutPattern(num_units=9, dp=4, bias=1)
        check_gradients(
            lambda: (row_compact_linear(x, weight, bias, pattern) ** 2).sum(),
            [x, weight, bias])

    def test_gradcheck_with_input_pattern(self, rng):
        x, weight, bias = make_linear_inputs(rng)
        pattern = RowDropoutPattern(num_units=9, dp=3, bias=0)
        input_pattern = RowDropoutPattern(num_units=7, dp=2, bias=1)
        check_gradients(
            lambda: (row_compact_linear(x, weight, bias, pattern,
                                        input_pattern=input_pattern) ** 2).sum(),
            [x, weight, bias])

    def test_dropped_rows_receive_zero_gradient(self, rng):
        x, weight, bias = make_linear_inputs(rng)
        pattern = RowDropoutPattern(num_units=9, dp=3, bias=0)
        row_compact_linear(x, weight, bias, pattern).sum().backward()
        assert np.allclose(weight.grad[pattern.dropped_indices], 0.0)
        assert np.allclose(bias.grad[pattern.dropped_indices], 0.0)
        assert np.any(weight.grad[pattern.kept_indices] != 0.0)

    def test_no_bias(self, rng):
        x, weight, _ = make_linear_inputs(rng)
        pattern = RowDropoutPattern(num_units=9, dp=2, bias=0)
        out = row_compact_linear(x, weight, None, pattern)
        assert out.shape == (4, 9)

    def test_shape_validation(self, rng):
        x, weight, bias = make_linear_inputs(rng)
        with pytest.raises(ValueError):
            row_compact_linear(x, weight, bias, RowDropoutPattern(5, 2, 0))
        with pytest.raises(ValueError):
            row_compact_linear(Tensor(rng.normal(size=(3,))), weight, bias,
                               RowDropoutPattern(9, 2, 0))
        with pytest.raises(ValueError):
            row_compact_linear(x, weight, bias, RowDropoutPattern(9, 2, 0),
                               input_pattern=RowDropoutPattern(3, 2, 0))


class TestTileCompactLinear:
    def test_matches_dense_masked_reference(self, rng):
        x, weight, bias = make_linear_inputs(rng)
        pattern = TileDropoutPattern(rows=9, cols=7, dp=3, bias=1, tile=3)
        out = tile_compact_linear(x, weight, bias, pattern)
        reference = dense_masked_linear_reference(
            x.data, weight.data, bias.data, pattern.mask(), mask_axis="weight")
        assert np.allclose(out.data, reference)

    def test_gradcheck(self, rng):
        x, weight, bias = make_linear_inputs(rng)
        pattern = TileDropoutPattern(rows=9, cols=7, dp=2, bias=0, tile=4)
        check_gradients(
            lambda: (tile_compact_linear(x, weight, bias, pattern) ** 2).sum(),
            [x, weight, bias])

    def test_dropped_tiles_receive_zero_gradient(self, rng):
        x, weight, bias = make_linear_inputs(rng)
        pattern = TileDropoutPattern(rows=9, cols=7, dp=2, bias=1, tile=3)
        tile_compact_linear(x, weight, bias, pattern).sum().backward()
        assert np.allclose(weight.grad[pattern.mask() == 0.0], 0.0)

    def test_bias_never_dropped(self, rng):
        x, weight, bias = make_linear_inputs(rng)
        pattern = TileDropoutPattern(rows=9, cols=7, dp=9, bias=0, tile=3)
        tile_compact_linear(x, weight, bias, pattern).sum().backward()
        assert np.allclose(bias.grad, x.shape[0])

    def test_shape_validation(self, rng):
        x, weight, bias = make_linear_inputs(rng)
        with pytest.raises(ValueError):
            tile_compact_linear(x, weight, bias, TileDropoutPattern(5, 7, 2, 0, tile=3))

    def test_input_width_validation(self, rng):
        x, weight, bias = make_linear_inputs(rng)
        pattern = TileDropoutPattern(rows=9, cols=7, dp=2, bias=0, tile=3)
        with pytest.raises(ValueError, match="inputs"):
            tile_compact_linear(Tensor(x.data[:, :5]), weight, bias, pattern)

    def test_reference_invalid_axis(self, rng):
        with pytest.raises(ValueError):
            dense_masked_linear_reference(rng.normal(size=(2, 3)), rng.normal(size=(4, 3)),
                                          None, np.ones(4), mask_axis="bogus")


class TestApproxRandomDropoutLayer:
    def test_validation(self):
        with pytest.raises(ValueError):
            ApproxRandomDropout(0, 0.5)
        with pytest.raises(ValueError):
            ApproxRandomDropout(8, 1.0)

    def test_zero_rate_identity(self, rng):
        layer = ApproxRandomDropout(8, 0.0, rng=rng)
        x = Tensor(rng.normal(size=(3, 8)))
        assert layer(x) is x

    def test_training_applies_row_mask(self, rng):
        layer = ApproxRandomDropout(16, 0.5, rng=rng)
        layer.set_pattern(RowDropoutPattern(16, dp=2, bias=0))
        out = layer(Tensor(np.ones((4, 16))))
        assert np.allclose(out.data[:, 1::2], 0.0)
        assert np.allclose(out.data[:, 0::2], 1.0)

    def test_eval_rescales_by_keep_probability(self, rng):
        layer = ApproxRandomDropout(16, 0.5, rng=rng)
        layer.eval()
        out = layer(Tensor(np.ones((2, 16))))
        assert np.allclose(out.data, 0.5)

    def test_set_pattern_validates_width(self, rng):
        layer = ApproxRandomDropout(16, 0.5, rng=rng)
        with pytest.raises(ValueError):
            layer.set_pattern(RowDropoutPattern(8, dp=2, bias=0))

    def test_resample_changes_pattern(self, rng):
        layer = ApproxRandomDropout(64, 0.5, rng=rng)
        seen = {(layer.resample().dp, layer.pattern.bias) for _ in range(30)}
        assert len(seen) > 1


class TestApproxBlockDropout:
    def test_block_structure(self, rng):
        layer = ApproxBlockDropout(8, 0.5, block=2, rng=rng)
        layer.pattern = RowDropoutPattern(4, dp=2, bias=0)  # blocks 0 and 2 kept
        mask = layer.unit_mask()
        assert np.allclose(mask, [1, 1, 0, 0, 1, 1, 0, 0])

    def test_eval_rescale(self, rng):
        layer = ApproxBlockDropout(8, 0.25, block=2, rng=rng)
        layer.eval()
        assert np.allclose(layer(Tensor(np.ones((1, 8)))).data, 0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            ApproxBlockDropout(8, 0.5, block=0)


class TestApproxRandomDropoutLinearLayer:
    def test_eval_is_scaled_dense_linear(self, rng):
        layer = ApproxRandomDropoutLinear(6, 8, drop_rate=0.5, rng=rng)
        layer.eval()
        x = Tensor(rng.normal(size=(3, 6)))
        expected = (x.data @ layer.weight.data.T + layer.bias.data) * 0.5
        assert np.allclose(layer(x).data, expected)

    def test_training_output_has_zero_dropped_rows(self, rng):
        layer = ApproxRandomDropoutLinear(6, 9, drop_rate=0.5, rng=rng)
        layer.set_pattern(RowDropoutPattern(9, dp=3, bias=1))
        out = layer(Tensor(rng.normal(size=(4, 6))))
        assert np.allclose(out.data[:, layer.pattern.dropped_indices], 0.0)

    def test_resample_draws_fresh_patterns(self, rng):
        layer = ApproxRandomDropoutLinear(6, 64, drop_rate=0.5, rng=rng)
        seen = {(layer.resample().dp, layer.pattern.bias) for _ in range(30)}
        assert len(seen) > 1

    def test_parameters_registered(self, rng):
        layer = ApproxRandomDropoutLinear(6, 8, drop_rate=0.5, rng=rng)
        assert len(layer.parameters()) == 2

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ApproxRandomDropoutLinear(4, 4, drop_rate=1.2)

    def test_backward_trains_only_kept_rows(self, rng):
        layer = ApproxRandomDropoutLinear(6, 9, drop_rate=0.5, rng=rng)
        layer.set_pattern(RowDropoutPattern(9, dp=3, bias=0))
        layer(Tensor(rng.normal(size=(4, 6)))).sum().backward()
        assert np.allclose(layer.weight.grad[layer.pattern.dropped_indices], 0.0)


class TestApproxDropConnectLinearLayer:
    def test_eval_rescales_weight_not_bias(self, rng):
        layer = ApproxDropConnectLinear(6, 8, drop_rate=0.5, tile=2, rng=rng)
        layer.eval()
        x = Tensor(rng.normal(size=(3, 6)))
        expected = x.data @ (layer.weight.data * 0.5).T + layer.bias.data
        assert np.allclose(layer(x).data, expected)

    def test_training_uses_tile_pattern(self, rng):
        layer = ApproxDropConnectLinear(6, 8, drop_rate=0.5, tile=2, rng=rng)
        pattern = TileDropoutPattern(rows=8, cols=6, dp=2, bias=0, tile=2)
        layer.set_pattern(pattern)
        x = Tensor(rng.normal(size=(3, 6)))
        expected = x.data @ (layer.weight.data * pattern.mask()).T + layer.bias.data
        assert np.allclose(layer(x).data, expected)

    def test_set_pattern_validates_shape(self, rng):
        layer = ApproxDropConnectLinear(6, 8, drop_rate=0.5, tile=2, rng=rng)
        with pytest.raises(ValueError):
            layer.set_pattern(TileDropoutPattern(rows=4, cols=6, dp=2, bias=0, tile=2))

    def test_zero_rate_is_dense(self, rng):
        layer = ApproxDropConnectLinear(6, 8, drop_rate=0.0, tile=2, rng=rng)
        x = Tensor(rng.normal(size=(3, 6)))
        assert np.allclose(layer(x).data, x.data @ layer.weight.data.T + layer.bias.data)


@settings(max_examples=25, deadline=None)
@given(out_features=st.integers(3, 20), in_features=st.integers(3, 20),
       dp=st.integers(1, 6), seed=st.integers(0, 500))
def test_row_compact_equals_masked_dense_property(out_features, in_features, dp, seed):
    """Property: compact-GEMM forward == dense GEMM followed by row masking."""
    local_rng = np.random.default_rng(seed)
    dp = min(dp, out_features)
    pattern = RowDropoutPattern(out_features, dp=dp, bias=seed % dp)
    x = Tensor(local_rng.normal(size=(3, in_features)))
    weight = Tensor(local_rng.normal(size=(out_features, in_features)))
    bias = Tensor(local_rng.normal(size=out_features))
    compact = row_compact_linear(x, weight, bias, pattern)
    dense = dense_masked_linear_reference(x.data, weight.data, bias.data,
                                          pattern.mask(), mask_axis="rows")
    assert np.allclose(compact.data, dense)


class TestInputCompactLinear:
    """The consumer-GEMM compaction used by the LSTM projection fast path."""

    def _masked_input(self, rng, pattern, batch=4):
        x = Tensor(rng.normal(size=(batch, pattern.num_units)) * pattern.mask()[None, :],
                   requires_grad=True)
        return x

    def test_matches_dense_on_masked_input(self, rng):
        from repro.dropout.compact_ops import input_compact_linear

        pattern = RowDropoutPattern(num_units=12, dp=3, bias=2)
        x = self._masked_input(rng, pattern)
        weight = Tensor(rng.normal(size=(5, 12)), requires_grad=True)
        bias = Tensor(rng.normal(size=5), requires_grad=True)
        out = input_compact_linear(x, weight, bias, pattern)
        dense = x.data @ weight.data.T + bias.data
        assert np.allclose(out.data, dense)

    def test_gradients_match_numerical(self, rng):
        from repro.dropout.compact_ops import input_compact_linear

        pattern = RowDropoutPattern(num_units=8, dp=2, bias=0)
        x = self._masked_input(rng, pattern, batch=3)
        weight = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        bias = Tensor(rng.normal(size=4), requires_grad=True)

        check_gradients(
            lambda: (input_compact_linear(x, weight, bias, pattern) ** 2).sum(),
            [x, weight, bias])

    def test_dropped_columns_get_zero_gradient(self, rng):
        from repro.dropout.compact_ops import input_compact_linear

        pattern = RowDropoutPattern(num_units=10, dp=5, bias=3)
        x = self._masked_input(rng, pattern)
        weight = Tensor(rng.normal(size=(6, 10)), requires_grad=True)
        out = input_compact_linear(x, weight, None, pattern)
        out.sum().backward()
        dropped = pattern.dropped_indices
        assert np.all(x.grad[:, dropped] == 0)
        assert np.all(weight.grad[:, dropped] == 0)
        kept = pattern.kept_indices
        assert np.any(weight.grad[:, kept] != 0)

    def test_shape_validation(self, rng):
        from repro.dropout.compact_ops import input_compact_linear

        pattern = RowDropoutPattern(num_units=9, dp=3, bias=0)
        x = Tensor(rng.normal(size=(4, 7)), requires_grad=True)
        weight = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
        with pytest.raises(ValueError):
            input_compact_linear(x, weight, None, pattern)

    def test_float32_stays_float32(self, rng):
        from repro.dropout.compact_ops import input_compact_linear

        pattern = RowDropoutPattern(num_units=8, dp=2, bias=0)
        x = Tensor(rng.normal(size=(3, 8)), requires_grad=True, dtype=np.float32)
        weight = Tensor(rng.normal(size=(4, 8)), requires_grad=True, dtype=np.float32)
        bias = Tensor(np.zeros(4), requires_grad=True, dtype=np.float32)
        out = input_compact_linear(x, weight, bias, pattern)
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32
        assert weight.grad.dtype == np.float32


#: Contract (d) tolerance: masked and compact GEMMs differ in shape, so they
#: agree to summation order, not bit for bit.
MASKED_TOLERANCE = {"float64": 1e-10, "float32": 1e-4}

#: (hidden, num_gates, dp, bias, tile): 3x3, 5x5 and 8x8 tile grids per gate
#: at periods 3, 4 and 7 (ragged column classes for the last two), and a
#: two-gate site.
RECURRENT_CASES = [
    (96, 4, 3, 1, 32),
    (160, 4, 4, 0, 32),
    (256, 4, 7, 2, 32),
    (64, 2, 2, 1, 32),
]


def _leaf(shape, dtype, seed, scale=1.0):
    data = np.random.default_rng(seed).normal(size=shape) * scale
    return Tensor(data, requires_grad=True, dtype=dtype)


def _cast(layer, dtype):
    for param in layer.parameters():
        param.data = param.data.astype(dtype)
    return layer


def _backprop(out):
    seed_grad = np.random.default_rng(99).normal(size=out.shape)
    (out * Tensor(seed_grad, dtype=out.data.dtype)).sum().backward()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
class TestMaskedExecutionMode:
    """Contract (d): under one frozen pattern, every pattern layer's
    Fig. 1(a) dense-masked path and its compact path give the same output
    and the same input, weight and bias gradients, and exactly zero on
    everything the pattern drops, in both modes."""

    @staticmethod
    def check(run, dtype, dropped):
        """``run(mode)`` returns named arrays; ``dropped`` maps some names
        to a boolean mask (broadcast to the array) of entries that must be
        exactly zero."""
        masked, compact = run("masked"), run("compact")
        assert masked.keys() == compact.keys()
        tol = MASKED_TOLERANCE[dtype]
        for name, expected in masked.items():
            got = compact[name]
            assert got.dtype == expected.dtype == np.dtype(dtype), name
            np.testing.assert_allclose(got, expected, rtol=tol, atol=tol,
                                       err_msg=name)
        for name, mask in dropped.items():
            for result in (masked, compact):
                zero = np.broadcast_to(mask, result[name].shape)
                assert np.all(result[name][zero] == 0.0), name

    def test_activation_dropout(self, dtype):
        pattern = RowDropoutPattern(num_units=12, dp=3, bias=1)

        def run(mode):
            layer = ApproxRandomDropout(12, 0.5, rng=np.random.default_rng(5))
            layer.execution_mode = mode
            layer.set_pattern(pattern)
            x = _leaf((4, 12), dtype, seed=1)
            out = layer(x)
            _backprop(out)
            return {"out": out.data, "x": x.grad}

        dropped = pattern.mask() == 0.0
        self.check(run, dtype, {"out": dropped, "x": dropped})

    def test_block_dropout(self, dtype):
        # 70 units in five 16-wide blocks, the last one ragged.
        pattern = RowDropoutPattern(num_units=5, dp=2, bias=1)

        def run(mode):
            layer = ApproxBlockDropout(70, 0.5, block=16,
                                       rng=np.random.default_rng(5))
            layer.execution_mode = mode
            layer.set_pattern(pattern)
            x = _leaf((4, 70), dtype, seed=1)
            out = layer(x)
            _backprop(out)
            return {"out": out.data, "x": x.grad}

        dropped = np.repeat(pattern.mask() == 0.0, 16)[:70]
        self.check(run, dtype, {"out": dropped, "x": dropped})

    def test_row_linear(self, dtype):
        pattern = RowDropoutPattern(num_units=24, dp=3, bias=1)

        def run(mode):
            layer = _cast(ApproxRandomDropoutLinear(
                20, 24, 0.5, rng=np.random.default_rng(5)), dtype)
            layer.bias.data += np.linspace(-1, 1, 24).astype(dtype)
            layer.execution_mode = mode
            layer.set_pattern(pattern)
            x = _leaf((6, 20), dtype, seed=1)
            out = layer(x)
            _backprop(out)
            return {"out": out.data, "x": x.grad, "weight": layer.weight.grad,
                    "bias": layer.bias.grad}

        dropped = pattern.mask() == 0.0
        self.check(run, dtype, {"out": dropped, "weight": dropped[:, None],
                                "bias": dropped})

    def test_row_linear_chain(self, dtype):
        """The MLP's chain: the compact path skips the input columns the
        previous layer dropped, the masked path multiplies by their zeros."""
        first = RowDropoutPattern(num_units=24, dp=3, bias=1)
        second = RowDropoutPattern(num_units=18, dp=2, bias=0)

        def run(mode):
            layers = [_cast(ApproxRandomDropoutLinear(
                fan_in, fan_out, 0.5, rng=np.random.default_rng(seed)), dtype)
                for fan_in, fan_out, seed in ((20, 24, 5), (24, 18, 6))]
            for layer, pattern in zip(layers, (first, second)):
                layer.bias.data += np.linspace(-1, 1, len(layer.bias.data)
                                               ).astype(dtype)
                layer.execution_mode = mode
                layer.set_pattern(pattern)
            x = _leaf((6, 20), dtype, seed=1)
            out = layers[1](layers[0](x), input_pattern=first)
            _backprop(out)
            return {"out": out.data, "x": x.grad,
                    **{f"{name}{index}": getattr(layer, name).grad
                       for index, layer in enumerate(layers)
                       for name in ("weight", "bias")}}

        dropped_first = first.mask() == 0.0
        dropped_second = second.mask() == 0.0
        self.check(run, dtype, {
            "out": dropped_second,
            "weight0": dropped_first[:, None], "bias0": dropped_first,
            "weight1": dropped_second[:, None] | dropped_first[None, :],
            "bias1": dropped_second})

    def test_tile_linear(self, dtype):
        # A 6x5 tile grid at dp=3: three column classes, each spanning two
        # non-adjacent tile-rows (0 and 3, 1 and 4, 2 and 5).
        pattern = TileDropoutPattern(rows=192, cols=160, dp=3, bias=0, tile=32)

        def run(mode):
            layer = _cast(ApproxDropConnectLinear(
                160, 192, 0.5, rng=np.random.default_rng(5)), dtype)
            layer.bias.data += np.linspace(-1, 1, 192).astype(dtype)
            layer.execution_mode = mode
            layer.set_pattern(pattern)
            x = _leaf((6, 160), dtype, seed=1)
            out = layer(x)
            _backprop(out)
            return {"out": out.data, "x": x.grad, "weight": layer.weight.grad,
                    "bias": layer.bias.grad}

        self.check(run, dtype, {"weight": pattern.mask() == 0.0})

    @pytest.mark.parametrize("hidden,gates,dp,bias_phase,tile", RECURRENT_CASES)
    def test_recurrent_dropconnect(self, dtype, hidden, gates, dp, bias_phase,
                                   tile):
        """An enabled recurrent site: four-gate cases run the fused LSTM
        recurrence over three timesteps, the two-gate case one projection
        step (the recurrence needs four gates)."""
        pattern = RecurrentTilePattern(hidden_size=hidden, num_gates=gates,
                                       dp=dp, bias=bias_phase, tile=tile)
        batch = 4

        def run(mode):
            site = ApproxRecurrentDropConnect(hidden, 0.5, num_gates=gates,
                                              tile=tile, enabled=True)
            site.execution_mode = mode
            site.set_pattern(pattern)
            weight = _leaf((gates * hidden, hidden), dtype, seed=2, scale=0.1)
            projection = site.window_projection(weight)
            if gates != 4:
                h = _leaf((batch, hidden), dtype, seed=3)
                out = projection(h)
                _backprop(out)
                return {"out": out.data, "h": h.grad, "weight": weight.grad}
            gates_x = _leaf((3 * batch, 4 * hidden), dtype, seed=3)
            h0, c0 = (_leaf((batch, hidden), dtype, seed=seed)
                      for seed in (4, 5))
            out, h, c = F.lstm_recurrence(gates_x, h0, c0, projection)
            ((out * out).sum() + (h * c).sum()).backward()
            return {"out": out.data, "h": h.data, "c": c.data,
                    "gates_x": gates_x.grad, "h0": h0.grad, "c0": c0.grad,
                    "weight": weight.grad}

        self.check(run, dtype, {"weight": pattern.mask() == 0.0})

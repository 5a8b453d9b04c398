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
from repro.tensor import Tensor, check_gradients


def make_linear_inputs(rng, batch=4, in_features=7, out_features=9):
    x = Tensor(rng.normal(size=(batch, in_features)), requires_grad=True)
    weight = Tensor(rng.normal(size=(out_features, in_features)), requires_grad=True)
    bias = Tensor(rng.normal(size=out_features), requires_grad=True)
    return x, weight, bias


class TestRowCompactLinear:
    def test_matches_dense_masked_reference(self, rng):
        x, weight, bias = make_linear_inputs(rng)
        pattern = RowDropoutPattern(num_units=9, dp=3, bias=1)
        out = row_compact_linear(x, weight, bias, pattern, scale_factor=1.0)
        reference = dense_masked_linear_reference(
            x.data, weight.data, bias.data, pattern.mask(), 1.0, mask_axis="rows")
        assert np.allclose(out.data, reference)

    def test_scale_factor_applied_to_kept_rows_only(self, rng):
        x, weight, bias = make_linear_inputs(rng)
        pattern = RowDropoutPattern(num_units=9, dp=3, bias=0)
        out = row_compact_linear(x, weight, bias, pattern, scale_factor=2.0)
        unscaled = row_compact_linear(x, weight, bias, pattern, scale_factor=1.0)
        assert np.allclose(out.data, unscaled.data * 2.0)
        assert np.allclose(out.data[:, pattern.dropped_indices], 0.0)

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
            lambda: (row_compact_linear(x, weight, bias, pattern, scale_factor=1.5) ** 2).sum(),
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
        out = tile_compact_linear(x, weight, bias, pattern, scale_factor=1.0)
        reference = dense_masked_linear_reference(
            x.data, weight.data, bias.data, pattern.mask(), 1.0, mask_axis="weight")
        assert np.allclose(out.data, reference)

    def test_gradcheck(self, rng):
        x, weight, bias = make_linear_inputs(rng)
        pattern = TileDropoutPattern(rows=9, cols=7, dp=2, bias=0, tile=4)
        check_gradients(
            lambda: (tile_compact_linear(x, weight, bias, pattern, scale_factor=1.3) ** 2).sum(),
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
                                          pattern.mask(), 1.0, mask_axis="rows")
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


class TestMaskedExecutionMode:
    """The Fig. 1(a) dense-masked execution path of the pattern layers."""

    def test_row_linear_masked_matches_compact(self, rng):
        layers = [ApproxRandomDropoutLinear(7, 9, 0.5, rng=np.random.default_rng(5))
                  for _ in range(2)]
        pattern = RowDropoutPattern(num_units=9, dp=3, bias=1)
        x = Tensor(rng.normal(size=(4, 7)))
        for layer, mode in zip(layers, ("masked", "compact")):
            layer.execution_mode = mode
            layer.set_pattern(pattern)
        assert np.allclose(layers[0](x).data, layers[1](x).data)

    def test_activation_dropout_masked_matches_compact(self, rng):
        layers = [ApproxRandomDropout(12, 0.5, rng=np.random.default_rng(5))
                  for _ in range(2)]
        pattern = RowDropoutPattern(num_units=12, dp=2, bias=1)
        x = Tensor(rng.normal(size=(4, 12)))
        for layer, mode in zip(layers, ("masked", "compact")):
            layer.execution_mode = mode
            layer.set_pattern(pattern)
        assert np.allclose(layers[0](x).data, layers[1](x).data)

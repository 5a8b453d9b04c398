"""Property-based gradcheck suite for the compact ops (RDP and TDP).

Every test pits a compact op against the dense mask-multiply reference built
from the ordinary autodiff ops (dense GEMM + ``apply_mask``), comparing the
forward values AND the analytic gradients of every differentiable input
(``x``, ``weight``, ``bias``) across randomized shapes, dropout patterns,
scale factors and the ``input_pattern`` column-compaction path.  A handful of
central-finite-difference checks anchor the analytic-vs-analytic comparisons
to ground truth.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dropout import (
    ApproxDropConnectLinear,
    ApproxRandomDropoutLinear,
    CompactWorkspace,
    RowDropoutPattern,
    TileDropoutPattern,
    compile_tile_plan,
)
from repro.dropout.compact_ops import (
    head_compact_linear,
    row_compact_linear,
    tile_compact_linear,
)
from repro.tensor import Tensor, check_gradients, functional as F


def make_inputs(rng, batch, in_features, out_features):
    x = Tensor(rng.normal(size=(batch, in_features)), requires_grad=True)
    weight = Tensor(rng.normal(size=(out_features, in_features)), requires_grad=True)
    bias = Tensor(rng.normal(size=out_features), requires_grad=True)
    return x, weight, bias


def dense_row_reference(x, weight, bias, pattern, input_pattern, scale_factor):
    """Dense autodiff reference for ``row_compact_linear`` (same semantics)."""
    if input_pattern is not None:
        x = F.apply_mask(x, input_pattern.mask()[None, :])
    out = F.apply_mask(F.linear(x, weight, bias), pattern.mask()[None, :])
    return out * scale_factor


def dense_tile_reference(x, weight, bias, pattern, scale_factor):
    """Dense autodiff reference for ``tile_compact_linear`` (same semantics)."""
    out = x.matmul(F.apply_mask(weight, pattern.mask()).transpose()) * scale_factor
    if bias is not None:
        out = out + bias
    return out


def backprop_with_direction(out, direction):
    """Backprop a fixed non-uniform upstream gradient through ``out``."""
    (out * direction).sum().backward()


def grads_of(tensors):
    return [t.grad.copy() if t.grad is not None else None for t in tensors]


def assert_all_close(actual, expected):
    for a, e in zip(actual, expected):
        assert (a is None) == (e is None)
        if a is not None:
            np.testing.assert_allclose(a, e, rtol=1e-9, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 6), in_features=st.integers(3, 24),
       out_features=st.integers(3, 24), dp=st.integers(1, 6),
       in_dp=st.integers(0, 5),  # 0 => no input pattern
       scale=st.sampled_from([0.5, 1.0, 2.0]), seed=st.integers(0, 10_000))
def test_row_compact_matches_dense_forward_and_gradients(
        batch, in_features, out_features, dp, in_dp, scale, seed):
    rng = np.random.default_rng(seed)
    x, weight, bias = make_inputs(rng, batch, in_features, out_features)
    dp = min(dp, out_features)
    pattern = RowDropoutPattern(out_features, dp=dp, bias=int(rng.integers(dp)))
    input_pattern = None
    if in_dp:
        in_dp = min(in_dp, in_features)
        input_pattern = RowDropoutPattern(in_features, dp=in_dp,
                                          bias=int(rng.integers(in_dp)))
    direction = rng.normal(size=(batch, out_features))

    compact = row_compact_linear(x, weight, bias, pattern,
                                 input_pattern=input_pattern,
                                 scale_factor=scale)
    backprop_with_direction(compact, direction)
    compact_grads = grads_of([x, weight, bias])

    for tensor in (x, weight, bias):
        tensor.zero_grad()
    dense = dense_row_reference(x, weight, bias, pattern, input_pattern, scale)
    np.testing.assert_allclose(compact.data, dense.data, rtol=1e-9, atol=1e-10)
    backprop_with_direction(dense, direction)
    assert_all_close(compact_grads, grads_of([x, weight, bias]))


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 6), in_features=st.integers(3, 24),
       out_features=st.integers(3, 24), dp=st.integers(1, 8),
       tile=st.integers(2, 6), scale=st.sampled_from([0.5, 1.0, 1.7]),
       with_bias=st.booleans(), seed=st.integers(0, 10_000))
def test_tile_compact_matches_dense_forward_and_gradients(
        batch, in_features, out_features, dp, tile, scale, with_bias, seed):
    rng = np.random.default_rng(seed)
    x, weight, bias = make_inputs(rng, batch, in_features, out_features)
    if not with_bias:
        bias = None
    reference = TileDropoutPattern(rows=out_features, cols=in_features, dp=1,
                                   bias=0, tile=tile)
    dp = min(dp, reference.num_tiles)
    pattern = TileDropoutPattern(rows=out_features, cols=in_features, dp=dp,
                                 bias=int(rng.integers(dp)), tile=tile)
    direction = rng.normal(size=(batch, out_features))

    tensors = [x, weight] + ([bias] if bias is not None else [])
    compact = tile_compact_linear(x, weight, bias, pattern, scale_factor=scale)
    backprop_with_direction(compact, direction)
    compact_grads = grads_of(tensors)

    for tensor in tensors:
        tensor.zero_grad()
    dense = dense_tile_reference(x, weight, bias, pattern, scale)
    np.testing.assert_allclose(compact.data, dense.data, rtol=1e-9, atol=1e-10)
    backprop_with_direction(dense, direction)
    assert_all_close(compact_grads, grads_of(tensors))


def dense_head_reference(x, weight, bias, kept_rows, input_pattern):
    """Dense autodiff reference for ``head_compact_linear``: full projection,
    then a differentiable gather of the kept output columns."""
    if input_pattern is not None:
        x = F.apply_mask(x, input_pattern.mask()[None, :])
    return F.cols_select(F.linear(x, weight, bias), kept_rows)


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 6), in_features=st.integers(3, 24),
       out_features=st.integers(4, 32), dp=st.integers(1, 6),
       in_dp=st.integers(0, 5),  # 0 => no input pattern
       extra_targets=st.integers(0, 4), seed=st.integers(0, 10_000))
def test_head_compact_matches_dense_forward_and_gradients(
        batch, in_features, out_features, dp, in_dp, extra_targets, seed):
    """The class-pruned gather-GEMM of the loss heads: compact logits match a
    dense-projection-then-gather reference, and the weight/bias gradients of
    dropped classes are exactly zero."""
    rng = np.random.default_rng(seed)
    x, weight, bias = make_inputs(rng, batch, in_features, out_features)
    dp = min(dp, out_features)
    pattern = RowDropoutPattern(out_features, dp=dp, bias=int(rng.integers(dp)))
    # The heads keep the pattern rows plus the batch targets — model that as
    # a few extra rows unioned in.
    kept_rows = np.union1d(pattern.kept_indices,
                           rng.integers(0, out_features, size=extra_targets))
    input_pattern = None
    if in_dp:
        in_dp = min(in_dp, in_features)
        input_pattern = RowDropoutPattern(in_features, dp=in_dp,
                                          bias=int(rng.integers(in_dp)))
    direction = rng.normal(size=(batch, len(kept_rows)))

    compact = head_compact_linear(x, weight, bias, kept_rows,
                                  input_pattern=input_pattern)
    backprop_with_direction(compact, direction)
    compact_grads = grads_of([x, weight, bias])
    dropped = np.setdiff1d(np.arange(out_features), kept_rows)
    assert np.all(compact_grads[1][dropped] == 0.0)
    assert np.all(compact_grads[2][dropped] == 0.0)

    for tensor in (x, weight, bias):
        tensor.zero_grad()
    dense = dense_head_reference(x, weight, bias, kept_rows, input_pattern)
    np.testing.assert_allclose(compact.data, dense.data, rtol=1e-9, atol=1e-10)
    backprop_with_direction(dense, direction)
    assert_all_close(compact_grads, grads_of([x, weight, bias]))


class TestNumericalGradcheck:
    """Central-difference anchors for the analytic-vs-analytic property tests."""

    @pytest.mark.parametrize("in_dp", [None, 2, 3])
    def test_row_compact_numerical(self, rng, in_dp):
        x, weight, bias = make_inputs(rng, 3, 7, 9)
        pattern = RowDropoutPattern(9, dp=3, bias=1)
        input_pattern = RowDropoutPattern(7, dp=in_dp, bias=in_dp - 1) if in_dp else None
        check_gradients(
            lambda: (row_compact_linear(x, weight, bias, pattern,
                                        input_pattern=input_pattern,
                                        scale_factor=1.5) ** 2).sum(),
            [x, weight, bias])

    def test_tile_compact_numerical(self, rng):
        x, weight, bias = make_inputs(rng, 3, 7, 9)
        pattern = TileDropoutPattern(rows=9, cols=7, dp=3, bias=1, tile=3)
        check_gradients(
            lambda: (tile_compact_linear(x, weight, bias, pattern,
                                         scale_factor=1.3) ** 2).sum(),
            [x, weight, bias])

    def test_tile_compact_numerical_with_partial_edge_tiles(self, rng):
        # 10x11 with tile=4 leaves partial tiles on both edges.
        x, weight, bias = make_inputs(rng, 2, 11, 10)
        pattern = TileDropoutPattern(rows=10, cols=11, dp=2, bias=1, tile=4)
        check_gradients(
            lambda: (tile_compact_linear(x, weight, bias, pattern) ** 2).sum(),
            [x, weight, bias])

    def test_head_compact_rejects_duplicate_classes(self, rng):
        # The gradient scatter assigns per kept row; duplicates would get
        # last-write-wins gradients, so the op refuses them up front.
        x, weight, bias = make_inputs(rng, 3, 8, 12)
        with pytest.raises(ValueError, match="duplicate"):
            head_compact_linear(x, weight, bias, np.array([3, 3, 7]))

    @pytest.mark.parametrize("in_dp", [None, 2])
    def test_head_compact_numerical(self, rng, in_dp):
        x, weight, bias = make_inputs(rng, 3, 8, 12)
        kept_rows = np.array([0, 3, 4, 7, 11])
        input_pattern = RowDropoutPattern(8, dp=in_dp, bias=1) if in_dp else None
        check_gradients(
            lambda: (head_compact_linear(x, weight, bias, kept_rows,
                                         input_pattern=input_pattern) ** 2).sum(),
            [x, weight, bias])


class TestWorkspaceSafety:
    """Scratch buffers must never overwrite a tensor a caller still holds."""

    @pytest.mark.parametrize("layer_cls, kwargs", [
        (ApproxRandomDropoutLinear, {}),
        (ApproxDropConnectLinear, {"tile": 4}),
    ], ids=["row", "tile"])
    def test_held_output_and_grad_survive(self, rng, layer_cls, kwargs):
        """The output and weight gradient of step t stay intact while steps
        t+1 and t+2 run the same layer (a reused scatter buffer would be
        refilled in place underneath them)."""
        layer = layer_cls(16, 16, 0.5, rng=rng, **kwargs)
        held = []
        for _ in range(3):
            layer.resample()
            layer.zero_grad()
            out = layer(Tensor(rng.normal(size=(4, 16))))
            out.sum().backward()
            held.append((out.data, layer.weight.grad))
            if len(held) == 1:
                snapshot = (out.data.copy(), layer.weight.grad.copy())
        np.testing.assert_array_equal(held[0][0], snapshot[0])
        np.testing.assert_array_equal(held[0][1], snapshot[1])

    def test_shape_change_reallocates(self, rng):
        workspace = CompactWorkspace()
        a = workspace.zeros("k", (4, 8))
        a[:] = 7.0
        b = workspace.zeros("k", (2, 8))
        assert b.shape == (2, 8)
        assert np.all(b == 0.0)

    def test_buffers_return_zeroed(self):
        workspace = CompactWorkspace()
        first = workspace.zeros("k", (3, 3))
        first += 5.0
        again = workspace.zeros("k", (3, 3))
        assert again is first
        assert np.all(again == 0.0)


class TestTilePlan:
    def test_plan_is_interned(self):
        pattern = TileDropoutPattern(rows=64, cols=64, dp=2, bias=0, tile=32)
        assert compile_tile_plan(pattern) is compile_tile_plan(pattern)

    def test_plan_groups_cover_exactly_the_kept_tiles(self):
        pattern = TileDropoutPattern(rows=12, cols=12, dp=3, bias=1, tile=4)
        plan = compile_tile_plan(pattern)
        rebuilt = np.zeros((12, 12))
        for group in plan.row_groups:
            rebuilt[group.row_start:group.row_stop][:, group.col_indices] = 1.0
        np.testing.assert_array_equal(rebuilt, pattern.mask())

    def test_compact_flops_fraction_matches_keep_fraction(self):
        pattern = TileDropoutPattern(rows=16, cols=16, dp=4, bias=2, tile=4)
        plan = compile_tile_plan(pattern)
        assert plan.compact_flops_fraction == pytest.approx(pattern.keep_fraction)

    def test_mismatched_plan_rejected(self, rng):
        x, weight, bias = make_inputs(rng, 2, 8, 8)
        pattern = TileDropoutPattern(rows=8, cols=8, dp=2, bias=0, tile=4)
        other = compile_tile_plan(TileDropoutPattern(rows=8, cols=8, dp=2, bias=1,
                                                     tile=4))
        with pytest.raises(ValueError):
            tile_compact_linear(x, weight, bias, pattern, plan=other)

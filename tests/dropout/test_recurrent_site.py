"""Tests for the recurrent (gate-aligned DropConnect) pattern site.

Covers the whole new recurrent path bottom-up: the
:class:`RecurrentTilePattern` objects and their interning, the sampler draws,
the replicated execution plans and column-class decomposition, the
per-window tiled projection (tested against the dense masked reference,
forward and both gradients), and the
:class:`ApproxRecurrentDropConnect` module's gating/mode semantics.
"""

import numpy as np
import pytest

from repro.dropout.compact_ops import TileContext, recurrent_compact_context
from repro.dropout.engine import compile_recurrent_plan, compile_tile_plan
from repro.dropout.layers import ApproxRecurrentDropConnect
from repro.dropout.patterns import (
    RecurrentTilePattern,
    recurrent_tile_mask,
    recurrent_tile_pattern,
)
from repro.dropout.sampler import is_pattern_site
from repro.tensor import Tensor
from repro.tensor.functional import DenseProjection


class TestRecurrentTilePattern:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecurrentTilePattern(hidden_size=0, num_gates=4, dp=2, bias=0)
        with pytest.raises(ValueError):
            RecurrentTilePattern(hidden_size=32, num_gates=0, dp=2, bias=0)
        with pytest.raises(ValueError):
            RecurrentTilePattern(hidden_size=32, num_gates=4, dp=2, bias=2)

    def test_mask_is_gate_replicated(self):
        pattern = RecurrentTilePattern(hidden_size=64, num_gates=4, dp=3,
                                       bias=1, tile=32)
        mask = pattern.mask()
        assert mask.shape == (256, 64)
        gate_mask = pattern.gate_pattern.mask()
        for gate in range(4):
            np.testing.assert_array_equal(mask[gate * 64:(gate + 1) * 64],
                                          gate_mask)

    def test_rebuilt_mask_matches_cached(self):
        pattern = RecurrentTilePattern(hidden_size=96, num_gates=4, dp=5,
                                       bias=2, tile=32)
        np.testing.assert_array_equal(
            recurrent_tile_mask(96, 4, 5, 2, 32), pattern.mask())

    def test_keep_fraction_matches_gate_pattern(self):
        pattern = RecurrentTilePattern(hidden_size=64, num_gates=4, dp=4,
                                       bias=0, tile=32)
        assert pattern.keep_fraction == pattern.gate_pattern.keep_fraction
        assert pattern.drop_rate == pytest.approx(1 - pattern.keep_fraction)

    def test_interning(self):
        first = recurrent_tile_pattern(64, 4, 3, 1, 32)
        second = recurrent_tile_pattern(64, 4, 3, 1, 32)
        assert first is second
        assert recurrent_tile_pattern(64, 4, 3, 2, 32) is not first

    def test_describe_mentions_gates(self):
        text = RecurrentTilePattern(hidden_size=64, num_gates=4, dp=2,
                                    bias=0).describe()
        assert "gates=4" in text


class TestSamplerRecurrentDraws:
    def test_scalar_draw_caps_period_to_gate_tiles(self):
        # A 1-wide hidden layer has a single 1x1 tile per gate (the tile
        # cannot shrink further): every draw must collapse to dp=1
        # regardless of the searched distribution.
        site = ApproxRecurrentDropConnect(1, 0.5, tile=1, max_period=8,
                                          enabled=True,
                                          rng=np.random.default_rng(0))
        assert site.domain == 1
        pattern = site.resample()
        assert pattern.dp == 1
        assert pattern.num_gates == 4
        assert {p.dp for p in site.draw_pool(50)} == {1}

    def test_batched_draws_are_interned_and_deterministic(self):
        def draw(seed):
            site = ApproxRecurrentDropConnect(128, 0.5, max_period=8,
                                              enabled=True,
                                              rng=np.random.default_rng(seed))
            return site.draw_pool(32)

        first, second = draw(3), draw(3)
        assert [p.dp for p in first] == [p.dp for p in second]
        assert all(a is b for a, b in zip(first, second))  # interned
        assert any(p.dp > 1 for p in first)


class TestRecurrentPlan:
    def test_plan_replicates_gate_classes_with_offsets(self):
        pattern = RecurrentTilePattern(hidden_size=160, num_gates=4, dp=3,
                                       bias=1, tile=32)
        plan = compile_recurrent_plan(pattern)
        gate_plan = compile_tile_plan(pattern.gate_pattern)
        assert plan.rows == 640 and plan.cols == 160
        assert len(plan.classes) == len(gate_plan.classes) == 3
        for (rows, cols), (gate_rows, gate_cols) in zip(plan.classes,
                                                        gate_plan.classes):
            np.testing.assert_array_equal(
                rows, np.concatenate([gate_rows + gate * 160
                                      for gate in range(4)]))
            np.testing.assert_array_equal(cols, gate_cols)

    def test_flops_fraction_matches_gate_plan(self):
        pattern = RecurrentTilePattern(hidden_size=128, num_gates=4, dp=4,
                                       bias=2, tile=32)
        plan = compile_recurrent_plan(pattern)
        gate_plan = compile_tile_plan(pattern.gate_pattern)
        assert plan.compact_flops_fraction == pytest.approx(
            gate_plan.compact_flops_fraction)

    def test_plan_interned(self):
        pattern = RecurrentTilePattern(hidden_size=64, num_gates=4, dp=2, bias=0)
        assert compile_recurrent_plan(pattern) is compile_recurrent_plan(pattern)

    def test_column_classes_cover_the_mask_with_disjoint_rows(self):
        pattern = RecurrentTilePattern(hidden_size=160, num_gates=4, dp=5,
                                       bias=3, tile=32)
        plan = compile_recurrent_plan(pattern)
        all_rows = np.concatenate([rows for rows, _ in plan.classes])
        assert len(all_rows) == len(np.unique(all_rows))  # disjoint row sets
        rebuilt = np.zeros((640, 160))
        for rows, cols in plan.classes:
            rebuilt[np.ix_(rows, cols)] = 1.0
        np.testing.assert_array_equal(rebuilt, pattern.mask())
        # Gate alignment: every class's rows repeat across all four gates.
        for rows, _ in plan.classes:
            assert len(rows) % 4 == 0


def _dense_masked_reference(h, weight, pattern, scale=1.0):
    masked = weight * pattern.mask()
    return h @ masked.T * scale


CASES = [
    # (hidden, num_gates, dp, bias, tile)
    (96, 4, 3, 1, 32),
    (160, 4, 5, 3, 32),
    (64, 4, 1, 0, 32),
    (70, 4, 4, 2, 16),
    (96, 2, 2, 1, 32),
    (256, 4, 7, 2, 32),
]


class TestWindowContext:
    @pytest.mark.parametrize("hidden,gates,dp,bias,tile", CASES)
    def test_unrolled_context_matches_per_step_op(self, hidden, gates, dp,
                                                  bias, tile):
        """Three 'timesteps' against one hoisted context must reproduce the
        dense masked projection — outputs and the tape-accumulated grads."""
        pattern = RecurrentTilePattern(hidden_size=hidden, num_gates=gates,
                                       dp=dp, bias=bias, tile=tile)
        rng = np.random.default_rng(3)
        w = rng.normal(size=(gates * hidden, hidden)) * 0.1
        steps = [rng.normal(size=(4, hidden)) for _ in range(3)]

        reference = [_dense_masked_reference(h, w, pattern) for h in steps]
        # d sum(h @ (w * mask).T) / d w, summed over the timesteps.
        expected_grad = sum(np.ones((4, gates * hidden)).T @ h
                            for h in steps) * pattern.mask()

        wt2 = Tensor(w, requires_grad=True)
        context = recurrent_compact_context(wt2, pattern)
        hts = [Tensor(h, requires_grad=True) for h in steps]
        outs = [context(ht) for ht in hts]
        total2 = outs[0].sum()
        for out in outs[1:]:
            total2 = total2 + out.sum()
        total2.backward()

        for ref, got in zip(reference, outs):
            np.testing.assert_allclose(got.data, ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(wt2.grad, expected_grad,
                                   rtol=1e-10, atol=1e-12)
        assert np.all(wt2.grad[pattern.mask() == 0.0] == 0.0)

    def test_context_input_gradients_match(self):
        pattern = RecurrentTilePattern(hidden_size=96, num_gates=4, dp=3, bias=1)
        rng = np.random.default_rng(5)
        w = rng.normal(size=(384, 96)) * 0.1
        h = rng.normal(size=(6, 96))
        seed = rng.normal(size=(6, 384))

        ht = Tensor(h, requires_grad=True)
        context = recurrent_compact_context(Tensor(w, requires_grad=True), pattern)
        out = context(ht)
        (out * Tensor(seed)).sum().backward()
        np.testing.assert_allclose(ht.grad, seed @ (w * pattern.mask()),
                                   rtol=1e-10, atol=1e-12)


class TestApproxRecurrentDropConnect:
    def make_site(self, hidden=96, rate=0.5, enabled=True, seed=0):
        return ApproxRecurrentDropConnect(hidden, rate, enabled=enabled,
                                          rng=np.random.default_rng(seed))

    def test_validation(self):
        with pytest.raises(ValueError):
            ApproxRecurrentDropConnect(0, 0.5)
        with pytest.raises(ValueError):
            ApproxRecurrentDropConnect(32, 1.0)
        with pytest.raises(ValueError):
            ApproxRecurrentDropConnect(32, 0.5, num_gates=0)

    def test_disabled_site_is_dense_and_not_a_pattern_site(self, rng):
        site = self.make_site(enabled=False)
        assert site.drop_rate == 0.0
        assert not is_pattern_site(site)
        h = Tensor(rng.normal(size=(3, 96)))
        w = Tensor(rng.normal(size=(384, 96)))
        np.testing.assert_array_equal(site.project(h, w).data,
                                      (h.data @ w.data.T))

    def test_enabled_site_is_a_pattern_site_with_pool_protocol(self):
        site = self.make_site(enabled=True)
        assert site.drop_rate == 0.5
        assert is_pattern_site(site)
        pool = site.draw_pool(8)
        assert len(pool) == 8
        site.set_pattern(pool[0])
        assert site.pattern is pool[0]
        with pytest.raises(ValueError):
            site.set_pattern(recurrent_tile_pattern(32, 4, 1, 0, 32))

    def test_masked_and_compact_modes_match(self, rng):
        h = Tensor(rng.normal(size=(4, 96)))
        w = Tensor(rng.normal(size=(384, 96)) * 0.1)
        site = self.make_site(enabled=True)
        site.resample()
        pattern = site.pattern
        site.execution_mode = "compact"
        compact = site.project(h, w)
        site.execution_mode = "masked"
        site.set_pattern(pattern)
        masked = site.project(h, w)
        np.testing.assert_allclose(compact.data, masked.data,
                                   rtol=1e-10, atol=1e-12)

    def test_stale_context_falls_back_to_plan_op(self, rng):
        h = Tensor(rng.normal(size=(4, 96)))
        w = Tensor(rng.normal(size=(384, 96)) * 0.1)
        site = self.make_site(enabled=True)
        site.resample()
        old = site.pattern
        np.testing.assert_allclose(site.project(h, w).data,
                                   _dense_masked_reference(h.data, w.data, old),
                                   rtol=1e-10, atol=1e-12)
        # The schedule installs a different pattern: the next projection
        # must use it, not the previous window's gathered tiles.
        new = recurrent_tile_pattern(96, 4, max(2, old.dp % 3 + 1),
                                     0, site.tile)
        site.set_pattern(new)
        projection = site.window_projection(w)
        assert isinstance(projection, TileContext)
        assert projection.plan is compile_recurrent_plan(new)
        np.testing.assert_allclose(site.project(h, w).data,
                                   _dense_masked_reference(h.data, w.data, new),
                                   rtol=1e-10, atol=1e-12)

    def test_eval_rescales_by_keep_probability(self, rng):
        site = self.make_site(enabled=True)
        site.eval()
        h = Tensor(rng.normal(size=(3, 96)))
        w = Tensor(rng.normal(size=(384, 96)))
        np.testing.assert_allclose(site.project(h, w).data,
                                   h.data @ (w.data * 0.5).T,
                                   rtol=1e-12, atol=1e-12)
        # No compact path in eval.
        assert isinstance(site.window_projection(w), DenseProjection)

    def test_masked_mode_has_no_window_context(self):
        site = self.make_site(enabled=True)
        site.execution_mode = "masked"
        assert isinstance(site.window_projection(Tensor(np.zeros((384, 96)))),
                          DenseProjection)

    def test_tile_shrinks_for_small_hidden_layers(self):
        site = ApproxRecurrentDropConnect(16, 0.5, tile=32,
                                          rng=np.random.default_rng(0))
        assert site.tile < 32  # a single 32x32 tile cannot express rate 0.5

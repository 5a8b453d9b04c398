"""Tests for the execution backend.

Three areas are covered:

* the gather paths — the row-compact and input-compact linear ops must
  agree with the dense masked computation on the forward pass and every
  gradient, with dropped entries exactly zero;
* the tile context — the per-class GEMMs that run every tile pattern, for
  the tile layer and the tiled recurrent projection alike, must agree with
  the dense masked product across a sweep of layer shapes, periods and
  tiles, gather each class block once per step or window, and scatter into
  pairwise disjoint column classes;
* runtime integration — ``EngineRuntime`` installs its own backend instance
  on the bound model's layers and reports per-op call counts in
  ``stats()``.
"""

import numpy as np
import pytest

from repro.backends import ExecutionBackend, default_backend
from repro.dropout.compact_ops import (
    input_compact_linear,
    recurrent_compact_context,
    row_compact_linear,
    tile_compact_linear,
)
from repro.dropout.engine import compile_recurrent_plan, compile_tile_plan
from repro.dropout.patterns import (
    RecurrentTilePattern,
    RowDropoutPattern,
    TileDropoutPattern,
)
from repro.execution import EngineRuntime, ExecutionConfig
from repro.models import MLPClassifier, MLPConfig
from repro.tensor import Tensor, functional as F


def _random_operands(rng, batch, rows, cols):
    x = Tensor(rng.normal(size=(batch, cols)), requires_grad=True)
    weight = Tensor(rng.normal(size=(rows, cols)) * 0.1, requires_grad=True)
    bias = Tensor(rng.normal(size=rows), requires_grad=True)
    return x, weight, bias


def _run_and_collect(op):
    """Run ``op`` (returning a Tensor) and collect output + operand grads."""
    out = op()
    seed_grad = np.random.default_rng(99).normal(size=out.shape)
    (out * Tensor(seed_grad)).sum().backward()
    return out


def _seed_grad(shape):
    """The upstream gradient ``_run_and_collect`` back-propagates."""
    return np.random.default_rng(99).normal(size=shape)


class TestGatherPaths:
    """The row-compact and input-compact linear ops must agree with the
    dense masked computation (Fig. 1(a)) on the output and the input,
    weight and bias gradients, and leave dropped rows and columns exactly
    zero."""

    @pytest.mark.parametrize("num_units,dp,bias_phase", [
        (64, 2, 1), (96, 5, 3), (33, 4, 0),
    ])
    def test_row_compact_linear_matches_dense(self, num_units, dp, bias_phase):
        pattern = RowDropoutPattern(num_units, dp, bias_phase)
        input_pattern = RowDropoutPattern(48, 3, 1)
        rng = np.random.default_rng(3)
        x, weight, bias = _random_operands(rng, 6, num_units, 48)
        out = _run_and_collect(lambda: row_compact_linear(
            x, weight, bias, pattern, input_pattern=input_pattern,
            backend=ExecutionBackend()))

        row_mask, col_mask = pattern.mask(), input_pattern.mask()
        x_masked = x.data * col_mask
        grad = _seed_grad(out.shape) * row_mask
        expected = {
            "out": (x_masked @ weight.data.T + bias.data) * row_mask,
            "x": (grad @ weight.data) * col_mask,
            "weight": grad.T @ x_masked,
            "bias": grad.sum(axis=0),
        }
        got = {"out": out.data, "x": x.grad, "weight": weight.grad,
               "bias": bias.grad}
        for name, value in expected.items():
            np.testing.assert_allclose(got[name], value, rtol=1e-12,
                                       atol=1e-12, err_msg=name)
        assert np.all(out.data[:, row_mask == 0.0] == 0.0)
        assert np.all(x.grad[:, col_mask == 0.0] == 0.0)
        assert np.all(weight.grad[row_mask == 0.0] == 0.0)
        assert np.all(weight.grad[:, col_mask == 0.0] == 0.0)
        assert np.all(bias.grad[row_mask == 0.0] == 0.0)

    def test_input_compact_linear_matches_dense(self):
        input_pattern = RowDropoutPattern(40, 4, 1)
        rng = np.random.default_rng(5)
        x, weight, bias = _random_operands(rng, 7, 24, 40)
        out = _run_and_collect(lambda: input_compact_linear(
            x, weight, bias, input_pattern, backend=ExecutionBackend()))

        col_mask = input_pattern.mask()
        x_masked = x.data * col_mask
        grad = _seed_grad(out.shape)
        expected = {
            "out": x_masked @ weight.data.T + bias.data,
            "x": (grad @ weight.data) * col_mask,
            "weight": grad.T @ x_masked,
            "bias": grad.sum(axis=0),
        }
        got = {"out": out.data, "x": x.grad, "weight": weight.grad,
               "bias": bias.grad}
        for name, value in expected.items():
            np.testing.assert_allclose(got[name], value, rtol=1e-12,
                                       atol=1e-12, err_msg=name)
        assert np.all(x.grad[:, col_mask == 0.0] == 0.0)
        assert np.all(weight.grad[:, col_mask == 0.0] == 0.0)


class TestContextEquivalence:
    """Every tile pattern runs through one :class:`TileContext`: the tile
    layer's (:func:`tile_compact_linear`) and the tiled recurrent
    projection's (:func:`recurrent_compact_context`).  Both must agree with
    the dense DropConnect product on the forward pass and every gradient
    (the full-size weight gradient too), with dropped tiles exactly zero,
    and gather each class block once per step or window."""

    CASES = [
        # Tile plans (rows, cols, dp, bias, tile): square, ragged, tiny-tile,
        # dp=1, more periods than tile-rows, and grid_rows > dp with
        # grid_cols % dp != 0, where non-adjacent tile-rows share a column
        # set (192x160 at dp 3: tile-rows 0 and 3 keep the same columns, as
        # do 1 and 4, and 2 and 5).
        *(pytest.param("tile", case, id="tile-{}x{}-dp{}-b{}-t{}".format(*case))
          for case in [(96, 96, 3, 1, 32), (96, 80, 4, 2, 32),
                       (64, 64, 1, 0, 32), (70, 50, 5, 3, 16),
                       (33, 95, 5, 0, 8), (32, 128, 7, 2, 32),
                       (160, 64, 6, 5, 32), (256, 128, 3, 1, 32),
                       (192, 160, 3, 0, 32), (256, 128, 3, 2, 32)]),
        # Recurrent plans (hidden, num_gates, dp, bias, tile): hidden 160 at
        # dp 4 and 256 at dp 7 split into 4 and 7 column classes.
        *(pytest.param("recurrent", case,
                       id="recurrent-{}x{}-dp{}-b{}-t{}".format(*case))
          for case in [(96, 4, 3, 1, 32), (160, 4, 4, 0, 32),
                       (256, 4, 7, 2, 32), (64, 2, 2, 1, 32)]),
    ]

    @pytest.mark.parametrize("kind,case", CASES)
    def test_context_matches_dense_masked(self, kind, case):
        rng = np.random.default_rng(13)
        if kind == "tile":
            rows, cols, dp, bias_phase, tile = case
            pattern = TileDropoutPattern(rows=rows, cols=cols, dp=dp,
                                         bias=bias_phase, tile=tile)
            x, weight, bias = _random_operands(rng, 9, rows, cols)
            out = _run_and_collect(lambda: tile_compact_linear(
                x, weight, bias, pattern, backend=ExecutionBackend()))
        else:
            hidden, gates, dp, bias_phase, tile = case
            pattern = RecurrentTilePattern(hidden_size=hidden, num_gates=gates,
                                           dp=dp, bias=bias_phase, tile=tile)
            x, weight, _ = _random_operands(rng, 6, gates * hidden, hidden)
            bias = None
            context = recurrent_compact_context(weight, pattern,
                                                backend=ExecutionBackend())
            out = _run_and_collect(lambda: context(x))

        mask = pattern.mask()
        grad = _seed_grad(out.shape)
        expected = x.data @ (weight.data * mask).T
        if bias is not None:
            expected = expected + bias.data
            np.testing.assert_allclose(bias.grad, grad.sum(axis=0),
                                       rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(x.grad, grad @ (weight.data * mask),
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(weight.grad, (grad.T @ x.data) * mask,
                                   rtol=1e-10, atol=1e-10)
        # Dropped tiles get exactly zero gradient.
        assert np.all(weight.grad[mask == 0.0] == 0.0)

    def test_tile_layer_gathers_once_and_reuses_the_blocks(self):
        """A tile layer gathers each class block once per step: the forward
        pass and the input gradient read the same blocks, and the weight
        gradient is one call scattered class by class."""
        pattern = TileDropoutPattern(rows=192, cols=160, dp=3, bias=0, tile=32)
        backend = ExecutionBackend()
        x, weight, bias = _random_operands(np.random.default_rng(0), 4, 192, 160)
        num_classes = len(compile_tile_plan(pattern).classes)
        assert num_classes > 1
        for step in (1, 2):
            out = tile_compact_linear(x, weight, bias, pattern, backend=backend)
            out.sum().backward()
            assert backend.calls["gather"] == step * num_classes
            assert backend.calls["scatter"] == step * num_classes
            assert backend.calls["context_forward"] == step
            assert backend.calls["context_backward_h"] == step
            assert backend.calls["context_backward_blocks"] == step
            assert backend.calls["context_gemm"] == 3 * step * num_classes

    def test_window_gathers_once_and_steps_per_timestep(self):
        """Inside the fused LSTM recurrence the surviving tiles are gathered
        (and their gradient scattered back) once per window, every timestep
        runs one forward and one input-gradient context call, and the
        weight gradient is one call over the rows of every timestep."""
        pattern = RecurrentTilePattern(hidden_size=160, num_gates=4, dp=4,
                                       bias=0, tile=32)
        rng = np.random.default_rng(3)
        backend = ExecutionBackend()
        weight = Tensor(rng.normal(size=(640, 160)) * 0.1, requires_grad=True)
        gates_x = Tensor(rng.normal(size=(3 * 4, 640)), requires_grad=True)
        h0, c0 = (Tensor(s, requires_grad=True)
                  for s in rng.normal(size=(2, 4, 160)))
        context = recurrent_compact_context(weight, pattern, backend=backend)
        num_classes = len(context.plan.classes)
        assert num_classes > 1
        out, _, _ = F.lstm_recurrence(gates_x, h0, c0, context)
        (out * out).sum().backward()
        assert backend.calls["gather"] == num_classes
        assert backend.calls["scatter"] == num_classes
        assert backend.calls["context_forward"] == 3
        assert backend.calls["context_backward_h"] == 3
        assert backend.calls["context_backward_blocks"] == 1
        assert backend.calls["context_gemm"] == 7 * num_classes
        assert np.all(weight.grad[pattern.mask() == 0.0] == 0.0)

    # (rows, cols, tile) of tile plans, and (hidden, tile) of 4-gate
    # recurrent plans: every dp up to 16 (or the tile count) and every bias.
    DISJOINT_TILE_SHAPES = [(192, 160, 32), (256, 128, 32), (160, 784, 32),
                            (1024, 784, 32), (48, 40, 32), (70, 50, 16),
                            (33, 95, 8), (96, 80, 32), (2048, 2048, 32)]
    DISJOINT_RECURRENT_SHAPES = [(24, 8), (64, 32), (96, 32), (256, 32)]

    def test_column_classes_are_pairwise_disjoint(self):
        """A tile-row's kept tile-columns are the residue class
        ``(bias - r*G) mod dp``, so the column sets of different classes
        never overlap: the input-gradient scatter writes each column once."""
        plans = []
        for rows, cols, tile in self.DISJOINT_TILE_SHAPES:
            tiles = TileDropoutPattern(rows=rows, cols=cols, dp=1, bias=0,
                                       tile=tile).num_tiles
            plans += [compile_tile_plan(TileDropoutPattern(
                          rows=rows, cols=cols, dp=dp, bias=bias, tile=tile))
                      for dp in range(1, min(16, tiles) + 1)
                      for bias in range(dp)]
        for hidden, tile in self.DISJOINT_RECURRENT_SHAPES:
            tiles = TileDropoutPattern(rows=hidden, cols=hidden, dp=1, bias=0,
                                       tile=tile).num_tiles
            plans += [compile_recurrent_plan(RecurrentTilePattern(
                          hidden_size=hidden, num_gates=4, dp=dp, bias=bias,
                          tile=tile))
                      for dp in range(1, min(16, tiles) + 1)
                      for bias in range(dp)]
        for plan in plans:
            written = np.zeros(plan.cols, dtype=int)
            for _, cols in plan.classes:
                written[cols] += 1
            assert written.max() == 1, (plan.rows, plan.cols, plan.dp,
                                        plan.bias)


class TestRuntimeIntegration:
    def test_bind_installs_backend_on_layers(self):
        model = MLPClassifier(MLPConfig(hidden_sizes=(32, 32),
                                        drop_rates=(0.5, 0.5),
                                        strategy="tile", seed=0))
        runtime = EngineRuntime(ExecutionConfig())
        runtime.bind(model)
        installed = [module.backend for module in model.modules()
                     if getattr(module, "backend", None) is not None]
        assert installed, "no layer received the backend"
        assert all(backend is runtime.backend for backend in installed)
        # One private instance per runtime: counters never mix.
        assert runtime.backend is not EngineRuntime().backend
        assert runtime.backend is not default_backend()

    def test_stats_report_backend_calls(self):
        model = MLPClassifier(MLPConfig(hidden_sizes=(32, 32),
                                        drop_rates=(0.5, 0.5),
                                        strategy="row", seed=0))
        runtime = EngineRuntime(ExecutionConfig(seed=0))
        runtime.bind(model)
        model.train()
        logits = model(Tensor(np.random.default_rng(0).normal(size=(4, 784))))
        logits.sum().backward()
        stats = runtime.stats()
        assert sum(stats["backend_calls"].values()) > 0
        assert stats["backend_calls"].get("gemm", 0) > 0

    def test_per_op_counters_cover_all_primitives(self):
        backend = ExecutionBackend()
        pattern = RowDropoutPattern(32, 2, 0)
        rng = np.random.default_rng(1)
        x, weight, bias = _random_operands(rng, 3, 32, 16)
        _run_and_collect(lambda: row_compact_linear(x, weight, bias, pattern,
                                                    backend=backend))
        for op in ("gemm", "gather", "alloc", "scatter"):
            assert backend.calls.get(op, 0) > 0, f"{op} never counted"

    def test_default_backend_is_shared(self):
        assert isinstance(default_backend(), ExecutionBackend)
        assert default_backend() is default_backend()

    def test_per_model_stats_report_per_run_call_deltas(self):
        """A runtime shared across runs must not leak one run's backend
        calls into the next run's per-model record."""
        def make():
            return MLPClassifier(MLPConfig(hidden_sizes=(32, 32),
                                           drop_rates=(0.5, 0.5),
                                           strategy="row", seed=0))

        runtime = EngineRuntime(ExecutionConfig(seed=0))
        batch = Tensor(np.random.default_rng(0).normal(size=(4, 784)))

        first = make()
        runtime.bind(first)
        first.train()
        first(batch).sum().backward()
        first_calls = runtime.stats(model=first)["backend_calls"]

        second = make()
        runtime.bind(second)
        second.train()
        second(batch).sum().backward()
        second_calls = runtime.stats(model=second)["backend_calls"]

        # One identical forward+backward each: the per-run records match
        # instead of the second one doubling up with the first run's work.
        assert second_calls == first_calls
        # The runtime-wide record still aggregates both runs.
        totals = runtime.stats()["backend_calls"]
        assert totals["gemm"] == 2 * first_calls["gemm"]

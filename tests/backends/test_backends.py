"""Tests for the pluggable execution-backend subsystem.

Three areas are covered:

* the registry contract — round-trip of a custom backend, fail-fast on
  unknown names (both directly and through ``ExecutionConfig``), factory
  validation;
* numerical equivalence — the ``stacked`` backend must agree with the
  reference ``numpy`` backend on every compact op (forward and all
  gradients) across a property sweep of layer shapes, periods and tiles;
* runtime integration — ``EngineRuntime`` installs its backend instance on
  the bound model's layers and reports per-backend call counts in
  ``stats()``.
"""

import numpy as np
import pytest

from repro.backends import (
    ExecutionBackend,
    NumpyBackend,
    StackedBackend,
    available_backends,
    create_backend,
    default_backend,
    register_backend,
    unregister_backend,
)
from repro.dropout.compact_ops import (
    input_compact_linear,
    recurrent_compact_context,
    row_compact_linear,
    tile_compact_linear,
)
from repro.dropout.patterns import (
    RecurrentTilePattern,
    RowDropoutPattern,
    TileDropoutPattern,
)
from repro.execution import EngineRuntime, ExecutionConfig
from repro.models import MLPClassifier, MLPConfig
from repro.tensor import Tensor, functional as F


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("numpy", "stacked")

    def test_create_returns_fresh_instances(self):
        first, second = create_backend("numpy"), create_backend("numpy")
        assert isinstance(first, NumpyBackend)
        assert first is not second  # counters must not be shared

    def test_unknown_backend_fails_fast_with_available_list(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            create_backend("cuda")
        with pytest.raises(ValueError, match="available"):
            create_backend("cuda")

    def test_execution_config_consults_registry(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            ExecutionConfig(backend="bogus")

    def test_round_trip_custom_backend(self):
        class EchoBackend(NumpyBackend):
            name = "echo"

        register_backend("echo", EchoBackend)
        try:
            assert "echo" in available_backends()
            backend = create_backend("echo")
            assert isinstance(backend, EchoBackend)
            # A registered backend is immediately selectable everywhere the
            # config is validated.
            config = ExecutionConfig(backend="echo")
            assert isinstance(EngineRuntime(config).backend, EchoBackend)
        finally:
            unregister_backend("echo")
        assert "echo" not in available_backends()
        with pytest.raises(ValueError):
            ExecutionConfig(backend="echo")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy", NumpyBackend)

    def test_factory_must_return_backend(self):
        register_backend("broken", lambda: object())
        try:
            with pytest.raises(TypeError):
                create_backend("broken")
        finally:
            unregister_backend("broken")

    def test_abstract_interface_not_instantiable(self):
        with pytest.raises(TypeError):
            ExecutionBackend()


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


class TestStackedEquivalence:
    """The stacked backend must agree with the reference numpy backend on
    every compact op — forward and both backward ops — and be
    registered/selectable like any other backend."""

    TILE_CASES = [
        # (rows, cols, dp, bias, tile) — square, ragged, tiny-tile, dp=1,
        # more periods than tile-rows (forces the leftover loop path).
        (96, 96, 3, 1, 32),
        (96, 80, 4, 2, 32),
        (64, 64, 1, 0, 32),
        (70, 50, 5, 3, 16),
        (33, 95, 5, 0, 8),
        (32, 128, 7, 2, 32),
        (160, 64, 6, 5, 32),
        # grid_rows > dp with grid_cols % dp != 0: non-adjacent tile-rows
        # share a column set, exercising the concatenated class path proper.
        (256, 128, 3, 1, 32),
        (192, 160, 3, 0, 32),
        (256, 128, 3, 2, 32),
    ]

    def test_registered_and_selectable(self):
        assert "stacked" in available_backends()
        backend = create_backend("stacked")
        assert isinstance(backend, StackedBackend)
        assert isinstance(backend, NumpyBackend)  # inherits the reference loop
        assert ExecutionConfig(backend="stacked").backend == "stacked"

    @pytest.mark.parametrize("rows,cols,dp,bias_phase,tile", TILE_CASES)
    def test_tile_compact_linear_matches_numpy(self, rows, cols, dp,
                                               bias_phase, tile):
        pattern = TileDropoutPattern(rows=rows, cols=cols, dp=dp,
                                     bias=bias_phase, tile=tile)
        captured = []
        for backend in (NumpyBackend(), StackedBackend()):
            rng = np.random.default_rng(7)
            x, weight, bias = _random_operands(rng, 9, rows, cols)
            out = _run_and_collect(lambda: tile_compact_linear(
                x, weight, bias, pattern, scale_factor=1.3, backend=backend))
            captured.append((out.data.copy(), x.grad.copy(),
                             weight.grad.copy(), bias.grad.copy()))
        reference, stacked = captured
        for ref, got in zip(reference, stacked):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)
        np.testing.assert_array_equal(reference[2] == 0.0, stacked[2] == 0.0)

    @pytest.mark.parametrize("num_units,dp,bias_phase", [
        (64, 2, 1), (96, 5, 3), (33, 4, 0),
    ])
    def test_row_compact_linear_matches_numpy(self, num_units, dp, bias_phase):
        pattern = RowDropoutPattern(num_units, dp, bias_phase)
        input_pattern = RowDropoutPattern(48, 3, 1)
        captured = []
        for backend in (NumpyBackend(), StackedBackend()):
            rng = np.random.default_rng(3)
            x, weight, bias = _random_operands(rng, 6, num_units, 48)
            out = _run_and_collect(lambda: row_compact_linear(
                x, weight, bias, pattern, input_pattern=input_pattern,
                scale_factor=1.5, backend=backend))
            captured.append((out.data.copy(), x.grad.copy(),
                             weight.grad.copy(), bias.grad.copy()))
        for ref, got in zip(*captured):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_input_compact_linear_matches_numpy(self):
        input_pattern = RowDropoutPattern(40, 4, 1)
        captured = []
        for backend in (NumpyBackend(), StackedBackend()):
            rng = np.random.default_rng(5)
            x, weight, bias = _random_operands(rng, 7, 24, 40)
            out = _run_and_collect(lambda: input_compact_linear(
                x, weight, bias, input_pattern, backend=backend))
            captured.append((out.data.copy(), x.grad.copy(),
                             weight.grad.copy(), bias.grad.copy()))
        for ref, got in zip(*captured):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    RECURRENT_CASES = [
        # (hidden, num_gates, dp, bias, tile) — the gate replication feeds
        # the stacked families; dp=4 over an 8-wide tile grid produces
        # several equal-shape column classes (the batched-GEMM path proper).
        (96, 4, 3, 1, 32),
        (160, 4, 4, 0, 32),
        (256, 4, 7, 2, 32),
        (64, 2, 2, 1, 32),
    ]

    def test_stacked_families_engage_on_tile_plans(self):
        """The batched-GEMM tier must actually execute (not just fall back to
        the per-class path) on a TDP plan with several equal-shape column
        classes, forward and both backward passes."""
        # 6x5 tile grid at dp=3: tile-rows 0 and 3 keep the same columns,
        # as do 1 and 4, and the two classes share one shape.
        pattern = TileDropoutPattern(rows=192, cols=160, dp=3, bias=0, tile=32)
        backend = StackedBackend()
        rng = np.random.default_rng(0)
        x, weight, bias = _random_operands(rng, 4, 192, 160)
        out = tile_compact_linear(x, weight, bias, pattern, backend=backend)
        forward_batches = backend.calls.get("stacked_gemm", 0)
        assert forward_batches > 0
        out.sum().backward()
        assert backend.calls["stacked_gemm"] == 3 * forward_batches
        assert backend.calls.get("plan_stack") == 1

    def test_stacked_layout_cached_per_plan(self):
        backend = StackedBackend()
        pattern = TileDropoutPattern(rows=256, cols=128, dp=3, bias=1, tile=32)
        rng = np.random.default_rng(0)
        x, weight, bias = _random_operands(rng, 4, 256, 128)
        for _ in range(3):
            tile_compact_linear(x, weight, bias, pattern, backend=backend)
        assert backend.calls.get("plan_stack") == 1  # compiled once, reused
        assert backend.calls.get("tile_forward") == 3


class TestContextEquivalence:
    """The tiled recurrent projection (`RecurrentWindowContext`) routes its
    per-class GEMMs through the backend's ``context_*`` primitives; the
    stacked backend's batched tier must agree with the reference loop on the
    forward pass and both gradients (through the whole gather op, so the
    full-size weight gradient is compared too)."""

    def _run(self, backend, pattern, seed=13):
        rng = np.random.default_rng(seed)
        hidden = pattern.hidden_size
        h = Tensor(rng.normal(size=(6, hidden)), requires_grad=True)
        weight = Tensor(rng.normal(size=(pattern.num_gates * hidden, hidden))
                        * 0.1, requires_grad=True)
        context = recurrent_compact_context(weight, pattern, backend=backend)
        out = _run_and_collect(lambda: context(h))
        return out.data.copy(), h.grad.copy(), weight.grad.copy()

    @pytest.mark.parametrize("hidden,gates,dp,bias_phase,tile",
                             TestStackedEquivalence.RECURRENT_CASES)
    def test_context_linear_matches_numpy(self, hidden, gates, dp,
                                          bias_phase, tile):
        pattern = RecurrentTilePattern(hidden_size=hidden, num_gates=gates,
                                       dp=dp, bias=bias_phase, tile=tile)
        reference = self._run(NumpyBackend(), pattern)
        stacked = self._run(StackedBackend(), pattern)
        for ref, got in zip(reference, stacked):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)
        # Identical sparsity: dropped tiles get exactly zero grad either way.
        np.testing.assert_array_equal(reference[2] == 0.0, stacked[2] == 0.0)

    def test_batched_tier_engages_and_layout_is_cached(self):
        """Inside the fused LSTM recurrence, equal-shape context classes must
        execute through the stacked np.matmul tier (not the per-class
        fallback), with the index layout computed once per plan identity
        across the window's timesteps, and the results must equal the
        reference backend's bit for bit."""
        pattern = RecurrentTilePattern(hidden_size=160, num_gates=4, dp=4,
                                       bias=0, tile=32)
        rng = np.random.default_rng(3)
        weight = rng.normal(size=(640, 160)) * 0.1
        gates_x = rng.normal(size=(3 * 4, 640))   # three timesteps, batch 4
        state = rng.normal(size=(2, 4, 160))
        results = []
        for backend in (NumpyBackend(), StackedBackend()):
            w = Tensor(weight, requires_grad=True)
            x = Tensor(gates_x, requires_grad=True)
            h0, c0 = (Tensor(s, requires_grad=True) for s in state)
            context = recurrent_compact_context(w, pattern, backend=backend)
            out, h, c = F.lstm_recurrence(x, h0, c0, context)
            ((out * out).sum() + (h * c).sum()).backward()
            results.append((backend, [out.data, h.data, c.data, w.grad,
                                      x.grad, h0.grad, c0.grad]))
        (_, reference), (backend, stacked) = results
        for ref, got in zip(reference, stacked):
            assert np.array_equal(got, ref)
        assert backend.calls.get("stacked_gemm", 0) > 0
        assert backend.calls.get("context_stack") == 1
        assert backend.calls.get("context_forward") == 3


class TestRuntimeIntegration:
    def test_bind_installs_backend_on_layers(self):
        model = MLPClassifier(MLPConfig(hidden_sizes=(32, 32),
                                        drop_rates=(0.5, 0.5),
                                        strategy="tile", seed=0))
        runtime = EngineRuntime(ExecutionConfig(backend="stacked"))
        runtime.bind(model)
        installed = [module.backend for module in model.modules()
                     if getattr(module, "backend", None) is not None]
        assert installed, "no layer received the backend"
        assert all(backend is runtime.backend for backend in installed)
        assert isinstance(runtime.backend, StackedBackend)

    def test_stats_report_backend_calls(self):
        model = MLPClassifier(MLPConfig(hidden_sizes=(32, 32),
                                        drop_rates=(0.5, 0.5),
                                        strategy="row", seed=0))
        runtime = EngineRuntime(ExecutionConfig(backend="numpy", seed=0))
        runtime.bind(model)
        model.train()
        logits = model(Tensor(np.random.default_rng(0).normal(size=(4, 784))))
        logits.sum().backward()
        stats = runtime.stats()
        assert stats["backend"] == "numpy"
        assert sum(stats["backend_calls"].values()) > 0
        assert stats["backend_calls"].get("gemm", 0) > 0

    def test_per_op_counters_cover_all_primitives(self):
        backend = NumpyBackend()
        pattern = RowDropoutPattern(32, 2, 0)
        rng = np.random.default_rng(1)
        x, weight, bias = _random_operands(rng, 3, 32, 16)
        _run_and_collect(lambda: row_compact_linear(x, weight, bias, pattern,
                                                    backend=backend))
        for op in ("gemm", "gather", "alloc", "scatter"):
            assert backend.calls.get(op, 0) > 0, f"{op} never counted"

    def test_default_backend_is_shared_numpy(self):
        assert isinstance(default_backend(), NumpyBackend)
        assert default_backend() is default_backend()

    def test_per_model_stats_report_per_run_call_deltas(self):
        """A runtime shared across runs must not leak one run's backend
        calls into the next run's per-model record."""
        def make():
            return MLPClassifier(MLPConfig(hidden_sizes=(32, 32),
                                           drop_rates=(0.5, 0.5),
                                           strategy="row", seed=0))

        runtime = EngineRuntime(ExecutionConfig(backend="numpy", seed=0))
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

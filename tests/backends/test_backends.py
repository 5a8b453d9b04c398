"""Tests for the pluggable execution-backend subsystem.

Three areas are covered:

* the registry contract — round-trip of a custom backend, fail-fast on
  unknown names (both directly and through ``ExecutionConfig``), factory
  validation;
* numerical equivalence — the ``fused`` backend must agree with the
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
    FusedBackend,
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
    recurrent_compact_linear,
    recurrent_context_linear,
    row_compact_linear,
    tile_compact_linear,
)
from repro.dropout.engine import CompactWorkspace
from repro.dropout.patterns import (
    RecurrentTilePattern,
    RowDropoutPattern,
    TileDropoutPattern,
)
from repro.execution import EngineRuntime, ExecutionConfig
from repro.models import MLPClassifier, MLPConfig
from repro.tensor import Tensor


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("numpy", "fused", "stacked")

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


class TestFusedEquivalence:
    """Property sweep: fused and numpy backends compute the same function."""

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
        # share a column set, exercising the fused class path proper.
        (256, 128, 3, 1, 32),
        (192, 160, 3, 0, 32),
        (256, 128, 3, 2, 32),
    ]

    @pytest.mark.parametrize("rows,cols,dp,bias_phase,tile", TILE_CASES)
    def test_tile_compact_linear_matches_numpy(self, rows, cols, dp, bias_phase, tile):
        pattern = TileDropoutPattern(rows=rows, cols=cols, dp=dp,
                                     bias=bias_phase, tile=tile)
        captured = []
        for backend in (NumpyBackend(), FusedBackend()):
            rng = np.random.default_rng(7)
            x, weight, bias = _random_operands(rng, 9, rows, cols)
            out = _run_and_collect(lambda: tile_compact_linear(
                x, weight, bias, pattern, scale_factor=1.3, backend=backend))
            captured.append((out.data.copy(), x.grad.copy(),
                             weight.grad.copy(), bias.grad.copy()))
        reference, fused = captured
        for ref, got in zip(reference, fused):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)
        # The sparsity structure must agree exactly: dropped tiles receive
        # exactly zero output and gradient under both backends.
        np.testing.assert_array_equal(reference[2] == 0.0, fused[2] == 0.0)

    @pytest.mark.parametrize("num_units,dp,bias_phase", [
        (64, 2, 1), (96, 5, 3), (33, 4, 0),
    ])
    def test_row_compact_linear_matches_numpy(self, num_units, dp, bias_phase):
        pattern = RowDropoutPattern(num_units, dp, bias_phase)
        input_pattern = RowDropoutPattern(48, 3, 1)
        captured = []
        for backend in (NumpyBackend(), FusedBackend()):
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
        for backend in (NumpyBackend(), FusedBackend()):
            rng = np.random.default_rng(5)
            x, weight, bias = _random_operands(rng, 7, 24, 40)
            out = _run_and_collect(lambda: input_compact_linear(
                x, weight, bias, input_pattern, backend=backend))
            captured.append((out.data.copy(), x.grad.copy(),
                             weight.grad.copy(), bias.grad.copy()))
        for ref, got in zip(*captured):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_fused_with_workspace_matches_fresh_buffers(self):
        pattern = TileDropoutPattern(rows=96, cols=96, dp=3, bias=1, tile=32)
        backend = FusedBackend()
        workspace = CompactWorkspace()
        rng = np.random.default_rng(11)
        x, weight, bias = _random_operands(rng, 5, 96, 96)
        with_ws = _run_and_collect(lambda: tile_compact_linear(
            x, weight, bias, pattern, workspace=workspace, backend=backend))
        grads_ws = (x.grad.copy(), weight.grad.copy())
        x.zero_grad(), weight.zero_grad(), bias.zero_grad()
        without = _run_and_collect(lambda: tile_compact_linear(
            x, weight, bias, pattern, backend=backend))
        np.testing.assert_allclose(with_ws.data, without.data)
        np.testing.assert_allclose(grads_ws[0], x.grad)
        np.testing.assert_allclose(grads_ws[1], weight.grad)

    def test_fused_layout_cached_per_pattern(self):
        backend = FusedBackend()
        pattern = TileDropoutPattern(rows=96, cols=96, dp=3, bias=1, tile=32)
        rng = np.random.default_rng(0)
        x, weight, bias = _random_operands(rng, 4, 96, 96)
        for _ in range(3):
            tile_compact_linear(x, weight, bias, pattern, backend=backend)
        assert backend.calls.get("plan_fuse") == 1  # compiled once, reused
        assert backend.calls.get("tile_forward") == 3


class TestStackedEquivalence:
    """The stacked backend must agree with the reference numpy backend on
    every plan-driven op — forward and both backward ops — and be
    registered/selectable like any other backend."""

    def test_registered_and_selectable(self):
        assert "stacked" in available_backends()
        backend = create_backend("stacked")
        assert isinstance(backend, StackedBackend)
        assert isinstance(backend, FusedBackend)  # inherits the fused tiers
        assert ExecutionConfig(backend="stacked").backend == "stacked"

    @pytest.mark.parametrize("rows,cols,dp,bias_phase,tile",
                             TestFusedEquivalence.TILE_CASES)
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

    RECURRENT_CASES = [
        # (hidden, num_gates, dp, bias, tile) — the gate replication feeds
        # the stacked families; dp=4 over an 8-wide tile grid produces
        # several equal-shape column classes (the batched-GEMM path proper).
        (96, 4, 3, 1, 32),
        (160, 4, 4, 0, 32),
        (256, 4, 7, 2, 32),
        (64, 2, 2, 1, 32),
    ]

    @pytest.mark.parametrize("hidden,gates,dp,bias_phase,tile", RECURRENT_CASES)
    def test_recurrent_compact_linear_matches_numpy(self, hidden, gates, dp,
                                                    bias_phase, tile):
        pattern = RecurrentTilePattern(hidden_size=hidden, num_gates=gates,
                                       dp=dp, bias=bias_phase, tile=tile)
        captured = []
        for backend in (NumpyBackend(), StackedBackend()):
            rng = np.random.default_rng(11)
            h = Tensor(rng.normal(size=(6, hidden)), requires_grad=True)
            weight = Tensor(rng.normal(size=(gates * hidden, hidden)) * 0.1,
                            requires_grad=True)
            out = _run_and_collect(lambda: recurrent_compact_linear(
                h, weight, pattern, scale_factor=1.2, backend=backend))
            captured.append((out.data.copy(), h.grad.copy(), weight.grad.copy()))
        reference, stacked = captured
        for ref, got in zip(reference, stacked):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)
        # Identical sparsity: dropped tiles get exactly zero grad either way.
        np.testing.assert_array_equal(reference[2] == 0.0, stacked[2] == 0.0)

    def test_stacked_families_engage_on_gate_aligned_plans(self):
        """The batched-GEMM tier must actually execute (not just fall back to
        the fused path) on a plan with several equal-shape column classes."""
        pattern = RecurrentTilePattern(hidden_size=160, num_gates=4, dp=4,
                                       bias=0, tile=32)
        backend = StackedBackend()
        rng = np.random.default_rng(0)
        h = Tensor(rng.normal(size=(4, 160)), requires_grad=True)
        weight = Tensor(rng.normal(size=(640, 160)), requires_grad=True)
        out = recurrent_compact_linear(h, weight, pattern, backend=backend)
        out.sum().backward()
        assert backend.calls.get("stacked_gemm", 0) > 0
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

    def test_stacked_with_workspace_matches_fresh_buffers(self):
        pattern = RecurrentTilePattern(hidden_size=96, num_gates=4, dp=3, bias=1)
        backend = StackedBackend()
        workspace = CompactWorkspace()
        rng = np.random.default_rng(2)
        h = Tensor(rng.normal(size=(5, 96)), requires_grad=True)
        weight = Tensor(rng.normal(size=(384, 96)), requires_grad=True)
        with_ws = _run_and_collect(lambda: recurrent_compact_linear(
            h, weight, pattern, workspace=workspace, backend=backend))
        grads_ws = (h.grad.copy(), weight.grad.copy())
        h.zero_grad(), weight.zero_grad()
        without = _run_and_collect(lambda: recurrent_compact_linear(
            h, weight, pattern, backend=backend))
        np.testing.assert_allclose(with_ws.data, without.data)
        np.testing.assert_allclose(grads_ws[0], h.grad)
        np.testing.assert_allclose(grads_ws[1], weight.grad)


class TestContextEquivalence:
    """The window-context op (`recurrent_context_linear`) routes its
    per-class GEMMs through the backend's ``context_*`` primitives; the
    stacked backend's batched tier must agree with the reference loop on the
    forward pass and both gradients (through the whole gather op, so the
    full-size weight gradient is compared too)."""

    def _run(self, backend, pattern, seed=13, scale=1.4):
        rng = np.random.default_rng(seed)
        hidden = pattern.hidden_size
        h = Tensor(rng.normal(size=(6, hidden)), requires_grad=True)
        weight = Tensor(rng.normal(size=(pattern.num_gates * hidden, hidden))
                        * 0.1, requires_grad=True)
        context = recurrent_compact_context(weight, pattern, backend=backend)
        out = _run_and_collect(lambda: recurrent_context_linear(
            h, context, scale_factor=scale, backend=backend))
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
        """Equal-shape context classes must execute through the stacked
        np.matmul tier (not the per-class fallback), with the index layout
        computed once per plan identity across repeated timesteps."""
        pattern = RecurrentTilePattern(hidden_size=160, num_gates=4, dp=4,
                                       bias=0, tile=32)
        backend = StackedBackend()
        rng = np.random.default_rng(3)
        weight = Tensor(rng.normal(size=(640, 160)), requires_grad=True)
        context = recurrent_compact_context(weight, pattern, backend=backend)
        for _ in range(3):  # three "timesteps" of one window
            h = Tensor(rng.normal(size=(4, 160)), requires_grad=True)
            out = recurrent_context_linear(h, context, backend=backend)
            out.sum().backward()
        assert backend.calls.get("stacked_gemm", 0) > 0
        assert backend.calls.get("context_stack") == 1
        assert backend.calls.get("context_forward") == 3

    def test_fused_backend_inherits_the_reference_loop(self):
        pattern = RecurrentTilePattern(hidden_size=96, num_gates=4, dp=3,
                                       bias=1, tile=32)
        reference = self._run(NumpyBackend(), pattern)
        fused = self._run(FusedBackend(), pattern)
        for ref, got in zip(reference, fused):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


class TestRuntimeIntegration:
    def test_bind_installs_backend_on_layers(self):
        model = MLPClassifier(MLPConfig(hidden_sizes=(32, 32),
                                        drop_rates=(0.5, 0.5),
                                        strategy="tile", seed=0))
        runtime = EngineRuntime(ExecutionConfig(backend="fused"))
        runtime.bind(model)
        installed = [module.backend for module in model.modules()
                     if getattr(module, "backend", None) is not None]
        assert installed, "no layer received the backend"
        assert all(backend is runtime.backend for backend in installed)
        assert isinstance(runtime.backend, FusedBackend)

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

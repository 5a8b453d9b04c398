"""Bit-identity tests for the frozen inference engine.

The engine's contract is exact: for every execution backend and dtype, its
``infer()`` output equals the model's own eval-mode ``forward()`` bit for
bit (``np.array_equal``, not ``allclose``).  The tests sweep both model
kinds, every registered backend, both recurrent modes and every dropout
strategy, because each combination interns a different frozen program
(plain dense, DropConnect-scaled weights, recurrent-site weights, ...).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.execution import EngineRuntime, ExecutionConfig
from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel
from repro.models.mlp import MLPClassifier, MLPConfig
from repro.serving import InferenceEngine
from repro.tensor.tensor import Tensor, no_grad

BACKENDS = ("numpy", "stacked")


def make_mlp(strategy: str, seed: int = 3) -> MLPClassifier:
    return MLPClassifier(MLPConfig(
        input_size=20, hidden_sizes=(24, 16), num_classes=5,
        drop_rates=(0.5, 0.5), strategy=strategy, seed=seed))


def make_lm(strategy: str, seed: int = 3) -> LSTMLanguageModel:
    return LSTMLanguageModel(LSTMConfig(
        vocab_size=40, embed_size=12, hidden_size=12, num_layers=2,
        drop_rates=(0.5, 0.5), strategy=strategy, seed=seed))


def bind(model, **overrides) -> EngineRuntime:
    config = ExecutionConfig(**{"mode": "pooled", "dtype": "float64",
                                **overrides})
    runtime = EngineRuntime(config)
    runtime.bind(model)
    return runtime


class TestMLPBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("strategy", ["none", "original", "row", "tile"])
    def test_matches_eval_forward(self, backend, strategy, rng):
        model = make_mlp(strategy)
        runtime = bind(model, backend=backend)
        engine = InferenceEngine(model, runtime=runtime)
        x = rng.normal(size=(7, 20))
        model.eval()
        with no_grad():
            expected = model(Tensor(x)).data
        assert np.array_equal(engine.infer(x), expected)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_dtypes(self, dtype, rng):
        model = make_mlp("row")
        runtime = bind(model, dtype=dtype)
        engine = InferenceEngine(model, runtime=runtime)
        x = rng.normal(size=(5, 20)).astype(runtime.np_dtype)
        model.eval()
        with no_grad():
            expected = model(Tensor(x, dtype=runtime.np_dtype)).data
        out = engine.infer(x)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)

    def test_repeated_calls_reuse_scratch_buffers(self, rng):
        """The interned scratch buffers serve every call without growing."""
        model = make_mlp("row")
        engine = InferenceEngine(model, runtime=bind(model))
        model.eval()
        for _ in range(3):
            x = rng.normal(size=(4, 20))
            with no_grad():
                expected = model(Tensor(x)).data
            assert np.array_equal(engine.infer(x), expected)
        assert engine.infer_calls == 3
        assert engine.rows_served == 12

    def test_oversized_batch_widens_ring(self, rng):
        model = make_mlp("row")
        runtime = bind(model, serve_max_batch=2)
        engine = InferenceEngine(model, runtime=runtime)
        model.eval()
        x = rng.normal(size=(9, 20))
        with no_grad():
            expected = model(Tensor(x)).data
        assert np.array_equal(engine.infer(x), expected)
        assert engine.max_rows == 9


class TestLSTMBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("recurrent", ["dense", "tiled"])
    def test_matches_eval_forward(self, backend, recurrent, rng):
        model = make_lm("row")
        runtime = bind(model, backend=backend, recurrent=recurrent)
        engine = InferenceEngine(model, runtime=runtime)
        tokens = rng.integers(0, 40, size=(6, 3))
        model.eval()
        with no_grad():
            expected, expected_state = model(tokens)
        logits, state = engine.infer(tokens)
        assert np.array_equal(logits, expected.data)
        for (h, c), (eh, ec) in zip(state, expected_state):
            assert np.array_equal(h, eh.data)
            assert np.array_equal(c, ec.data)

    def test_carried_state(self, rng):
        """Chained windows through the engine equal chained eval forwards."""
        model = make_lm("row")
        engine = InferenceEngine(model, runtime=bind(model))
        model.eval()
        state = None
        expected_state = None
        for _ in range(3):
            tokens = rng.integers(0, 40, size=(4, 2))
            with no_grad():
                expected, expected_state = model(tokens, expected_state)
            logits, state = engine.infer(tokens, state)
            assert np.array_equal(logits, expected.data)

    def test_token_range_check(self):
        model = make_lm("row")
        engine = InferenceEngine(model, runtime=bind(model))
        with pytest.raises((ValueError, IndexError)):
            engine.infer(np.full((3, 2), 40, dtype=np.int64))


class TestInferRequests:
    def test_mlp_rows_match_per_request_forward(self, rng):
        model = make_mlp("row")
        engine = InferenceEngine(model, runtime=bind(model))
        model.eval()
        requests = [rng.normal(size=20) for _ in range(5)]
        outputs = engine.infer_requests(requests)
        assert len(outputs) == 5
        with no_grad():
            for request, output in zip(requests, outputs):
                expected = model(Tensor(request[None, :])).data[0]
                assert np.allclose(output, expected)

    def test_lm_variable_lengths_unpadded(self, rng):
        """Padding never leaks into a request's real positions."""
        model = make_lm("row")
        engine = InferenceEngine(model, runtime=bind(model))
        model.eval()
        requests = [rng.integers(0, 40, size=length)
                    for length in (3, 7, 1, 5)]
        outputs = engine.infer_requests(requests)
        with no_grad():
            for request, output in zip(requests, outputs):
                assert output.shape == (len(request), 40)
                expected, _ = model(np.asarray(request)[:, None])
                assert np.allclose(output,
                                   expected.data.reshape(len(request), 40))

    def test_empty_request_list(self):
        model = make_mlp("row")
        engine = InferenceEngine(model, runtime=bind(model))
        assert engine.infer_requests([]) == []


class TestServingStats:
    def test_runtime_stats_section(self, rng):
        model = make_mlp("row")
        runtime = bind(model)
        engine = InferenceEngine(model, runtime=runtime)
        engine.infer(rng.normal(size=(4, 20)))
        serving = runtime.stats()["serving"]
        assert serving["engines"] == 1
        assert serving["infer_calls"] == 1
        assert serving["rows"] == 4

    def test_serve_knob_validation(self):
        with pytest.raises(ValueError):
            ExecutionConfig(serve_max_batch=0)
        with pytest.raises(ValueError):
            ExecutionConfig(serve_max_wait_ms=-1.0)

"""Bit-identity tests for the frozen inference engine.

The engine's contract is exact: for every dtype, its ``infer()`` output
equals the model's own eval-mode ``forward()`` bit for bit
(``np.array_equal``, not ``allclose``).  The tests sweep both model kinds,
both dtypes, both recurrent modes and every dropout strategy, because each
combination interns a different frozen program (plain dense,
DropConnect-scaled weights, recurrent-site weights, ...).
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

from repro.execution import EngineRuntime, ExecutionConfig
from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel
from repro.models.mlp import MLPClassifier, MLPConfig
from repro.serving import InferenceEngine
from repro.tensor.tensor import Tensor, no_grad


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
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("strategy", ["none", "original", "row", "tile"])
    def test_matches_eval_forward(self, dtype, strategy, rng):
        model = make_mlp(strategy)
        runtime = bind(model, dtype=dtype)
        engine = InferenceEngine(model, runtime=runtime)
        x = rng.normal(size=(7, 20)).astype(dtype)
        model.eval()
        with no_grad():
            expected = model(Tensor(x, dtype=dtype)).data
        served = engine.infer(x)
        assert served.dtype == expected.dtype == np.dtype(dtype)
        assert np.array_equal(served, expected)

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
    @pytest.mark.parametrize("strategy", ["row", "tile"])
    @pytest.mark.parametrize("recurrent", ["dense", "tiled"])
    def test_matches_eval_forward(self, strategy, recurrent, rng):
        model = make_lm(strategy)
        runtime = bind(model, recurrent=recurrent)
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
        """Each request gets exactly its own positions of eval forward() on
        the padded batch, bit for bit; padding never leaks into them."""
        model = make_lm("row")
        engine = InferenceEngine(model, runtime=bind(model))
        model.eval()
        lengths = (1, 35, 4, 17)
        requests = [rng.integers(0, 40, size=length) for length in lengths]
        outputs = engine.infer_requests(requests)
        tokens = np.zeros((max(lengths), len(requests)), dtype=np.int64)
        for column, request in enumerate(requests):
            tokens[:len(request), column] = request
        with no_grad():
            expected, _ = model(tokens)
        expected = expected.data.reshape(max(lengths), len(requests), 40)
        for column, (request, output) in enumerate(zip(requests, outputs)):
            assert output.shape == (len(request), 40)
            assert np.array_equal(output, expected[:len(request), column])
            # Padding sits after a request's positions, so its logits equal
            # those of the request served alone.
            with no_grad():
                alone, _ = model(np.asarray(request)[:, None])
            assert np.allclose(output, alone.data)

    @pytest.mark.parametrize("lengths", [(0,), (0, 0), (3, 0, 5)])
    def test_lm_empty_requests(self, lengths, rng):
        """An empty request gets a (0, vocab) array, whatever it is batched
        with."""
        model = make_lm("row")
        engine = InferenceEngine(model, runtime=bind(model))
        requests = [rng.integers(0, 40, size=length) for length in lengths]
        outputs = engine.infer_requests(requests)
        assert [output.shape for output in outputs] == [
            (length, 40) for length in lengths]

    def test_empty_request_list(self):
        model = make_mlp("row")
        engine = InferenceEngine(model, runtime=bind(model))
        assert engine.infer_requests([]) == []

    def test_padded_length(self, rng):
        """An LM request pads a batch to its token count; an MLP request is
        one row whatever its features."""
        lm = make_lm("row")
        mlp = make_mlp("row")
        lm_engine = InferenceEngine(lm, runtime=bind(lm))
        mlp_engine = InferenceEngine(mlp, runtime=bind(mlp))
        assert [lm_engine.padded_length(np.zeros(n, dtype=np.int64))
                for n in (0, 1, 7)] == [0, 1, 7]
        assert {mlp_engine.padded_length(rng.normal(size=n))
                for n in (3, 20)} == {1}


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


class TestThreadSafety:
    @pytest.mark.parametrize("kind", ["mlp", "lm"])
    def test_concurrent_callers_match_a_lone_caller(self, kind, rng):
        """More threads than cores call ``infer_requests`` at once with a
        short switch interval: each answer is byte-equal to a lone caller's
        and every call and row is counted.  The scratch buffers are shared
        by every call, so this holds only because ``infer`` takes a lock."""
        # Wide enough that a call spends long in the shared buffers (the
        # MLP's hidden layers, the LM's head GEMM): without the lock, a few
        # hundred calls always race.
        if kind == "mlp":
            model = MLPClassifier(MLPConfig(
                input_size=64, hidden_sizes=(256, 256), num_classes=5,
                drop_rates=(0.5, 0.5), strategy="row", seed=3))
        else:
            model = LSTMLanguageModel(LSTMConfig(
                vocab_size=400, embed_size=12, hidden_size=12, num_layers=2,
                drop_rates=(0.5, 0.5), strategy="row", seed=3))
        engine = InferenceEngine(model, runtime=bind(model))
        threads = (os.cpu_count() or 1) + 2
        calls = max(8, 400 // threads)

        def request():
            if kind == "mlp":
                return rng.normal(size=64)
            return rng.integers(0, 400, size=int(rng.integers(1, 9)))

        work = [[[request() for _ in range(int(rng.integers(1, 17)))]
                 for _ in range(calls)] for _ in range(threads)]
        expected = [[engine.infer_requests(batch) for batch in batches]
                    for batches in work]
        infer_calls, rows_served = engine.infer_calls, engine.rows_served
        wrong, errors = [], []

        def caller(index):
            try:
                for batch, answers in zip(work[index], expected[index]):
                    for got, want in zip(engine.infer_requests(batch), answers):
                        if (got.shape != want.shape
                                or got.tobytes() != want.tobytes()):
                            wrong.append(index)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        workers = [threading.Thread(target=caller, args=(index,))
                   for index in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert wrong == []
        assert engine.infer_calls == infer_calls + threads * calls
        assert engine.rows_served == rows_served + sum(
            len(batch) for batches in work for batch in batches)

"""Micro-batcher tests: fan-out correctness, batching behaviour, shutdown.

Fan-out results are compared with ``np.allclose`` rather than bitwise
equality: a request answered alone runs an m=1 GEMM and the same request
pooled into a batch runs an m=N GEMM, and BLAS does not promise the two
blockings produce bitwise-identical sums.  (The *engine* itself is bitwise
against eval ``forward()`` at equal batch shapes — that contract lives in
``test_engine.py``.)
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.execution import EngineRuntime, ExecutionConfig
from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel
from repro.models.mlp import MLPClassifier, MLPConfig
from repro.serving import InferenceEngine, MicroBatcher
from repro.tensor.tensor import Tensor, no_grad


def make_engine(**config_overrides) -> InferenceEngine:
    model = MLPClassifier(MLPConfig(
        input_size=12, hidden_sizes=(16,), num_classes=4,
        drop_rates=(0.5,), strategy="row", seed=11))
    runtime = EngineRuntime(ExecutionConfig(
        mode="pooled", dtype="float64", **config_overrides))
    runtime.bind(model)
    return InferenceEngine(model, runtime=runtime)


def make_lm_engine() -> InferenceEngine:
    model = LSTMLanguageModel(LSTMConfig(
        vocab_size=30, embed_size=8, hidden_size=8, num_layers=2,
        drop_rates=(0.5, 0.5), strategy="row", seed=11))
    runtime = EngineRuntime(ExecutionConfig(
        mode="pooled", dtype="float64", recurrent="tiled"))
    runtime.bind(model)
    return InferenceEngine(model, runtime=runtime)


def reference(engine: InferenceEngine, request: np.ndarray) -> np.ndarray:
    engine.model.eval()
    with no_grad():
        if request.dtype.kind == "i":  # a token sequence for the LSTM LM
            logits, _ = engine.model(request[:, None])
            return logits.data.reshape(len(request), -1)
        return engine.model(Tensor(request[None, :])).data[0]


class TestFanOut:
    def test_each_future_gets_its_own_row(self, rng):
        # MLP feature rows, and variable-length LSTM token sequences that the
        # engine pads into one batch and must unpad per future.
        rows = [rng.normal(size=12) for _ in range(10)]
        sequences = [rng.integers(0, 30, size=int(length))
                     for length in rng.integers(1, 9, size=10)]
        for engine, requests in ((make_engine(), rows),
                                 (make_lm_engine(), sequences)):
            with MicroBatcher(engine, max_batch=4, max_wait_ms=5.0) as batcher:
                futures = [batcher.submit(request) for request in requests]
                outputs = [future.result(timeout=10) for future in futures]
            for request, output in zip(requests, outputs):
                expected = reference(engine, request)
                assert output.shape == expected.shape
                assert np.allclose(output, expected)

    def test_interleaved_arrivals_from_many_threads(self, rng):
        """Concurrent submitters each get back their own request's answer."""
        engine = make_engine()
        requests = [rng.normal(size=12) for _ in range(40)]
        outputs: list = [None] * len(requests)

        with MicroBatcher(engine, max_batch=8, max_wait_ms=2.0) as batcher:
            def submitter(indices):
                for index in indices:
                    future = batcher.submit(requests[index])
                    outputs[index] = future.result(timeout=10)
                    time.sleep(0.0005)

            threads = [threading.Thread(target=submitter,
                                        args=(range(start, 40, 4),))
                       for start in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        for request, output in zip(requests, outputs):
            assert np.allclose(output, reference(engine, request))
        assert batcher.requests_served == 40

    def test_full_wave_forms_one_batch(self, rng):
        """max_batch queued requests execute as a single pooled step."""
        engine = make_engine()
        # A long wait window, so the batch boundary is the size bound.
        with MicroBatcher(engine, max_batch=6, max_wait_ms=500.0) as batcher:
            futures = [batcher.submit(rng.normal(size=12)) for _ in range(6)]
            for future in futures:
                future.result(timeout=10)
            assert batcher.batches_formed == 1
            assert batcher.requests_served == 6

    def test_asyncio_entry_point(self, rng):
        engine = make_engine()
        requests = [rng.normal(size=12) for _ in range(5)]

        async def drive(batcher):
            return await asyncio.gather(
                *(batcher.submit_async(request) for request in requests))

        with MicroBatcher(engine, max_batch=4, max_wait_ms=2.0) as batcher:
            outputs = asyncio.run(drive(batcher))
        for request, output in zip(requests, outputs):
            assert np.allclose(output, reference(engine, request))


class TestShutdown:
    def test_close_flushes_every_accepted_future(self, rng):
        """No future accepted before close() is ever dropped unresolved."""
        engine = make_engine()
        batcher = MicroBatcher(engine, max_batch=4, max_wait_ms=50.0)
        futures = [batcher.submit(rng.normal(size=12)) for _ in range(11)]
        batcher.close()
        for future in futures:
            assert future.done()
            assert future.result().shape == (4,)

    def test_submit_after_close_raises(self, rng):
        engine = make_engine()
        batcher = MicroBatcher(engine)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(rng.normal(size=12))

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(make_engine())
        batcher.close()
        batcher.close()

    def test_engine_error_fans_out_to_futures(self):
        """A failing batch resolves every member future with the exception."""
        engine = make_engine()
        batcher = MicroBatcher(engine, max_batch=2, max_wait_ms=500.0)
        futures = [batcher.submit(np.zeros((3, 3, 3)))  # bad request shape
                   for _ in range(2)]
        with pytest.raises(Exception):
            futures[0].result(timeout=10)
        with pytest.raises(Exception):
            futures[1].result(timeout=10)
        # The worker survives a failing batch and keeps serving.
        good = batcher.submit(np.zeros(12))
        assert good.result(timeout=10).shape == (4,)
        batcher.close()


class TestConfiguration:
    def test_defaults_come_from_engine_config(self):
        engine = make_engine(serve_max_batch=17, serve_max_wait_ms=3.5)
        batcher = MicroBatcher(engine)
        assert batcher.max_batch == 17
        assert batcher.max_wait_ms == 3.5
        batcher.close()

    def test_invalid_bounds_rejected(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            MicroBatcher(engine, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(engine, max_wait_ms=-1.0)

    def test_runtime_stats_fold_engine_and_batcher(self, rng):
        engine = make_engine()
        with MicroBatcher(engine, max_batch=4, max_wait_ms=2.0) as batcher:
            futures = [batcher.submit(rng.normal(size=12)) for _ in range(8)]
            for future in futures:
                future.result(timeout=10)
        serving = engine.runtime.stats()["serving"]
        assert serving["engines"] == 1
        assert serving["batchers"] == 1
        assert serving["requests"] == 8
        assert serving["rows"] == 8
        assert serving["queue_depth"] == 0
        assert serving["mean_occupancy"] > 0

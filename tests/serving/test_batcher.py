"""Micro-batcher tests: fan-out correctness, batch formation, shutdown.

Fan-out results are compared with ``np.allclose`` rather than bitwise
equality: a request answered alone runs an m=1 GEMM and the same request
pooled into a batch runs an m=N GEMM, and BLAS does not promise the two
blockings produce bitwise-identical sums.  (The *engine* itself is bitwise
against eval ``forward()`` at equal batch shapes — that contract lives in
``test_inference_engine.py``.)  Where the test knows the batch a request was
served in (``TestBatchFormation``), it compares bit for bit with eval
``forward()`` on that batch.

``TestBatchFormation`` makes formation deterministic: a :class:`Gate` holds
the worker inside a first engine call while the test queues the requests,
then releases it and records every batch the engine receives.
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


class Gate:
    """Installed as ``engine.infer_requests``: records the requests of every
    engine call, and holds the worker inside each call listed in ``holds``
    (0 = the first) until the test sets its ``released`` event."""

    def __init__(self, engine: InferenceEngine, holds=(0,)):
        self.batches: list[list] = []
        self.arrived = {call: threading.Event() for call in holds}
        self.released = {call: threading.Event() for call in holds}
        self._infer = engine.infer_requests
        engine.infer_requests = self

    def __call__(self, requests: list) -> list:
        call = len(self.batches)
        self.batches.append(list(requests))
        if call in self.arrived:
            self.arrived[call].set()
            self.released[call].wait(timeout=30)
        return self._infer(requests)

    def served(self, requests: list) -> list[list[int]]:
        """Every recorded batch after the first, as indices into ``requests``."""
        index_of = {id(request): i for i, request in enumerate(requests)}
        return [[index_of[id(request)] for request in batch]
                for batch in self.batches[1:]]


def forward_on_batch(model, batch: list) -> list[np.ndarray]:
    """Each request's rows of eval ``forward()`` on the padded ``batch``."""
    lengths = [len(request) for request in batch]
    tokens = np.zeros((max(lengths), len(batch)), dtype=np.int64)
    for column, request in enumerate(batch):
        tokens[:lengths[column], column] = request
    model.eval()
    with no_grad():
        logits, _ = model(tokens)
    logits = logits.data.reshape(max(lengths), len(batch), -1)
    return [logits[:length, column] for column, length in enumerate(lengths)]


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


class TestBatchFormation:
    def test_waiting_lm_requests_form_sorted_length_chunks(self, rng):
        """64 waiting LM requests are served as the four chunks of their
        length order (ties by arrival), the oldest request's chunk first,
        each in arrival order; every response is ``forward()`` on its
        batch, bit for bit."""
        engine = make_lm_engine()
        gate = Gate(engine)
        lengths = rng.integers(1, 13, size=64)
        requests = [rng.integers(0, 30, size=int(length)) for length in lengths]
        with MicroBatcher(engine, max_batch=16, max_wait_ms=0.0) as batcher:
            batcher.submit(np.array([1, 2, 3]))
            assert gate.arrived[0].wait(timeout=10)
            futures = [batcher.submit(request) for request in requests]
            assert batcher.queue_depth == 64
            gate.released[0].set()
            outputs = [future.result(timeout=10) for future in futures]

        order = sorted(range(64), key=lambda i: (lengths[i], i))
        chunks = sorted(sorted(order[start:start + 16])
                        for start in range(0, 64, 16))
        served = gate.served(requests)
        assert 0 in served[0]
        assert served == chunks
        for batch in served:
            expected = forward_on_batch(engine.model,
                                        [requests[i] for i in batch])
            for i, rows in zip(batch, expected):
                assert outputs[i].tobytes() == rows.tobytes()

    def test_oldest_in_the_short_remainder_tops_it_up(self, rng):
        """With 20 waiting and the oldest in the short remainder of the
        length order, the batch is the 16 shortest (ties by arrival); the
        four longest follow."""
        engine = make_lm_engine()
        gate = Gate(engine)
        lengths = [2] + [9] * 3 + [5] * 12 + [3] * 4
        requests = [rng.integers(0, 30, size=length) for length in lengths]
        with MicroBatcher(engine, max_batch=16, max_wait_ms=0.0) as batcher:
            batcher.submit(np.array([1]))
            assert gate.arrived[0].wait(timeout=10)
            futures = [batcher.submit(request) for request in requests]
            gate.released[0].set()
            for future in futures:
                future.result(timeout=10)
        assert gate.served(requests) == [[0, *range(4, 15), 16, 17, 18, 19],
                                         [1, 2, 3, 15]]

    def test_equal_lengths_keep_arrival_order_in_full_batches(self, rng):
        """MLP requests all share one padded length: more than a batch
        waiting is served first come, first served, in full batches."""
        engine = make_engine()
        gate = Gate(engine)
        requests = [rng.normal(size=12) for _ in range(21)]
        with MicroBatcher(engine, max_batch=4, max_wait_ms=0.0) as batcher:
            batcher.submit(np.zeros(12))
            assert gate.arrived[0].wait(timeout=10)
            futures = [batcher.submit(request) for request in requests]
            gate.released[0].set()
            outputs = [future.result(timeout=10) for future in futures]
        assert gate.served(requests) == [list(range(start, min(start + 4, 21)))
                                         for start in range(0, 21, 4)]
        for request, output in zip(requests, outputs):
            assert np.allclose(output, reference(engine, request))

    def test_window_runs_from_submission(self, rng):
        """A request queued while a batch runs is served ``max_wait_ms``
        after its own submission, not after that batch ends."""
        engine = make_engine()
        submitted = threading.Event()
        started = threading.Event()
        served_at: list[float] = []
        infer = engine.infer_requests

        def slow_first_batch(requests):
            if not started.is_set():
                started.set()
                submitted.wait(timeout=10)
                time.sleep(0.3)
            else:
                served_at.append(time.monotonic())
            return infer(requests)

        engine.infer_requests = slow_first_batch
        with MicroBatcher(engine, max_batch=4, max_wait_ms=500.0) as batcher:
            full = [batcher.submit(rng.normal(size=12)) for _ in range(4)]
            assert started.wait(timeout=10)
            sent = time.monotonic()
            late = batcher.submit(rng.normal(size=12))
            submitted.set()
            late.result(timeout=10)
            for future in full:
                future.result(timeout=10)
        # 0.5 s from its submission; the old window, restarted when the
        # worker took the request, gave 0.3 + 0.5 s.
        assert 0.45 < served_at[0] - sent < 0.7

    def test_close_serves_held_back_requests(self, rng):
        """Requests held back for a later batch count in ``queue_depth``,
        and ``close()`` serves every one of them before the worker exits."""
        engine = make_lm_engine()
        gate = Gate(engine, holds=(0, 1))
        requests = [rng.integers(0, 30, size=int(length))
                    for length in rng.integers(1, 13, size=40)]
        batcher = MicroBatcher(engine, max_batch=8, max_wait_ms=0.0)
        batcher.submit(np.array([1]))
        assert gate.arrived[0].wait(timeout=10)
        futures = [batcher.submit(request) for request in requests]
        assert batcher.queue_depth == 40
        gate.released[0].set()
        assert gate.arrived[1].wait(timeout=10)
        # The worker took all 40 off the queue; 8 are in the engine.
        assert batcher.queue_depth == 32
        closer = threading.Thread(target=batcher.close)
        closer.start()
        deadline = time.monotonic() + 10
        while not batcher._closed and time.monotonic() < deadline:
            time.sleep(0.001)
        gate.released[1].set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert batcher.queue_depth == 0
        assert batcher.requests_served == 41
        served = gate.served(requests)
        assert sorted(i for batch in served for i in batch) == list(range(40))
        for batch in served:
            expected = forward_on_batch(engine.model,
                                        [requests[i] for i in batch])
            for i, rows in zip(batch, expected):
                assert futures[i].result(timeout=0).tobytes() == rows.tobytes()


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

"""Async micro-batching front end for the frozen inference engine.

The serving idiom is the async unit-of-work queue: callers submit single
requests and immediately get a future; a background worker collects requests
for at most ``serve_max_wait_ms`` (or until ``serve_max_batch`` rows are
waiting), executes them as **one** pooled
:meth:`~repro.serving.engine.InferenceEngine.infer_requests` step, and fans
the per-request results back to their futures.  Batching converts many
GEMV-shaped single-request forwards into one GEMM-shaped batched forward —
the throughput and tail-latency win ``perfbench``'s ``serve_lstm`` workload
measures.

Two entry points share the same queue: the thread-safe :meth:`MicroBatcher.submit`
(returns a :class:`concurrent.futures.Future`; what a load generator and any
synchronous caller use) and the ``asyncio``-native
:meth:`MicroBatcher.submit_async` coroutine.  Shutdown is loss-free:
:meth:`MicroBatcher.close` flushes every request accepted before the close
and only then stops the worker, so no future is ever dropped unresolved.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError

from repro.serving.engine import InferenceEngine

#: Queue sentinel marking the close() boundary; every request enqueued before
#: it is still served.
_SHUTDOWN = object()


class MicroBatcher:
    """Collect single requests into pooled engine steps.

    Parameters
    ----------
    engine:
        The frozen :class:`InferenceEngine` executing the batched steps.
    max_batch, max_wait_ms:
        Collection bounds; default to the engine config's
        ``serve_max_batch`` / ``serve_max_wait_ms`` knobs.  A batch executes
        as soon as ``max_batch`` requests are waiting, or when the oldest
        request has waited ``max_wait_ms``, whichever comes first.
    """

    def __init__(self, engine: InferenceEngine, max_batch: int | None = None,
                 max_wait_ms: float | None = None):
        self.engine = engine
        config = engine.config
        self.max_batch = int(max_batch if max_batch is not None
                             else config.serve_max_batch)
        self.max_wait_ms = float(max_wait_ms if max_wait_ms is not None
                                 else config.serve_max_wait_ms)
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._closed = False
        self.batches_formed = 0
        self.requests_served = 0
        self._worker = threading.Thread(target=self._serve_loop,
                                        name="repro-serving-batcher",
                                        daemon=True)
        engine.runtime.register_serving_source(self)
        self._worker.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, request) -> Future:
        """Enqueue one request; thread-safe.  Resolves to the engine output."""
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self._queue.put((request, future))
        return future

    async def submit_async(self, request):
        """``asyncio`` entry point: awaits the same queue as :meth:`submit`."""
        return await asyncio.wrap_future(self.submit(request))

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------
    def _collect(self) -> tuple[list, bool]:
        """Block for the next batch.

        Returns ``(batch, keep_running)``: up to ``max_batch`` requests, the
        first waited for indefinitely, the rest for whatever remains of the
        ``max_wait_ms`` window (a full queue drains without waiting).
        """
        item = self._queue.get()
        if item is _SHUTDOWN:
            return [], False
        batch = [item]
        deadline = time.monotonic() + self.max_wait_ms / 1000.0
        while len(batch) < self.max_batch:
            remaining = deadline - time.monotonic()
            try:
                if remaining > 0:
                    item = self._queue.get(timeout=remaining)
                else:
                    item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                # Serve what was accepted before the close, then stop: the
                # sentinel is enqueued after the closed flag flips, so
                # nothing can follow it.
                return batch, False
            batch.append(item)
        return batch, True

    def _serve_loop(self) -> None:
        running = True
        while running:
            batch, running = self._collect()
            if not batch:
                continue
            requests = [request for request, _ in batch]
            try:
                outputs = self.engine.infer_requests(requests)
            except BaseException as error:  # noqa: BLE001 - fan the error out
                for _, future in batch:
                    try:
                        future.set_exception(error)
                    except InvalidStateError:
                        pass  # request cancelled while queued
                continue
            self.batches_formed += 1
            self.requests_served += len(batch)
            for (_, future), output in zip(batch, outputs):
                try:
                    future.set_result(output)
                except InvalidStateError:
                    pass  # request cancelled while queued

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting requests, flush the queue, join the worker.

        Every request accepted before the close is still executed and its
        future resolved; calling :meth:`submit` afterwards raises.
        Idempotent.
        """
        with self._lock:
            if self._closed:
                already = True
            else:
                already = False
                self._closed = True
                self._queue.put(_SHUTDOWN)
        if not already:
            self._worker.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting to be collected into a batch."""
        return self._queue.qsize()

    def serving_stats(self) -> dict[str, int]:
        """Counters folded into ``runtime.stats()["serving"]``."""
        return {"batchers": 1, "batches": self.batches_formed,
                "requests": self.requests_served,
                "queue_depth": self.queue_depth}

    def __repr__(self) -> str:
        return (f"MicroBatcher(max_batch={self.max_batch}, "
                f"max_wait_ms={self.max_wait_ms}, "
                f"batches={self.batches_formed}, "
                f"requests={self.requests_served})")

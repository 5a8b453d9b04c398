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

A language-model batch pads every request to its longest, so when more
requests wait than one batch holds, the worker groups them by length
(:meth:`~repro.serving.engine.InferenceEngine.padded_length`) instead of
serving them first come, first served; the oldest waiting request is always
in the next batch.

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
from typing import Any, NamedTuple

from repro.serving.engine import InferenceEngine

#: Queue sentinel marking the close() boundary; every request enqueued before
#: it is still served.
_SHUTDOWN = object()


class _Accepted(NamedTuple):
    """A submitted request as it waits to be served."""

    request: Any
    future: Future
    submitted: float    # time.monotonic() when submit() accepted it
    length: int         # the engine's padded length of ``request``


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
        request has waited ``max_wait_ms`` since its submission, whichever
        comes first.

    Which requests form a batch: at most ``max_batch`` waiting requests are
    served together, in arrival order.  When more wait, they are ordered by
    the engine's padded length (ties by arrival) and cut into ``max_batch``
    chunks from the longest end; the batch is the chunk holding the oldest
    waiting request, or, when that is the short remainder at the shortest
    end, the ``max_batch`` shortest requests.  A batch keeps arrival order
    inside, so every response is the engine's output on that batch.
    Requests of one length (every MLP request) are served first come, first
    served.
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
        # Requests the worker has taken off the queue and not yet served,
        # in arrival order.  Only the worker thread changes it.
        self._waiting: list[_Accepted] = []
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
        """Enqueue one request; thread-safe.  Resolves to the engine output.

        The request's padded length is read here, so a language-model
        request without a length raises ``TypeError`` at once.
        """
        future: Future = Future()
        length = self.engine.padded_length(request)
        with self._lock:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self._queue.put(_Accepted(request, future, time.monotonic(), length))
        return future

    async def submit_async(self, request):
        """``asyncio`` entry point: awaits the same queue as :meth:`submit`."""
        return await asyncio.wrap_future(self.submit(request))

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------
    def _collect(self, running: bool) -> bool:
        """Move queued requests into ``_waiting`` until a batch is due.

        With nothing waiting, blocks for the next request.  Then takes more
        until ``max_batch`` wait or the oldest waiting request's
        ``max_wait_ms`` window closes, and after that whatever else is
        already queued, so the batch is chosen from every waiting request.
        Returns ``False`` once the close sentinel has been taken: the
        sentinel is enqueued after the closed flag flips, so nothing
        follows it.
        """
        waiting = self._waiting
        while running:
            if not waiting:
                item = self._queue.get()
            else:
                remaining = (waiting[0].submitted + self.max_wait_ms / 1000.0
                             - time.monotonic())
                try:
                    if len(waiting) < self.max_batch and remaining > 0:
                        item = self._queue.get(timeout=remaining)
                    else:
                        item = self._queue.get_nowait()
                except queue.Empty:
                    break
            if item is _SHUTDOWN:
                running = False
            else:
                waiting.append(item)
        return running

    def _next_batch(self) -> list[_Accepted]:
        """Take the next batch off ``_waiting`` (the rule is in the class
        docstring)."""
        waiting, size = self._waiting, self.max_batch
        if len(waiting) <= size:
            self._waiting = []
            return waiting
        count = len(waiting)
        order = sorted(range(count), key=lambda i: (waiting[i].length, i))
        # The chunk holding the oldest request (index 0), cut from the
        # longest end; the short remainder is topped up to a full batch.
        stop = max(size, count - (count - 1 - order.index(0)) // size * size)
        chosen = set(order[stop - size:stop])
        self._waiting = [item for i, item in enumerate(waiting)
                         if i not in chosen]
        return [item for i, item in enumerate(waiting) if i in chosen]

    def _serve(self, batch: list[_Accepted]) -> None:
        """Run ``batch`` as one engine step and resolve its futures."""
        try:
            outputs = self.engine.infer_requests(
                [item.request for item in batch])
        except BaseException as error:  # noqa: BLE001 - fan the error out
            for item in batch:
                try:
                    item.future.set_exception(error)
                except InvalidStateError:
                    pass  # request cancelled while queued
            return
        self.batches_formed += 1
        self.requests_served += len(batch)
        for item, output in zip(batch, outputs):
            try:
                item.future.set_result(output)
            except InvalidStateError:
                pass  # request cancelled while queued

    def _serve_loop(self) -> None:
        running = True
        while running or self._waiting:
            running = self._collect(running)
            if self._waiting:
                self._serve(self._next_batch())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting requests, flush the queue, join the worker.

        Every request accepted before the close, held-back ones included,
        is still executed and its future resolved; calling :meth:`submit`
        afterwards raises.
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
        """Requests accepted and not yet handed to the engine: those still
        queued and those the worker holds back for a later batch."""
        return self._queue.qsize() + len(self._waiting)

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

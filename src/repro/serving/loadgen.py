"""Synthetic load generation for the serving path.

Two standard driver shapes:

* **closed loop** — ``concurrency`` workers each keep exactly one request in
  flight (submit, wait, repeat).  Measures the service's best sustainable
  per-stream latency and the throughput that concurrency level extracts.
* **open loop** — requests arrive on a Poisson process at ``rate_rps``
  regardless of completions (the real-traffic shape).  Latency is measured
  from each request's *scheduled* arrival, not from when the dispatcher got
  around to submitting it, so a saturated server shows its queueing delay
  instead of the coordinated-omission artefact.

Both report the same :class:`LoadReport`: request count, wall-clock,
steady-state throughput and the p50/p99 latency quantiles, so a per-request
baseline and the micro-batched engine can be compared under the same load.

``submit`` is any callable taking one request; it may return a
``concurrent.futures.Future``-like object (resolved off-thread, e.g.
:meth:`~repro.serving.batcher.MicroBatcher.submit`) or the finished result
directly (a synchronous per-request baseline).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LoadReport:
    """Latency/throughput summary of one load-generation run."""

    requests: int
    elapsed_s: float
    throughput_rps: float
    mean_ms: float
    p50_ms: float
    p99_ms: float

    def to_dict(self) -> dict[str, float]:
        return {"requests": self.requests, "elapsed_s": round(self.elapsed_s, 4),
                "throughput_rps": round(self.throughput_rps, 2),
                "mean_ms": round(self.mean_ms, 4),
                "p50_ms": round(self.p50_ms, 4), "p99_ms": round(self.p99_ms, 4)}


def _report(latencies_s: list[float], elapsed_s: float) -> LoadReport:
    latencies = np.asarray(latencies_s, dtype=np.float64)
    return LoadReport(
        requests=int(latencies.size),
        elapsed_s=float(elapsed_s),
        throughput_rps=float(latencies.size / elapsed_s) if elapsed_s > 0 else 0.0,
        mean_ms=float(latencies.mean() * 1e3) if latencies.size else 0.0,
        p50_ms=float(np.percentile(latencies, 50) * 1e3) if latencies.size else 0.0,
        p99_ms=float(np.percentile(latencies, 99) * 1e3) if latencies.size else 0.0,
    )


def _resolve(result):
    """The request's final value: wait when ``submit`` returned a future."""
    waiter = getattr(result, "result", None)
    return waiter() if callable(waiter) else result


def run_closed_loop(submit, requests: list, *, concurrency: int = 4) -> LoadReport:
    """Drive ``requests`` through ``submit`` with a fixed in-flight count.

    ``concurrency`` worker threads pull from a shared cursor; each submits
    one request, blocks on its completion, records the latency and moves on.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    cursor = iter(range(len(requests)))
    cursor_lock = threading.Lock()
    latencies: list[list[float]] = [[] for _ in range(concurrency)]

    def worker(slot: int) -> None:
        while True:
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                return
            started = time.perf_counter()
            _resolve(submit(requests[index]))
            latencies[slot].append(time.perf_counter() - started)

    threads = [threading.Thread(target=worker, args=(slot,), daemon=True)
               for slot in range(concurrency)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return _report([value for slot in latencies for value in slot], elapsed)


def run_open_loop(submit, requests: list, *, rate_rps: float,
                  seed: int | None = 0) -> LoadReport:
    """Drive ``requests`` through ``submit`` on a Poisson arrival process.

    Inter-arrival gaps are exponential with mean ``1 / rate_rps`` (``seed``
    fixes the draw).  The dispatcher submits each request at its scheduled
    arrival time; latency runs from that schedule to completion, so requests
    a saturated server queues are charged their waiting time.
    """
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, size=len(requests)))
    done = threading.Semaphore(0)
    latencies: list[float] = [0.0] * len(requests)

    started = time.perf_counter()
    for index, request in enumerate(requests):
        scheduled = started + arrivals[index]
        delay = scheduled - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        result = submit(request)
        if callable(getattr(result, "add_done_callback", None)):
            def record(_future, index=index, scheduled=scheduled):
                latencies[index] = time.perf_counter() - scheduled
                done.release()
            result.add_done_callback(record)
        else:
            latencies[index] = time.perf_counter() - scheduled
            done.release()
    for _ in requests:
        done.acquire()
    elapsed = time.perf_counter() - started
    return _report(latencies, elapsed)


def run_rate_sweep(submit, requests: list, *, rates_rps: list[float] | tuple,
                   seed: int | None = 0) -> list[LoadReport]:
    """Latency vs offered rate: one :func:`run_open_loop` per Poisson rate.

    Returns one :class:`LoadReport` per entry of ``rates_rps`` (in order) —
    the standard latency/throughput-vs-offered-load ladder.  Each rung
    replays the same ``requests`` list on a fresh seeded arrival process, so
    the rungs differ only in their offered rate; quantiles rise as the rate
    approaches the service's capacity (the queueing delay the open-loop
    driver charges against each request's *scheduled* arrival).
    """
    if not rates_rps:
        raise ValueError("rates_rps must contain at least one rate")
    for rate in rates_rps:
        if rate <= 0:
            raise ValueError(f"every swept rate must be > 0, got {rate}")
    return [run_open_loop(submit, requests, rate_rps=float(rate), seed=seed)
            for rate in rates_rps]

"""Open-loop request generator with a seeded Poisson arrival schedule.

Requests are due at absolute times drawn from a Poisson process at a fixed
rate, whatever the server does, so a slow server builds a queue instead of
receiving less load.  One dispatcher thread sends every request at its due
time; latency runs from the due time (not the actual send) to completion, so
a stall in the dispatcher or the server is charged to every request it
delays, and the dispatcher's own lateness is reported as lag.

The generator is the benchmark's own: rates are absolute numbers fixed by the
caller, never derived from a measured capacity.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np


def poisson_offsets(rate_rps: float, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds after the start) of ``count`` Poisson arrivals."""
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    return np.cumsum(rng.exponential(1.0 / rate_rps, size=count))


@dataclass
class RungReport:
    """What one open-loop rung measured."""

    due: np.ndarray            # absolute due times (clock seconds)
    sent: np.ndarray           # absolute send times (nan if never sent)
    done: np.ndarray           # absolute completion times (nan if not completed)
    outputs: list = field(repr=False, default_factory=list)
    errors: list = field(repr=False, default_factory=list)

    @property
    def count(self) -> int:
        return len(self.due)

    @property
    def ok(self) -> np.ndarray:
        """Mask of requests that completed without error."""
        return ~np.isnan(self.done) & np.array([e is None for e in self.errors])

    @property
    def failed(self) -> int:
        return int(self.count - self.ok.sum())

    @property
    def latencies_ms(self) -> list[float]:
        """Due-to-completion latency of every successful request."""
        ok = self.ok
        return list(1000.0 * (self.done[ok] - self.due[ok]))

    @property
    def lag_ms(self) -> list[float]:
        """How late the dispatcher sent each request."""
        sent = ~np.isnan(self.sent)
        return list(1000.0 * (self.sent[sent] - self.due[sent]))

    def backlog_growth(self, samples: int = 60) -> float:
        """Mean outstanding requests in the last third of the schedule minus the first third."""
        sent = np.sort(self.sent[~np.isnan(self.sent)])
        done = np.sort(self.done[~np.isnan(self.done)])
        if len(sent) < 3:
            return 0.0
        times = np.linspace(sent[0], sent[-1], samples)
        backlog = (np.searchsorted(sent, times, side="right")
                   - np.searchsorted(done, times, side="right"))
        third = max(1, samples // 3)
        return float(backlog[-third:].mean() - backlog[:third].mean())


def run_open_loop(submit: Callable[[Any], concurrent.futures.Future],
                  requests: Sequence, offsets: np.ndarray, *,
                  timeout_s: float,
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep,
                  lead_s: float = 0.005) -> RungReport:
    """Send ``requests[i]`` at ``start + offsets[i]`` from one dispatcher thread.

    ``submit`` returns a future.  Completion is stamped in the future's done
    callback.  After the last send the caller waits at most ``timeout_s`` for
    the stragglers; a request still pending then counts as failed.  ``clock``
    and ``sleep`` are injectable so the lag accounting can be tested with a
    simulated clock.
    """
    count = len(requests)
    if len(offsets) != count:
        raise ValueError("one offset per request required")
    start = clock() + lead_s
    due = start + np.asarray(offsets, dtype=np.float64)
    sent = np.full(count, np.nan)
    done = np.full(count, np.nan)
    outputs: list = [None] * count
    errors: list = [None] * count
    futures: list[concurrent.futures.Future] = []
    finished = threading.Condition()
    finished_count = 0

    def on_done(index: int, future: concurrent.futures.Future) -> None:
        nonlocal finished_count
        stamp = clock()
        error = future.exception()
        with finished:
            done[index] = stamp
            if error is None:
                outputs[index] = future.result()
            else:
                errors[index] = error
            finished_count += 1
            finished.notify_all()

    def dispatch() -> None:
        for index in range(count):
            delay = due[index] - clock()
            if delay > 0:
                sleep(delay)
            sent[index] = clock()
            try:
                future = submit(requests[index])
            except Exception as error:  # noqa: BLE001 - a refused request counts as failed
                errors[index] = error
                continue
            futures.append(future)
            future.add_done_callback(lambda f, i=index: on_done(i, f))

    dispatcher = threading.Thread(target=dispatch, name="perfbench-dispatcher")
    dispatcher.start()
    dispatcher.join()
    with finished:
        # Wait for the done callbacks themselves, not only the futures: a
        # future is marked done before its callbacks run.
        finished.wait_for(lambda: finished_count == len(futures), timeout=timeout_s)
        # Snapshot under the lock: stragglers that resolve later stay failed.
        report = RungReport(due=due, sent=sent.copy(), done=done.copy(),
                            outputs=list(outputs), errors=list(errors))
    for index in np.flatnonzero(np.isnan(report.done)):
        report.errors[index] = report.errors[index] or TimeoutError("no reply")
    return report

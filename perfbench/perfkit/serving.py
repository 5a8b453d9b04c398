"""The ``serve_lstm`` workload.

The ``lstm_train`` model shape (vocab 10000, embed = hidden = 256, 2 layers,
row dropout at 0.3, tiled recurrent projection, adaptive head), frozen behind
an ``InferenceEngine`` and a ``MicroBatcher`` with ``serve_max_batch=16``.
Requests are 4-35 token slices of the seeded Zipf+Markov corpus.  One
dispatcher thread sends them as open-loop Poisson arrivals over a fixed
ladder of absolute rates: a light rung near a quarter of this engine's
capacity on a 2-core host, a heavy rung at half to two thirds of it, and
rungs above that until one misses the latency limit.  Between the rungs,
closed-loop samples (bursts, lone requests, engine against ``forward()``)
give the bounded metrics, which the open-loop quantiles are too unsteady on
a shared host to be.  Only ``repro.serving`` works here: autodiff, the
dropout engine and the optimizer are bypassed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfkit import stats
from perfkit.metrics import BACKEND_OPS
from perfkit.openloop import RungReport, poisson_offsets, run_open_loop
from perfkit.spans import Tracer, child_coverage

SHAPES = {
    "full": dict(vocab=10000, hidden=256, layers=2, rate=0.3, max_batch=16,
                 min_len=4, max_len=35, corpus_tokens=60000),
    "tiny": dict(vocab=300, hidden=32, layers=2, rate=0.3, max_batch=4,
                 min_len=2, max_len=8, corpus_tokens=4000),
}


@dataclass(frozen=True)
class Ladder:
    """The fixed arrival-rate ladder and the request counts of its rungs.

    Counts are for a 30-second run and scale with ``--seconds``, but never
    drop below what the percentiles read from a rung need for ten samples
    beyond them: 100 for the p90 of the light and upper rungs, 200 for the
    p95 of the heavy rung.  (A p99 would need 1000 requests per rung: 33 s at
    the heavy rate alone.)
    """

    light_rps: float
    light_requests: int
    heavy_rps: float
    heavy_requests: int
    upper_rps: tuple[float, ...]
    upper_requests: int
    limit_ms: float          # a rung is sustainable when its p90 stays under this
    burst_requests: int      # requests of one closed burst
    unloaded_requests: int   # requests sent one at a time per sample
    min_samples: int         # samples (burst + unloaded + speedup pair) per run
    verify_batches: int      # served batches per rung replayed through forward()
    min_beyond: int = 10
    timeout_s: float = 30.0
    setup_reps: int = 3


LADDERS = {
    # Open-loop capacity of this engine on a 2-core host is 45-60 req/s
    # (p90 under the limit), depending on how busy the host is.  The light
    # rung sits near 25% of it; the heavy rung near 50-65%, not 75%: there
    # the p95 swings by 40% from run to run.
    "full": Ladder(light_rps=15.0, light_requests=100, heavy_rps=30.0,
                   heavy_requests=200, upper_rps=(45.0, 60.0, 75.0),
                   upper_requests=100, limit_ms=250.0, burst_requests=64,
                   unloaded_requests=8, min_samples=8, verify_batches=2),
    "tiny": Ladder(light_rps=40.0, light_requests=12, heavy_rps=80.0,
                   heavy_requests=20, upper_rps=(120.0,), upper_requests=12,
                   limit_ms=250.0, burst_requests=8, unloaded_requests=2,
                   min_samples=2, verify_batches=1, min_beyond=0, timeout_s=10.0,
                   setup_reps=2),
}

BASE_SECONDS = 30.0


def _scaled(count: int, seconds: float, floor: int) -> int:
    return max(floor, round(count * seconds / BASE_SECONDS))


def make_corpus(size: str, seed: int):
    from repro.data.synthetic_text import make_synthetic_corpus

    shape = SHAPES[size]
    return make_synthetic_corpus(vocab_size=shape["vocab"],
                                 num_train_tokens=shape["corpus_tokens"],
                                 num_valid_tokens=shape["max_len"] + 2,
                                 num_test_tokens=shape["max_len"] + 2, seed=seed)


def make_requests(stream: np.ndarray, count: int, rng: np.random.Generator,
                  size: str) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """``count`` token requests and their next-token targets."""
    shape = SHAPES[size]
    lengths = rng.integers(shape["min_len"], shape["max_len"] + 1, size=count)
    starts = rng.integers(0, len(stream) - shape["max_len"] - 1, size=count)
    requests = [stream[s:s + n].astype(np.int64) for s, n in zip(starts, lengths)]
    targets = [stream[s + 1:s + n + 1] for s, n in zip(starts, lengths)]
    return requests, targets


def setup_server(size: str, seed: int, warm: list):
    """Build, bind and compile the frozen engine; returns (model, engine, seconds)."""
    from repro.dropout.patterns import clear_pattern_caches
    from repro.execution import EngineRuntime, ExecutionConfig
    from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel
    from repro.serving import InferenceEngine

    shape = SHAPES[size]
    clear_pattern_caches()
    start = time.perf_counter()
    runtime = EngineRuntime(ExecutionConfig(
        mode="pooled", recurrent="tiled", loss_head="adaptive",
        optimizer="sparse", seed=seed, serve_max_batch=shape["max_batch"]))
    model = LSTMLanguageModel(LSTMConfig(
        vocab_size=shape["vocab"], embed_size=shape["hidden"],
        hidden_size=shape["hidden"], num_layers=shape["layers"],
        drop_rates=(shape["rate"],) * shape["layers"], strategy="row", seed=seed))
    runtime.bind(model)
    engine = InferenceEngine(model, runtime=runtime)
    engine.infer_requests(warm)
    return model, engine, time.perf_counter() - start


def forward_batch(model, requests: list) -> np.ndarray:
    """Eval ``forward()`` on the same padded batch the engine serves."""
    from repro.tensor.tensor import no_grad

    lengths = [len(r) for r in requests]
    tokens = np.zeros((max(lengths), len(requests)), dtype=np.int64)
    for column, request in enumerate(requests):
        tokens[:lengths[column], column] = request
    with no_grad():
        logits, _ = model(tokens)
    return logits.data


class BatchLog:
    """Records the requests of every engine step, so responses can be replayed.

    Installed as the engine's ``infer_requests`` (an instance attribute that
    the micro-batcher calls); costs one list copy per batch.
    """

    def __init__(self, engine):
        self.engine = engine
        self.batches: list[list] = []
        self._infer = engine.infer_requests
        engine.infer_requests = self

    def __call__(self, requests: list) -> list:
        self.batches.append(list(requests))
        return self._infer(requests)

    def close(self) -> None:
        del self.engine.infer_requests


def _verify(model, batches: list[list], report: RungReport, requests: list,
            count: int, rng: np.random.Generator) -> tuple[int, int]:
    """(checked, mismatched) responses of ``count`` sampled served batches.

    Each sampled batch is replayed through eval ``forward()`` on the same
    padded token array; every response in it must match bit for bit.
    """
    index_of = {id(r): i for i, r in enumerate(requests)}
    checked = mismatched = 0
    for j in sorted(rng.choice(len(batches), size=min(count, len(batches)), replace=False)):
        batch = batches[j]
        logits = forward_batch(model, batch).reshape(max(map(len, batch)), len(batch), -1)
        for column, request in enumerate(batch):
            i = index_of[id(request)]
            checked += 1
            mismatched += not (report.ok[i] and np.array_equal(
                report.outputs[i], logits[:len(request), column]))
    return checked, mismatched


def _nll(outputs: list, targets: list) -> float:
    """Mean next-token negative log-likelihood of served logits."""
    total = count = 0.0
    for logits, target in zip(outputs, targets):
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1))
        total += float(np.sum(log_z - shifted[np.arange(len(target)), target]))
        count += len(target)
    return total / count


def max_rate(rungs: list[tuple[float, float, bool]], limit_ms: float) -> float:
    """Highest sustainable rate from ``(rate, tail_ms, sustainable)`` rungs.

    Rungs are read in rising rate order.  Between the last sustainable rung
    and the first that is not, the rate is interpolated linearly to where
    the tail latency crosses the limit (no interpolation when the failing
    rung met the limit but built a backlog or failed requests).  A first
    rung that already fails scales its rate down by ``limit / tail``; when
    every rung holds, the top rung is the reading.
    """
    ordered = sorted(rungs)
    previous = None
    for rate, tail, sustainable in ordered:
        if sustainable:
            previous = (rate, tail)
            continue
        if previous is None:
            return rate * min(1.0, limit_ms / tail)
        rate0, tail0 = previous
        fraction = 0.0
        if tail > limit_ms and tail > tail0:
            fraction = min(1.0, max(0.0, (limit_ms - tail0) / (tail - tail0)))
        return rate0 + fraction * (rate - rate0)
    return ordered[-1][0]


@dataclass
class Rung:
    name: str
    rate: float
    requests: list
    targets: list
    offsets: np.ndarray


def _rung_counts(ladder: Ladder, seconds: float) -> dict[str, int]:
    return {"light": _scaled(ladder.light_requests, seconds,
                             stats.min_samples(90, ladder.min_beyond)),
            "heavy": _scaled(ladder.heavy_requests, seconds,
                             stats.min_samples(95, ladder.min_beyond)),
            "upper": _scaled(ladder.upper_requests, seconds,
                             stats.min_samples(90, ladder.min_beyond))}


def _rungs(ladder: Ladder, stream, rng, size: str, counts: dict[str, int],
           upper: bool = True) -> list[Rung]:
    plan = [("light", ladder.light_rps), ("heavy", ladder.heavy_rps)]
    if upper:
        plan += [(f"upper{rate:g}", rate) for rate in ladder.upper_rps]
    rungs = []
    for name, rate in plan:
        count = counts["upper" if name.startswith("upper") else name]
        requests, targets = make_requests(stream, count, rng, size)
        rungs.append(Rung(name, rate, requests, targets,
                          poisson_offsets(rate, count, rng)))
    return rungs


def _unloaded_requests(stream, rng, size: str, count: int) -> list[np.ndarray]:
    """``count`` requests whose lengths spread evenly over the length range.

    Unloaded latency follows request length closely; a fixed length mix per
    sample keeps the seed from moving the p50 through the lengths it draws.
    """
    shape = SHAPES[size]
    lengths = np.linspace(shape["min_len"], shape["max_len"], count).round().astype(int)
    starts = rng.integers(0, len(stream) - shape["max_len"] - 1, size=count)
    return [stream[s:s + n].astype(np.int64) for s, n in zip(starts, rng.permutation(lengths))]


def _speedup_batches(stream, rng, size: str, pairs: int) -> list[list]:
    batch = SHAPES[size]["max_batch"]
    requests, _ = make_requests(stream, batch * pairs, rng, size)
    return [requests[i * batch:(i + 1) * batch] for i in range(pairs)]


def _pct(values, q: float, min_beyond: int) -> float:
    return stats.percentile(values, q, min_beyond) if values else 0.0


def _serve_rung(batcher, log: BatchLog, model, rung: Rung, ladder: Ladder,
                verify_rng: np.random.Generator) -> tuple[RungReport, int, int]:
    """One open-loop rung, then replay of sampled batches: (report, checked, mismatched)."""
    log.batches.clear()
    report = run_open_loop(batcher.submit, rung.requests, rung.offsets,
                           timeout_s=ladder.timeout_s)
    checked, mismatched = _verify(model, log.batches, report, rung.requests,
                                  ladder.verify_batches, verify_rng)
    return report, checked, mismatched


@dataclass
class Samples:
    """Closed-loop samples taken between the open-loop rungs.

    One sample is a closed burst (every request due at once), a few requests
    sent one at a time, and one batch through both the engine and eval
    ``forward()``.  Spreading samples over the whole run lets their medians
    ride out the seconds-scale speed swings of a shared host.
    """

    burst_rps: list = field(default_factory=list)
    burst_ms: list = field(default_factory=list)
    unloaded_ms: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    engine_ms: list = field(default_factory=list)
    requests: int = 0

    def take(self, batcher, engine, model, burst: list, unloaded: list,
             batch: list, timeout_s: float) -> None:
        start = time.perf_counter()
        futures = [batcher.submit(request) for request in burst]
        for future in futures:
            # Served in submission order: waiting in that order observes
            # each completion as it happens.
            future.result(timeout=timeout_s)
            self.burst_ms.append(1000.0 * (time.perf_counter() - start))
        self.burst_rps.append(len(burst) / (time.perf_counter() - start))
        for request in unloaded:
            start = time.perf_counter()
            batcher.submit(request).result(timeout=timeout_s)
            self.unloaded_ms.append(1000.0 * (time.perf_counter() - start))
        # The batch through both paths back to back, alternating which goes
        # first: the ratio of a pair sees one host speed.
        pair = {}
        paths = (("engine", engine.infer_requests),
                 ("forward", lambda b: forward_batch(model, b)))
        for name, fn in (paths if len(self.ratios) % 2 == 0 else paths[::-1]):
            start = time.perf_counter()
            fn(batch)
            pair[name] = time.perf_counter() - start
        self.ratios.append(pair["forward"] / pair["engine"])
        self.engine_ms.append(1000.0 * pair["engine"])
        self.requests += len(burst) + len(unloaded) + 2


def run(seed: int, seconds: float, size: str = "full") -> dict:
    """The untraced run: end-to-end metrics."""
    from repro.serving import MicroBatcher

    ladder = LADDERS[size]
    max_batch = SHAPES[size]["max_batch"]
    rng = np.random.default_rng(seed)
    stream = make_corpus(size, seed).train
    warm, _ = make_requests(stream, max_batch, rng, size)
    rungs = _rungs(ladder, stream, rng, size, _rung_counts(ladder, seconds))
    # Enough pre-generated sample inputs for any run length; cycled if short.
    pool = 4 * ladder.min_samples
    bursts = [make_requests(stream, ladder.burst_requests, rng, size)[0]
              for _ in range(pool)]
    unloaded = [_unloaded_requests(stream, rng, size, ladder.unloaded_requests)
                for _ in range(pool)]
    batches = _speedup_batches(stream, rng, size, pool)
    verify_rng = np.random.default_rng([seed, 1])

    setups = []
    for _ in range(ladder.setup_reps):
        model, engine, elapsed = setup_server(size, seed, warm)
        setups.append(elapsed)

    samples = Samples()
    attempted = failed = 0
    reports: dict[str, RungReport] = {}
    ladder_points = []
    rung_rows = []
    deadline = time.perf_counter() + seconds
    log = BatchLog(engine)

    def sample() -> None:
        i = len(samples.ratios) % pool
        samples.take(batcher, engine, model, bursts[i], unloaded[i], batches[i],
                     ladder.timeout_s)

    with MicroBatcher(engine, max_batch=max_batch) as batcher:
        for rung in rungs:
            report, checked, mismatched = _serve_rung(batcher, log, model, rung,
                                                      ladder, verify_rng)
            reports[rung.name] = report
            attempted += report.count + checked
            failed += report.failed + mismatched
            latencies = report.latencies_ms
            p90 = _pct(latencies, 90, ladder.min_beyond) if latencies else math.inf
            sustainable = (p90 <= ladder.limit_ms and report.failed == 0
                           and report.backlog_growth() <= max_batch)
            ladder_points.append((rung.rate, p90, sustainable))
            rung_rows.append({
                "rung": rung.name, "rate_rps": rung.rate, "sent": report.count,
                "failed": report.failed,
                "p50_ms": stats.median(latencies) if latencies else None,
                "p90_ms": p90, "sustainable": sustainable,
                "lag_ms_p99": _pct(report.lag_ms, 99, 0),
                "backlog_growth": report.backlog_growth()})
            sample()
            if rung.name.startswith("upper") and not sustainable:
                break
        while (time.perf_counter() < deadline
               or len(samples.ratios) < ladder.min_samples):
            sample()
    log.close()
    attempted += samples.requests

    light, heavy = reports["light"], reports["heavy"]
    ok = np.flatnonzero(light.ok)
    served_nll = _nll([light.outputs[i] for i in ok], [rungs[0].targets[i] for i in ok])
    p50_light = stats.median(light.latencies_ms)
    p95_heavy = _pct(heavy.latencies_ms, 95, ladder.min_beyond)
    burst_p90 = _pct(samples.burst_ms, 90, ladder.min_beyond)
    throughput = stats.median(samples.burst_rps)
    unloaded_p50 = stats.median(samples.unloaded_ms)
    speedup = stats.median(samples.ratios)
    metrics = {
        "setup_s": stats.median(setups),
        "throughput_per_s": throughput,
        "p50_ms": unloaded_p50,
        "tail_ms": burst_p90,
        "speedup_x": speedup,
    }
    details = {
        "burst_rps": throughput,
        "burst_ms_p90": burst_p90,
        "unloaded_ms_p50": unloaded_p50,
        "served_nll": served_nll,
        "max_rate_rps": max_rate(ladder_points, ladder.limit_ms),
        "p50_ms_light": p50_light,
        "p90_ms_light": _pct(light.latencies_ms, 90, ladder.min_beyond),
        "p50_ms_heavy": stats.median(heavy.latencies_ms),
        "p95_ms_heavy": p95_heavy,
        "engine_batch_ms_p50": stats.median(samples.engine_ms),
        "samples": len(samples.ratios),
        "limit_ms_p90": ladder.limit_ms,
        "rungs": rung_rows,
        "setup_s_each": setups,
    }
    return {"attempted": attempted, "failed": failed,
            "checks": {"responses_bit_identical": failed == 0},
            "metrics": metrics, "details": details}


def trace(seed: int, seconds: float, out_dir: Path, size: str = "full") -> dict:
    """The traced run: per-rung serving layer metrics and tracing overhead.

    Set-up is traced (bind, pattern search); then the fixed speedup batches
    run untraced and traced (outputs must match bit for bit); then the light
    and heavy rungs, shortened to fit the time budget, run traced.
    """
    from repro.dropout.search import PatternDistributionSearch
    from repro.execution import EngineRuntime
    from repro.serving import MicroBatcher

    ladder = LADDERS[size]
    rng = np.random.default_rng(seed)
    stream = make_corpus(size, seed).train
    warm, _ = make_requests(stream, SHAPES[size]["max_batch"], rng, size)
    batches = _speedup_batches(stream, rng, size, ladder.min_samples)
    # The traced rungs keep no sample rule, so they are cut to fit the budget.
    share = 0.8 * seconds / BASE_SECONDS
    rungs = _rungs(ladder, stream, rng, size,
                   {"light": max(8, round(ladder.light_requests * share)),
                    "heavy": max(8, round(ladder.heavy_requests * share))},
                   upper=False)
    verify_rng = np.random.default_rng([seed, 1])

    tracer = Tracer()
    tracer.patch(PatternDistributionSearch, "search", "dropout.search")
    tracer.patch(EngineRuntime, "bind", "execution.bind")
    try:
        model, engine, _ = setup_server(size, seed, warm)
    finally:
        tracer.restore()

    untraced_s, untraced_out = 0.0, []
    for batch in batches:
        start = time.perf_counter()
        untraced_out.append(engine.infer_requests(batch))
        untraced_s += time.perf_counter() - start

    current = {"rung": "overhead", "ids": {}}

    def infer_args(requests):
        return {"rung": current["rung"], "rows": len(requests),
                "requests": [current["ids"].get(id(r), -1) for r in requests]}

    attempted, failed = 0, 0
    log = BatchLog(engine)
    try:
        tracer.patch(engine, "infer_requests", "serving.infer", args_fn=infer_args)
        tracer.patch(engine, "infer", "serving.forward")
        for op in BACKEND_OPS:
            if hasattr(engine.backend, op):
                tracer.patch(engine.backend, op, f"backend.{op}")
        traced_s, traced_out = 0.0, []
        for batch in batches:
            start = time.perf_counter()
            traced_out.append(engine.infer_requests(batch))
            traced_s += time.perf_counter() - start
        identical = all(np.array_equal(a, b) for x, y in zip(untraced_out, traced_out)
                        for a, b in zip(x, y))
        attempted += 2 * len(batches)
        failed += int(not identical)

        reports = {}
        with MicroBatcher(engine, max_batch=SHAPES[size]["max_batch"]) as batcher:
            for rung in rungs:
                current["rung"] = rung.name
                current["ids"] = {id(r): i for i, r in enumerate(rung.requests)}
                report, checked, mismatched = _serve_rung(batcher, log, model, rung,
                                                          ladder, verify_rng)
                reports[rung.name] = report
                attempted += report.count + checked
                failed += report.failed + mismatched
    finally:
        tracer.restore()
        log.close()

    metrics = {
        "dropout.search_ms": tracer.total_ms("dropout.search"),
        "execution.bind_ms": tracer.total_ms("execution.bind"),
        "trace.slowdown": traced_s / untraced_s,
        "trace.step_coverage": child_coverage(tracer.spans, "serving.infer"),
    }
    infer_spans = tracer.named("serving.infer")
    for offset, (name, report) in enumerate(reports.items(), start=1):
        spans = [s for s in infer_spans if s.args["rung"] == name]
        waits = []
        for span in spans:
            for rid in span.args["requests"]:
                waits.append(1000.0 * (span.start - report.sent[rid]))
                tracer.record("serving.queue_wait", report.sent[rid], span.start,
                              async_id=offset * 1_000_000 + rid, rung=name, request=rid)
        for rid in map(int, np.flatnonzero(report.ok)):
            tracer.record("request", report.due[rid], report.done[rid],
                          async_id=offset * 1_000_000 + rid, rung=name, request=rid)
        calls = len(spans)
        metrics.update({
            f"serving.infer_ms.{name}": 1000.0 * sum(s.duration for s in spans) / max(calls, 1),
            f"serving.queue_wait_ms.p50.{name}": _pct(waits, 50, 0),
            f"serving.queue_wait_ms.p99.{name}": _pct(waits, 99, 0),
            f"serving.batch_rows_mean.{name}": (sum(s.args["rows"] for s in spans)
                                                / max(calls, 1)),
            f"serving.batches.{name}": float(calls),
            f"loadgen.lag_ms.p99.{name}": _pct(report.lag_ms, 99, 0),
        })
    for op in BACKEND_OPS:
        metrics[f"backend.{op}.ms"] = tracer.total_ms(f"backend.{op}") / max(len(infer_spans), 1)
        metrics[f"backend.{op}.calls"] = len(tracer.named(f"backend.{op}")) / max(len(infer_spans), 1)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"serve_lstm-seed{seed}.trace.json"
    tracer.write_chrome_trace(trace_path)
    return {"attempted": attempted, "failed": failed,
            "checks": {"traced_outputs_bit_identical": identical,
                       "responses_bit_identical": failed == 0},
            "metrics": metrics,
            "details": {"rung_requests": {r.name: len(r.requests) for r in rungs},
                        "spans": len(tracer.spans), "chrome_trace": str(trace_path)}}

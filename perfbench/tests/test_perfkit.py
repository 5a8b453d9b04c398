"""Tests of the benchmark kit: percentile rule, spans, open-loop accounting,
metric catalogue, and a tiny-size smoke run of every workload."""

from __future__ import annotations

import concurrent.futures
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfkit import metrics, stats
from perfkit.openloop import run_open_loop
from perfkit.serving import max_rate
from perfkit.spans import Span, Tracer, child_coverage, chrome_trace, self_times

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q, needed", [(50, 20), (75, 40), (90, 100), (95, 200), (99, 1000)])
def test_min_samples_leaves_ten_beyond(q, needed):
    assert stats.min_samples(q) == needed


def test_percentile_refuses_fewer_than_ten_beyond():
    values = list(range(1, 100))  # 99 samples: p90 would have 9 beyond it
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(values, 90)
    assert stats.percentile(values + [100], 90) == 90


def test_percentile_is_nearest_rank_and_order_free():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50, min_beyond=0) == 3.0
    assert stats.percentile(values, 80, min_beyond=1) == 4.0
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile([], 50, min_beyond=0)


def test_relative_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, q2, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / q2)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("parent", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),     # overlaps a: union [1, 5]
        Span("c", 8.0, 12.0, parent=0),    # clipped to the parent: [8, 10]
        Span("grandchild", 2.5, 4.0, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.5)
    assert selfs[4] == pytest.approx(1.5)
    assert child_coverage(spans, "parent") == pytest.approx(0.6)


def test_tracer_nests_spans_and_restores_patches():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Layer:
        def forward(self, x):
            clock.sleep(2.0)
            return x + 1

    layer = Layer()
    tracer.patch(layer, "forward", "layer.forward",
                 args_fn=lambda x: {"x": x})
    with tracer.span("step", step=7):
        clock.sleep(1.0)
        assert layer.forward(1) == 2
    tracer.restore()
    assert "forward" not in vars(layer)
    step, fwd = tracer.spans
    assert (step.name, step.duration, step.parent, step.args) == ("step", 3.0, -1, {"step": 7})
    assert (fwd.name, fwd.duration, fwd.parent, fwd.args) == ("layer.forward", 2.0, 0, {"x": 1})
    assert self_times(tracer.spans) == [1.0, 2.0]


def test_class_patch_is_restored():
    tracer = Tracer()

    class Slotted:
        __slots__ = ()

        def run(self):
            return 5

    original = Slotted.__dict__["run"]
    tracer.patch(Slotted, "run", "slotted.run")
    assert Slotted().run() == 5
    tracer.restore()
    assert Slotted.__dict__["run"] is original
    assert [s.name for s in tracer.spans] == ["slotted.run"]


def test_chrome_trace_events():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):
        clock.sleep(0.5)
    tracer.record("request", 0.1, 0.4, async_id=3, rung="light")
    events = json.loads(json.dumps(chrome_trace(tracer.spans)))["traceEvents"]
    assert events[0] == {"name": "outer", "ph": "X", "pid": 1, "tid": 1,
                         "ts": 0.0, "dur": 500000.0, "args": {}}
    phases = [(e["ph"], e["id"]) for e in events[1:]]
    assert phases == [("b", 3), ("e", 3)]


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------

def test_open_loop_lag_and_latency_run_from_due_time():
    """A submit that blocks 10 ms against arrivals due every 5 ms: the
    dispatcher falls behind, lag grows by 5 ms per request, and latency from
    the due time charges that lag to every request."""
    clock = FakeClock()

    def submit(request):
        clock.sleep(0.010)
        future = concurrent.futures.Future()
        future.set_result(request * 2)
        return future

    offsets = np.arange(1, 6) * 0.005
    report = run_open_loop(submit, [0, 1, 2, 3, 4], offsets, timeout_s=1.0,
                           clock=clock, sleep=clock.sleep, lead_s=0.0)
    assert report.lag_ms == pytest.approx([0.0, 5.0, 10.0, 15.0, 20.0])
    assert report.latencies_ms == pytest.approx([10.0, 15.0, 20.0, 25.0, 30.0])
    assert report.outputs == [0, 2, 4, 6, 8]
    assert report.failed == 0


def test_open_loop_counts_errors_and_timeouts_as_failed():
    def submit(request):
        future = concurrent.futures.Future()
        if request == 1:
            future.set_exception(ValueError("bad"))
        elif request == 2:
            return future  # never resolves
        else:
            future.set_result(request)
        return future

    report = run_open_loop(submit, [0, 1, 2], np.array([0.0, 0.001, 0.002]),
                           timeout_s=0.05)
    assert report.failed == 2
    assert len(report.latencies_ms) == 1
    assert isinstance(report.errors[2], TimeoutError)


def test_max_rate_interpolates_between_rungs():
    rungs = [(15.0, 50.0, True), (45.0, 150.0, True), (60.0, 350.0, False)]
    assert max_rate(rungs, 250.0) == pytest.approx(45.0 + 15.0 * 0.5)
    assert max_rate([(15.0, 500.0, False)], 250.0) == pytest.approx(7.5)
    assert max_rate([(15.0, 50.0, True), (30.0, 60.0, True)], 250.0) == 30.0


# ----------------------------------------------------------------------
# metric catalogue
# ----------------------------------------------------------------------

def test_metric_names_and_units_are_valid_and_unique():
    names = [m[0] for m in metrics.END_TO_END] + [m[0] for m in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(metrics.valid_name(name) for name in names)
    assert all(metrics.valid_unit(m[1]) for m in metrics.END_TO_END + metrics.PER_LAYER)
    for bad in ("", ".lead", "has space", "x" * 65, "p50/ms", "ünï"):
        assert not metrics.valid_name(bad)


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(metrics.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == {"mlp_train", "lstm_train", "serve_lstm"}
    loosest = max(spec["end_to_end"], key=lambda m: m["bound"])
    assert (loosest["name"], loosest["bound"]) == ("setup_s", 0.25)


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------

def _run(args, cwd, out):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args,
                           "--out", str(out)],
                          cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["mlp_train", "lstm_train", "serve_lstm"])
def test_tiny_smoke_run(workload, trace, tmp_path):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny"], ROOT, tmp_path)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(metrics.units(bool(trace)))
    for name, entry in line["metrics"].items():
        assert entry["unit"] == metrics.units(bool(trace))[name]
        assert np.isfinite(entry["value"])
    if trace:
        trace_file = json.loads((tmp_path / f"{workload}-seed3.trace.json").read_text())
        assert trace_file["traceEvents"]
    else:
        assert all(entry["value"] != 0 for entry in line["metrics"].values())


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(["--workload", "mlp_train", "--seed", "1", "--seconds", "1"],
                tmp_path, tmp_path / "out")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

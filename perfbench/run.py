"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mlp_train --seed 1 --seconds 30 --trace 0

Workloads: ``mlp_train``, ``lstm_train``, ``serve_lstm``.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` is the
separate traced run that reports the per-layer metrics, the tracing overhead
and a Chrome Trace Event file under ``perfbench/out/``.  Human-readable lines
come first (environment, every metric with its unit, details); the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when every
correctness check passed.

The launcher pins the BLAS pool to one thread before numpy is imported, so
runs on hosts with different core counts execute the same kernels.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
WORKLOADS = ("mlp_train", "lstm_train", "serve_lstm")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every model for smoke tests")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for result and Chrome trace files")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(args) -> dict:
    from perfkit import serving, training

    if args.workload == "serve_lstm":
        if args.trace:
            return serving.trace(args.seed, args.seconds, args.out, args.size)
        return serving.run(args.seed, args.seconds, args.size)
    if args.trace:
        return training.trace(args.workload, args.seed, args.seconds, args.out, args.size)
    return training.run(args.workload, args.seed, args.seconds, args.size)


def result_line(outcome: dict, trace: bool) -> tuple[dict, list[str]]:
    """The contract's JSON result and the problems that make it incorrect."""
    from perfkit.metrics import units

    wanted = units(trace)
    measured = outcome["metrics"]
    problems = [f"check {name} failed" for name, ok in outcome["checks"].items() if not ok]
    metrics = {}
    for name, unit in wanted.items():
        if name not in measured and trace:
            # A per-layer metric of a layer this workload never calls.
            measured[name] = 0.0
        value = measured.get(name)
        if value is None or not math.isfinite(value):
            problems.append(f"metric {name} = {value}")
            continue
        metrics[name] = {"value": float(value), "unit": unit}
    failed = outcome["failed"]
    correct = not problems and failed == 0
    return ({"correct": correct, "attempted": int(outcome["attempted"]),
             "failed": int(failed), "metrics": metrics}, problems)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repository package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfkit.envinfo import environment, pin_blas_threads

    pin_blas_threads(BLAS_THREADS)
    env = environment(ROOT)
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    started = time.perf_counter()
    try:
        outcome = run_workload(args)
    except Exception:  # noqa: BLE001 - report the failure, then exit non-zero
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    line, problems = result_line(outcome, bool(args.trace))
    for name, entry in line["metrics"].items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    attempted = max(line["attempted"], 1)
    print(f"{'error_rate':40s} {line['failed'] / attempted:>16.6g} ratio")
    for name, value in outcome["details"].items():
        print(f"# {name} = {json.dumps(value)}")
    for problem in problems:
        print(f"# problem: {problem}")
    args.out.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": env,
              "wall_s": time.perf_counter() - started, "result": line,
              "checks": outcome["checks"], "details": outcome["details"]}
    path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

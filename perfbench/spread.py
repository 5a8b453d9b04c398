"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads mlp_train serve_lstm --seeds 1 2 3 4 5

Each run is ``perfbench/run.py`` for ``run_seconds`` of ``BENCHMARK.json``, in
its own process, one after another.  For
every end-to-end metric the script prints the median over the seeds and the
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  A spread at or above a third of
the bound is flagged.  ``--json PATH`` saves every run's result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from perfkit.stats import relative_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {}
    flagged = 0
    for workload in args.workloads:
        runs = results[workload] = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds))
            print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
        print(f"{workload}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            spread = relative_spread(values) if median else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
                flagged += 1
            print(f"  {name:36s} median {median:12.6g}  spread {spread:7.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

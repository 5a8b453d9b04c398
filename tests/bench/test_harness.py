"""Tier-1 checks of the repository benchmark harness, ``perfbench/``.

``perfbench/tests`` holds the harness's own tests and is not on the tier-1
test paths.  These cases keep the tier-1 suite honest about the calls the
benchmark drives: its CLI contract, one tiny run of each workload through
that CLI, and the engine configuration each training workload asks the
library for.  No timing is asserted: at tiny sizes the timer is noise.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

from perfkit import metrics, training  # noqa: E402

SEED = 3
REQUIRED = ["--seed", "1", "--seconds", "30"]


def load_cli():
    """``perfbench/run.py`` as a module, without putting ``run`` on the path."""
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CLI = load_cli()


def declared_workloads() -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {workload["name"] for workload in spec["workloads"]}


def assert_runnable(workload: str) -> None:
    """The workload is declared, offered by the CLI, and parses."""
    assert workload in declared_workloads()
    assert workload in CLI.WORKLOADS
    assert CLI.parse_args(["--workload", workload, *REQUIRED]).workload == workload


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """Runs a workload once at tiny size through the CLI: (stdout, record)."""
    out = tmp_path_factory.mktemp("perfbench")
    done = {}

    def run(workload):
        if workload not in done:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "0.5", "--size", "tiny",
                 "--out", str(out)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
                check=False)
            assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
            record = json.loads(
                (out / f"{workload}-seed{SEED}-trace0.json").read_text())
            done[workload] = (proc.stdout, record)
        return done[workload]

    return run


@pytest.fixture(scope="module")
def learners():
    """The engine and conventional learners of a training workload, one step in."""
    built = {}

    def build(kind):
        if kind not in built:
            data = training.make_data(kind, "tiny", SEED)
            pair = []
            for engine in (True, False):
                learner = training.Learner(kind, "tiny", SEED, engine, data)
                learner.train_step(learner.next_batch())
                pair.append(learner.runtime.stats())
            built[kind] = tuple(pair)
        return built[kind]

    return build


class TestBenchmarkConfig:
    def test_validation(self):
        for argv in (["--workload", "bogus", *REQUIRED],
                     ["--workload", "mlp_train", "--seed", "1", "--seconds", "0"],
                     ["--workload", "mlp_train", *REQUIRED, "--trace", "2"],
                     ["--workload", "mlp_train", *REQUIRED, "--size", "huge"],
                     REQUIRED):
            with pytest.raises(SystemExit) as excinfo:
                CLI.parse_args(argv)
            assert excinfo.value.code == 2  # argparse usage error


class TestCLI:
    def test_parse_args_defaults(self):
        args = CLI.parse_args(["--workload", "mlp_train", *REQUIRED])
        assert args.trace == 0  # end-to-end metrics, tracing off
        assert args.size == "full"
        assert args.out == BENCH / "out"

    def test_quick_end_to_end(self, tiny_run):
        stdout, _ = tiny_run("mlp_train")
        lines = stdout.strip().splitlines()
        line = json.loads(lines[-1])
        assert line["correct"] is True and line["failed"] == 0
        assert any(text.startswith("speedup_x") for text in lines)


class TestReport:
    def test_report_written_and_parseable(self, tiny_run):
        stdout, record = tiny_run("mlp_train")
        assert {"workload", "seed", "size", "env", "wall_s", "result",
                "checks", "details"} <= set(record)
        assert (record["workload"], record["size"]) == ("mlp_train", "tiny")
        assert record["result"] == json.loads(stdout.strip().splitlines()[-1])
        assert set(record["result"]["metrics"]) == set(metrics.units(False))


class TestE2EFamily:
    """The two training workloads: engine against conventional dropout."""

    def test_e2e_family_produces_mlp_and_lstm_cases(self, tiny_run):
        for workload, quality in (("mlp_train", "test_accuracy"),
                                  ("lstm_train", "valid_perplexity")):
            _, record = tiny_run(workload)
            assert record["checks"] == {"model_learned": True}
            assert record["result"]["metrics"]["speedup_x"]["value"] > 0
            details = record["details"]
            assert details["engine_steps_timed"] > 0
            assert details["conventional_steps_timed"] > 0
            assert quality in details

    def test_e2e_in_default_families_and_cli(self):
        assert_runnable("mlp_train")
        assert_runnable("lstm_train")


class TestServeFamily:
    """The serving workload: the LSTM behind InferenceEngine and MicroBatcher."""

    def test_in_family_registry_defaults_and_cli(self):
        assert_runnable("serve_lstm")

    def test_cases_run_and_record_load_reports(self, tiny_run):
        _, record = tiny_run("serve_lstm")
        assert record["checks"] == {"responses_bit_identical": True}
        assert record["result"]["failed"] == 0
        rungs = {row["rung"]: row for row in record["details"]["rungs"]}
        assert {"light", "heavy"} <= set(rungs)
        for row in rungs.values():
            assert row["sent"] > 0 and row["failed"] == 0
            assert row["p90_ms"] >= row["p50_ms"] >= 0
        assert record["details"]["p50_ms_light"] > 0


class TestOptimizerToggle:
    def test_e2e_config_records_optimizer(self, learners):
        for kind in ("mlp", "lstm"):
            engine, conventional = learners(kind)
            assert engine["optimizer"]["kind"] == "sparse"
            assert engine["optimizer"]["sparse_updates"] > 0
            assert conventional["optimizer"]["kind"] == "dense"
            assert conventional["optimizer"]["sparse_updates"] == 0


class TestLstmRecFamily:
    def test_e2e_config_records_recurrent(self, learners):
        engine, conventional = learners("lstm")
        assert engine["recurrent"] == "tiled"
        # The tiled recurrent projection runs as per-window context GEMMs.
        assert engine["backend_calls"].get("context_forward", 0) > 0
        assert conventional["recurrent"] == "dense"
        assert conventional["backend_calls"].get("context_forward", 0) == 0


class TestHeadFamily:
    def test_e2e_config_records_loss_head(self, learners):
        engine, conventional = learners("lstm")
        assert engine["loss_head"]["kind"] == "adaptive"
        assert engine["loss_head"]["cluster_activations"] > 0
        assert conventional["loss_head"]["kind"] == "dense"
        assert conventional["loss_head"]["draws"] == 0

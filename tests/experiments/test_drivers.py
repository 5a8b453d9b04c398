"""Smoke + shape tests for the experiment drivers (paper tables and figures)."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentTable,
    run_algorithm1,
    run_fig1b,
    run_fig4,
    run_fig5,
    run_fig6a,
    run_fig6b,
    run_table1,
    run_table2,
)
from repro.experiments.common import ReducedScale, mlp_speedup, lstm_speedup, timing_mode_for
from repro.experiments.fig5 import curves


@pytest.fixture(scope="module")
def smoke_scale():
    return ReducedScale.smoke()


class TestExperimentTable:
    def test_add_row_and_format(self):
        table = ExperimentTable(name="t", description="d", columns=["a", "b"])
        table.add_row("case1", {"a": 1.0, "b": 2.0}, paper={"a": 1.1})
        text = table.format()
        assert "case1" in text and "paper 1.100" in text
        assert table.column("a") == [1.0]
        assert len(table) == 1
        assert table.to_dict()["rows"][0]["label"] == "case1"


class TestCommonHelpers:
    def test_mlp_speedup_above_one(self):
        assert mlp_speedup((2048, 2048), (0.5, 0.5), "row") > 1.0

    def test_lstm_speedup_above_one(self):
        assert lstm_speedup(8800, 1500, 2, (0.5, 0.5), "row") > 1.0

    def test_timing_mode_mapping(self):
        assert timing_mode_for("ROW") == "row"
        assert timing_mode_for("original") == "baseline"
        with pytest.raises(KeyError):
            timing_mode_for("bogus")


class TestFig1b:
    def test_naive_skip_never_helps_and_row_does(self):
        table = run_fig1b()
        for row in table.rows:
            assert row.values["naive_iteration_speedup"] < 1.1
            assert row.values["row_iteration_speedup"] > 1.1
            assert row.values["row_iteration_speedup"] <= row.values["ideal_speedup"]


class TestAlgorithm1Driver:
    def test_rates_match_targets(self):
        table = run_algorithm1(monte_carlo_iterations=300, rates=(0.3, 0.5, 0.7))
        for row in table.rows:
            assert row.values["rate_error"] < 0.03
            assert row.values["unit_rate_error"] < 0.08
            assert row.values["effective_sub_models"] > 1.0


class TestSpeedupOnlyTables:
    def test_table1_speedup_trend(self):
        table = run_table1(train_accuracy=False)
        row_speedups = [row.values["speedup"] for row in table.rows if "ROW" in row.label]
        assert row_speedups == sorted(row_speedups)
        assert row_speedups[-1] > 1.7

    def test_fig4_speedup_trend(self):
        table = run_fig4(pattern="ROW", train_accuracy=False)
        first = table.rows[0].values["speedup"]   # (0.3, 0.3)
        last = table.rows[-1].values["speedup"]   # (0.7, 0.7)
        assert last > first > 1.0

    def test_fig4_rejects_unknown_pattern(self):
        with pytest.raises(ValueError):
            run_fig4(pattern="DIAGONAL")

    def test_table2_speedup_trend(self):
        table = run_table2(train_accuracy=False)
        row_speedups = [row.values["speedup"] for row in table.rows if "ROW" in row.label]
        assert row_speedups == sorted(row_speedups)

    def test_fig6a_speedup_trend(self):
        table = run_fig6a(train_perplexity=False)
        speedups = table.column("speedup")
        assert speedups == sorted(speedups)

    def test_fig6b_speedup_increases_with_batch(self):
        table = run_fig6b(train_perplexity=False)
        speedups = table.column("speedup")
        assert speedups == sorted(speedups)


class TestTrainedDrivers:
    """Drivers that actually train, run at smoke scale (coarse sanity only)."""

    def test_fig4_with_accuracy(self, smoke_scale):
        table = run_fig4(pattern="ROW", scale=smoke_scale, rate_pairs=((0.5, 0.5),))
        row = table.rows[0]
        assert 0.0 <= row.values["pattern_accuracy"] <= 1.0
        assert 0.0 <= row.values["baseline_accuracy"] <= 1.0

    def test_table2_with_accuracy(self, smoke_scale):
        table = run_table2(scale=smoke_scale, rates=(0.5,), patterns=("ROW",))
        row = table.rows[0]
        assert 0.0 <= row.values["pattern_accuracy"] <= 1.0

    def test_fig5_curves(self, smoke_scale):
        table = run_fig5(scale=smoke_scale)
        series = curves(table)
        assert set(series) == {"baseline", "row_dropout_pattern"}
        for points in series.values():
            assert len(points) >= 1
            assert all(time > 0 for time, _ in points)


# ----------------------------------------------------------------------
# ExecutionConfig integration: every driver under every engine mode
# ----------------------------------------------------------------------

from repro.execution import ExecutionConfig  # noqa: E402

ENGINE_MODES = ("masked", "pooled")

#: Smaller than ReducedScale.smoke(): the mode matrix trains each driver once
#: per mode, so the per-run cost must stay tiny.
TINY_SCALE = ReducedScale(
    mlp_hidden=32, mlp_train_samples=256, mlp_test_samples=128, mlp_epochs=1,
    mlp_batch_size=64, lstm_vocab=60, lstm_hidden=16, lstm_train_tokens=800,
    lstm_eval_tokens=300, lstm_epochs=1, lstm_batch_size=5, lstm_seq_len=8)


def _driver_matrix(execution: ExecutionConfig) -> dict:
    """Run every driver once at tiny scale under one execution config."""
    return {
        "table1": run_table1(scale=TINY_SCALE, network_sizes=((1024, 64),),
                             patterns=("ROW",), execution=execution),
        "table2": run_table2(scale=TINY_SCALE, rates=(0.5,), patterns=("ROW",),
                             execution=execution),
        "fig4": run_fig4(pattern="ROW", scale=TINY_SCALE,
                         rate_pairs=((0.5, 0.5),), execution=execution),
        "fig5": run_fig5(scale=TINY_SCALE, execution=execution),
        "fig6a": run_fig6a(scale=TINY_SCALE, rates=(0.5,), execution=execution),
        "fig6b": run_fig6b(scale=TINY_SCALE, batch_sizes=(20,),
                           execution=execution),
        "fig1b": run_fig1b(rates=(0.5,), execution=execution),
        "algorithm1": run_algorithm1(monte_carlo_iterations=100, rates=(0.5,),
                                     execution=execution),
    }


@pytest.fixture(scope="module")
def mode_matrix():
    return {mode: _driver_matrix(ExecutionConfig(mode=mode, seed=0))
            for mode in ENGINE_MODES}


class TestDriversAcrossEngineModes:
    """Satellite: every driver runs under every engine mode with identical
    row labels and columns, and engine stats land in the records."""

    def test_identical_labels_and_columns_across_modes(self, mode_matrix):
        reference = mode_matrix[ENGINE_MODES[0]]
        for mode in ENGINE_MODES[1:]:
            tables = mode_matrix[mode]
            assert set(tables) == set(reference)
            for driver, table in tables.items():
                assert table.columns == reference[driver].columns, driver
                assert ([row.label for row in table.rows]
                        == [row.label for row in reference[driver].rows]), driver

    def test_engine_stats_present_in_every_table(self, mode_matrix):
        for mode, tables in mode_matrix.items():
            for driver, table in tables.items():
                assert table.engine, f"{driver} has no engine record under {mode}"
                assert table.engine["mode"] == mode
                assert "tile_plan_cache" in table.engine
                assert "workspace" in table.engine

    def test_pooled_mode_actually_pools(self, mode_matrix):
        pooled = mode_matrix["pooled"]
        assert pooled["table1"].engine["pools"]["consumed"] > 0
        assert mode_matrix["masked"]["table1"].engine["pools"]["consumed"] == 0

    def test_engine_stats_printed_in_format(self, mode_matrix):
        text = mode_matrix["pooled"]["table1"].format()
        assert "engine:" in text
        assert "tile-plan cache" in text

    def test_trained_rows_carry_engine_records(self, mode_matrix):
        table = mode_matrix["pooled"]["table1"]
        assert any(row.engine for row in table.rows)
        assert mode_matrix["pooled"]["table1"].to_dict()["engine"]


class TestPooledFloat32Drivers:
    """Acceptance: drivers run under ExecutionConfig(mode='pooled', dtype='float32')."""

    def test_mlp_and_lstm_drivers_run_float32(self):
        execution = ExecutionConfig(mode="pooled", dtype="float32", seed=0)
        table1 = run_table1(scale=TINY_SCALE, network_sizes=((1024, 64),),
                            patterns=("ROW",), execution=execution)
        table2 = run_table2(scale=TINY_SCALE, rates=(0.5,), patterns=("ROW",),
                            execution=execution)
        for table in (table1, table2):
            assert table.engine["dtype"] == "float32"
            for row in table.rows:
                accuracy = row.values.get("pattern_accuracy")
                assert accuracy is not None and 0.0 <= accuracy <= 1.0

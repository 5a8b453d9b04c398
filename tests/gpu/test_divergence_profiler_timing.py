"""Tests for the divergence model, profiler and the MLP/LSTM timing models."""

import pytest

from repro.gpu import (
    DivergenceModel,
    DropoutTimingConfig,
    GTX_1080TI,
    IterationTimer,
    KernelCost,
    KernelTrace,
    LSTMTimingModel,
    MLPTimingModel,
    naive_branch_skip_speedup,
)


class TestDivergenceModel:
    def test_random_mask_gives_no_speedup(self):
        model = DivergenceModel(GTX_1080TI)
        for rate in (0.3, 0.5, 0.7):
            estimate = model.random_mask(rate)
            assert estimate.expected_speedup < 1.05
            assert estimate.fully_dropped_warp_fraction == pytest.approx(rate ** 32)

    def test_regular_mask_achieves_ideal(self):
        model = DivergenceModel(GTX_1080TI)
        estimate = model.regular_mask(0.5)
        assert estimate.expected_speedup == pytest.approx(2.0)
        assert estimate.expected_speedup == pytest.approx(estimate.ideal_speedup)

    def test_efficiency_ratio(self):
        estimate = DivergenceModel(GTX_1080TI).random_mask(0.5)
        assert estimate.efficiency < 0.55

    def test_empirical_matches_analytic_at_high_rate(self, rng):
        model = DivergenceModel(GTX_1080TI)
        analytic = model.random_mask(0.9)
        empirical = model.empirical_random_mask(0.9, num_threads=320_000, rng=rng)
        assert abs(empirical.fully_dropped_warp_fraction
                   - analytic.fully_dropped_warp_fraction) < 0.01

    def test_validation(self):
        model = DivergenceModel(GTX_1080TI)
        with pytest.raises(ValueError):
            model.random_mask(1.0)
        with pytest.raises(ValueError):
            model.empirical_random_mask(0.5, num_threads=0)
        with pytest.raises(ValueError):
            DivergenceModel(GTX_1080TI, branch_overhead=-1)

    def test_convenience_wrapper(self):
        assert naive_branch_skip_speedup(GTX_1080TI, 0.5) < 1.05


class TestKernelTraceAndTimer:
    def test_totals_and_breakdown(self):
        trace = KernelTrace(label="test")
        trace.add(KernelCost("a", flops=10, global_bytes=100, time_ms=1.0, category="gemm"))
        trace.add(KernelCost("b", flops=20, global_bytes=200, time_ms=2.0, category="dropout"))
        assert trace.total_time_ms == pytest.approx(3.0)
        assert trace.total_flops == pytest.approx(30)
        assert trace.num_kernels == 2
        assert trace.time_by_category() == {"gemm": 1.0, "dropout": 2.0}
        assert trace.time_by_name()["a"] == 1.0
        assert "test" in trace.summary()

    def test_scaled_trace(self):
        trace = KernelTrace().add(KernelCost("a", time_ms=1.0))
        assert trace.scaled(10).total_time_ms == pytest.approx(10.0)

    def test_iteration_timer(self):
        baseline = KernelTrace().add(KernelCost("a", time_ms=4.0))
        accelerated = KernelTrace().add(KernelCost("a", time_ms=2.0))
        timer = IterationTimer(baseline, accelerated)
        assert timer.speedup == pytest.approx(2.0)
        assert timer.time_saved_fraction == pytest.approx(0.5)
        assert "speedup" in timer.report()

    def test_iteration_timer_zero_time(self):
        with pytest.raises(ZeroDivisionError):
            IterationTimer(KernelTrace().add(KernelCost("a", time_ms=1.0)),
                           KernelTrace()).speedup


class TestDropoutTimingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DropoutTimingConfig(mode="bogus")
        with pytest.raises(ValueError):
            DropoutTimingConfig(mode="row", rates=(1.5,))

    def test_keep_and_rate(self):
        config = DropoutTimingConfig(mode="row", rates=(0.3, 0.7))
        assert config.keep(0) == pytest.approx(0.7)
        assert config.keep(1) == pytest.approx(0.3)
        assert config.keep(5) == 1.0
        assert config.rate(-1) == 0.0
        assert DropoutTimingConfig(mode="none", rates=(0.5,)).keep(0) == 1.0


class TestMLPTimingModel:
    PAPER = [784, 2048, 2048, 10]

    def test_validation(self):
        with pytest.raises(ValueError):
            MLPTimingModel([784], 128)
        with pytest.raises(ValueError):
            MLPTimingModel([784, 10], 0)
        with pytest.raises(ValueError):
            MLPTimingModel([784, 10], 128, framework_overhead_ms=-1)
        with pytest.raises(ValueError):
            MLPTimingModel([784, 10], 128, tile_gemm_inefficiency=0.5)

    def test_baseline_has_dropout_kernels_and_row_does_not(self):
        model = MLPTimingModel(self.PAPER, 128)
        baseline = model.iteration(DropoutTimingConfig("baseline", (0.5, 0.5)))
        row = model.iteration(DropoutTimingConfig("row", (0.5, 0.5)))
        assert baseline.trace.time_by_category().get("dropout", 0) > 0
        row_dropout_time = row.trace.time_by_category().get("dropout", 0)
        assert row_dropout_time < baseline.trace.time_by_category()["dropout"]

    def test_speedup_increases_with_rate(self):
        model = MLPTimingModel(self.PAPER, 128)
        speedups = [model.speedup(DropoutTimingConfig("row", (rate, rate)))
                    for rate in (0.3, 0.5, 0.7)]
        assert speedups == sorted(speedups)
        assert speedups[0] > 1.05

    def test_speedup_increases_with_network_size(self):
        speedups = []
        for hidden in (1024, 2048, 4096):
            model = MLPTimingModel([784, hidden, hidden, 10], 128)
            speedups.append(model.speedup(DropoutTimingConfig("row", (0.7, 0.7))))
        assert speedups == sorted(speedups)

    def test_row_speedup_at_least_tile(self):
        model = MLPTimingModel(self.PAPER, 128)
        row = model.speedup(DropoutTimingConfig("row", (0.7, 0.7)))
        tile = model.speedup(DropoutTimingConfig("tile", (0.7, 0.7)))
        assert row >= tile > 1.0

    def test_matches_paper_table1_band(self):
        """The Table I headline numbers are matched within a loose tolerance."""
        paper = {(1024, 64): 1.27, (1024, 1024): 1.45, (2048, 2048): 1.77,
                 (4096, 4096): 2.16}
        for (h1, h2), expected in paper.items():
            model = MLPTimingModel([784, h1, h2, 10], 128)
            speedup = model.speedup(DropoutTimingConfig("row", (0.7, 0.7)))
            assert abs(speedup - expected) / expected < 0.2

    def test_naive_skip_no_speedup(self):
        model = MLPTimingModel(self.PAPER, 128)
        naive = model.speedup(DropoutTimingConfig("naive_skip", (0.7, 0.7)))
        assert 0.9 < naive < 1.1

    def test_none_mode_faster_than_baseline(self):
        model = MLPTimingModel(self.PAPER, 128)
        baseline = model.iteration(DropoutTimingConfig("baseline", (0.5, 0.5)))
        none = model.iteration(DropoutTimingConfig("none", (0.5, 0.5)))
        assert none.iteration_time_ms < baseline.iteration_time_ms

    def test_epoch_time(self):
        model = MLPTimingModel(self.PAPER, 128)
        estimate = model.iteration(DropoutTimingConfig("baseline", (0.5, 0.5)))
        assert estimate.epoch_time_ms(100) == pytest.approx(100 * estimate.iteration_time_ms)


class TestLSTMTimingModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            LSTMTimingModel(0, 10, 10, 1, 1, 1)

    def test_speedup_increases_with_rate(self):
        model = LSTMTimingModel(8800, 1500, 1500, 2, 20, 35)
        speedups = [model.speedup(DropoutTimingConfig("row", (rate, rate)))
                    for rate in (0.3, 0.5, 0.7)]
        assert speedups == sorted(speedups)
        assert 1.05 < speedups[0] < speedups[-1] < 2.0

    def test_lstm_speedup_below_mlp_at_same_rate(self):
        lstm = LSTMTimingModel(8800, 1500, 1500, 2, 20, 35)
        mlp = MLPTimingModel([784, 2048, 2048, 10], 128)
        assert (lstm.speedup(DropoutTimingConfig("row", (0.7, 0.7)))
                < mlp.speedup(DropoutTimingConfig("row", (0.7, 0.7))))

    def test_speedup_increases_with_batch_size(self):
        speedups = []
        for batch in (20, 30, 40):
            model = LSTMTimingModel(10000, 1500, 1500, 3, batch, 35)
            speedups.append(model.speedup(DropoutTimingConfig("row", (0.7,) * 3)))
        assert speedups == sorted(speedups)

    def test_row_at_least_tile(self):
        model = LSTMTimingModel(8800, 1500, 1500, 2, 20, 35)
        row = model.speedup(DropoutTimingConfig("row", (0.5, 0.5)))
        tile = model.speedup(DropoutTimingConfig("tile", (0.5, 0.5)))
        assert row >= tile > 1.0

    def test_matches_paper_table2_band(self):
        model = LSTMTimingModel(8800, 1500, 1500, 2, 20, 35)
        paper = {0.3: 1.18, 0.5: 1.47, 0.7: 1.53}
        for rate, expected in paper.items():
            speedup = model.speedup(DropoutTimingConfig("row", (rate, rate)))
            assert abs(speedup - expected) / expected < 0.2

    def test_baseline_includes_dropout_kernels(self):
        model = LSTMTimingModel(1000, 200, 200, 2, 10, 10)
        baseline = model.iteration(DropoutTimingConfig("baseline", (0.5, 0.5)))
        assert baseline.trace.time_by_category().get("dropout", 0) > 0

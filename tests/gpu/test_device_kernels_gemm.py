"""Tests for the GPU device spec, kernel cost models and the GEMM cost model."""

import pytest

from repro.dropout import RowDropoutPattern, TileDropoutPattern
from repro.gpu import GTX_1080TI, SMALL_GPU, DeviceSpec, GemmCostModel, GemmShape
from repro.gpu.kernels import (
    data_transfer_cost,
    elementwise_kernel_cost,
    mask_apply_kernel_cost,
    optimizer_update_cost,
    pattern_bookkeeping_cost,
    rng_mask_kernel_cost,
)


class TestDeviceSpec:
    def test_presets_are_sane(self):
        assert GTX_1080TI.peak_flops > 1e13  # ~11 TFLOP/s
        assert GTX_1080TI.shared_mem_banks == 32
        assert GTX_1080TI.shared_mem_per_block_kb == 48
        assert SMALL_GPU.peak_flops < GTX_1080TI.peak_flops

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec(name="bad", num_sms=0, cores_per_sm=128, clock_ghz=1.0)
        with pytest.raises(ValueError):
            DeviceSpec(name="bad", num_sms=4, cores_per_sm=128, clock_ghz=1.0,
                       gemm_efficiency=1.5)

    def test_occupancy_derate_monotone(self):
        device = GTX_1080TI
        low = device.occupancy_derate(1)
        mid = device.occupancy_derate(device.num_sms)
        high = device.occupancy_derate(100 * device.num_sms)
        assert low < mid <= high == 1.0

    def test_derived_bandwidths(self):
        assert GTX_1080TI.effective_bandwidth_bytes < GTX_1080TI.global_bandwidth_bytes
        assert GTX_1080TI.kernel_launch_overhead_ms == pytest.approx(0.005)


class TestElementwiseKernels:
    def test_time_scales_with_elements(self):
        small = elementwise_kernel_cost(GTX_1080TI, 10_000)
        large = elementwise_kernel_cost(GTX_1080TI, 100_000_000)
        assert large.time_ms > small.time_ms
        assert large.global_bytes == 100_000_000 * 2 * 4

    def test_launch_overhead_floor(self):
        tiny = elementwise_kernel_cost(GTX_1080TI, 1)
        assert tiny.time_ms >= GTX_1080TI.kernel_launch_overhead_ms

    def test_negative_elements_rejected(self):
        with pytest.raises(ValueError):
            elementwise_kernel_cost(GTX_1080TI, -1)

    def test_rng_mask_is_dropout_category(self):
        cost = rng_mask_kernel_cost(GTX_1080TI, 1_000_000)
        assert cost.category == "dropout"
        assert cost.flops == 20_000_000

    def test_mask_apply_cost(self):
        cost = mask_apply_kernel_cost(GTX_1080TI, 1_000_000)
        assert cost.category == "dropout"
        assert cost.global_bytes == 1_000_000 * 3 * 4

    def test_optimizer_update_scales_with_passes(self):
        one = optimizer_update_cost(GTX_1080TI, 10_000_000, solver_passes=1)
        three = optimizer_update_cost(GTX_1080TI, 10_000_000, solver_passes=3)
        assert three.global_bytes == pytest.approx(3 * one.global_bytes)
        with pytest.raises(ValueError):
            optimizer_update_cost(GTX_1080TI, 100, solver_passes=0)

    def test_momentum_increases_update_traffic(self):
        with_momentum = optimizer_update_cost(GTX_1080TI, 1_000_000, momentum=True)
        without = optimizer_update_cost(GTX_1080TI, 1_000_000, momentum=False)
        assert with_momentum.global_bytes > without.global_bytes

    def test_data_transfer(self):
        cost = data_transfer_cost(GTX_1080TI, 784 * 128)
        assert cost.category == "transfer"
        assert cost.time_ms > 0
        with pytest.raises(ValueError):
            data_transfer_cost(GTX_1080TI, -5)

    def test_kernel_cost_scaled(self):
        cost = elementwise_kernel_cost(GTX_1080TI, 1000)
        doubled = cost.scaled(2.0)
        assert doubled.time_ms == pytest.approx(2 * cost.time_ms)
        assert doubled.flops == pytest.approx(2 * cost.flops)

    def test_pattern_bookkeeping_small(self):
        cost = pattern_bookkeeping_cost(GTX_1080TI, 64)
        gemm = GemmCostModel(GTX_1080TI).dense(GemmShape(2048, 128, 2048))
        assert cost.time_ms < gemm.time_ms


class TestGemmShape:
    def test_flops(self):
        assert GemmShape(4, 5, 6).flops == 2 * 4 * 5 * 6

    def test_validation(self):
        with pytest.raises(ValueError):
            GemmShape(0, 4, 4)

    def test_scaled_dims_never_zero(self):
        shape = GemmShape(10, 10, 10)
        assert shape.scaled_rows(0.001).m == 1
        assert shape.scaled_inner(0.001).k == 1


class TestGemmCostModel:
    def test_dense_cost_scales_with_size(self):
        model = GemmCostModel(GTX_1080TI)
        small = model.dense(GemmShape(256, 128, 256))
        large = model.dense(GemmShape(4096, 128, 4096))
        assert large.time_ms > small.time_ms
        assert large.flops > small.flops

    def test_row_compact_cheaper_than_dense(self):
        model = GemmCostModel(GTX_1080TI)
        shape = GemmShape(2048, 128, 2048)
        dense = model.dense(shape)
        pattern = RowDropoutPattern(2048, dp=4, bias=0)
        compact = model.row_compact(shape, pattern)
        assert compact.time_ms < dense.time_ms
        assert compact.flops < dense.flops

    def test_row_compact_with_input_pattern_cheaper_still(self):
        model = GemmCostModel(GTX_1080TI)
        shape = GemmShape(2048, 128, 2048)
        pattern = RowDropoutPattern(2048, dp=4, bias=0)
        input_pattern = RowDropoutPattern(2048, dp=4, bias=0)
        single = model.row_compact(shape, pattern)
        double = model.row_compact(shape, pattern, input_pattern=input_pattern)
        assert double.time_ms < single.time_ms

    def test_tile_compact_cheaper_than_dense(self):
        model = GemmCostModel(GTX_1080TI)
        shape = GemmShape(2048, 128, 2048)
        pattern = TileDropoutPattern(rows=2048, cols=2048, dp=4, bias=0, tile=32)
        assert model.tile_compact(shape, pattern).time_ms < model.dense(shape).time_ms

    def test_tile_compact_requires_matching_pattern(self):
        model = GemmCostModel(GTX_1080TI)
        with pytest.raises(ValueError):
            model.tile_compact(GemmShape(64, 16, 64),
                               TileDropoutPattern(rows=32, cols=32, dp=2, bias=0))

    def test_naive_branch_skip_gives_no_speedup(self):
        model = GemmCostModel(GTX_1080TI)
        shape = GemmShape(2048, 128, 2048)
        dense = model.dense(shape)
        for rate in (0.3, 0.5, 0.7):
            naive = model.naive_branch_skip(shape, rate)
            assert naive.time_ms > 0.9 * dense.time_ms

    def test_naive_branch_skip_validates_rate(self):
        with pytest.raises(ValueError):
            GemmCostModel(GTX_1080TI).naive_branch_skip(GemmShape(8, 8, 8), 1.0)

    def test_invalid_tile(self):
        with pytest.raises(ValueError):
            GemmCostModel(GTX_1080TI, tile=0)
        with pytest.raises(ValueError):
            GemmCostModel(GTX_1080TI, traffic_tile=0)

    def test_small_gpu_slower_than_1080ti(self):
        shape = GemmShape(1024, 128, 1024)
        fast = GemmCostModel(GTX_1080TI).dense(shape)
        slow = GemmCostModel(SMALL_GPU).dense(shape)
        assert slow.time_ms > fast.time_ms

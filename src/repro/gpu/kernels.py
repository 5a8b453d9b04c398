"""Cost records and non-GEMM kernel models.

Every modelled kernel produces a :class:`KernelCost` record with its FLOP
count, global-memory traffic and estimated execution time.  The helpers here
cover the kernels a training iteration launches besides the GEMMs:

* elementwise kernels (activation functions, bias add, elementwise dropout
  mask application),
* the random-number-generation kernel that produces the Bernoulli mask for
  conventional dropout (this kernel disappears entirely under approximate
  random dropout — "skip the dropout layer computing"),
* the optimizer update kernel (reads weight/gradient/velocity, writes
  weight/velocity — *not* reduced by dropout, which is one reason measured
  speedups are far below the raw GEMM reduction),
* host-to-device data transfer of the input batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceSpec


@dataclass
class KernelCost:
    """Cost of one kernel launch.

    Attributes
    ----------
    name:
        Kernel identifier (used by the profiler breakdowns).
    flops:
        Floating-point operations executed.
    global_bytes:
        Bytes moved to/from global memory (DRAM).
    time_ms:
        Modelled execution time in milliseconds, including launch overhead.
    category:
        Coarse grouping used for reports: ``"gemm"``, ``"elementwise"``,
        ``"dropout"``, ``"optimizer"``, ``"transfer"`` or ``"overhead"``.
    """

    name: str
    flops: float = 0.0
    global_bytes: float = 0.0
    time_ms: float = 0.0
    category: str = "elementwise"

    def scaled(self, factor: float, name: str | None = None) -> "KernelCost":
        """A copy with all magnitudes multiplied by ``factor``."""
        return KernelCost(
            name=name or self.name,
            flops=self.flops * factor,
            global_bytes=self.global_bytes * factor,
            time_ms=self.time_ms * factor,
            category=self.category,
        )


def elementwise_kernel_cost(device: DeviceSpec, num_elements: int,
                            reads_per_element: int = 1,
                            writes_per_element: int = 1,
                            flops_per_element: int = 1,
                            name: str = "elementwise") -> KernelCost:
    """Bandwidth-bound elementwise kernel (activation, mask multiply, bias add)."""
    if num_elements < 0:
        raise ValueError("num_elements must be non-negative")
    bytes_moved = num_elements * (reads_per_element + writes_per_element) * device.dtype_bytes
    flops = float(num_elements * flops_per_element)
    bandwidth_time = bytes_moved / device.effective_bandwidth_bytes * 1e3
    compute_time = flops / device.peak_flops * 1e3
    time_ms = max(bandwidth_time, compute_time) + device.kernel_launch_overhead_ms
    return KernelCost(name=name, flops=flops, global_bytes=bytes_moved,
                      time_ms=time_ms, category="elementwise")


def rng_mask_kernel_cost(device: DeviceSpec, num_elements: int,
                         name: str = "dropout_rng_mask") -> KernelCost:
    """Bernoulli mask generation for conventional dropout.

    Generating one pseudo-random number per element costs roughly 20 simple
    ops (Philox/XORWOW state update plus comparison), and the mask is written
    out to global memory so the separate mask-multiply kernel can consume it —
    the Fig. 1(a) data flow.
    """
    cost = elementwise_kernel_cost(
        device, num_elements, reads_per_element=0, writes_per_element=1,
        flops_per_element=20, name=name)
    cost.category = "dropout"
    return cost


def mask_apply_kernel_cost(device: DeviceSpec, num_elements: int,
                           name: str = "dropout_mask_apply") -> KernelCost:
    """Elementwise multiply of the output matrix by the 0/1 mask (Fig. 1(a))."""
    cost = elementwise_kernel_cost(
        device, num_elements, reads_per_element=2, writes_per_element=1,
        flops_per_element=1, name=name)
    cost.category = "dropout"
    return cost


def optimizer_update_cost(device: DeviceSpec, num_parameters: int,
                          momentum: bool = True, solver_passes: int = 1,
                          name: str = "sgd_update") -> KernelCost:
    """SGD (+momentum) parameter update.

    Reads weight, gradient and (optionally) velocity; writes weight and
    velocity.  Dropout does not shrink this kernel: every weight is updated
    every iteration regardless of the sampled pattern, which is part of the
    fixed per-iteration cost limiting the end-to-end speedup.

    ``solver_passes`` models solvers (like Caffe's) that touch the full
    parameter set several times per iteration — separate kernels for gradient
    scaling, weight-decay regularisation, momentum update and the weight
    write-back — rather than one fused update.
    """
    if solver_passes < 1:
        raise ValueError("solver_passes must be >= 1")
    reads = 3 if momentum else 2
    writes = 2 if momentum else 1
    cost = elementwise_kernel_cost(
        device, num_parameters, reads_per_element=reads * solver_passes,
        writes_per_element=writes * solver_passes,
        flops_per_element=(4 if momentum else 2) * solver_passes, name=name)
    cost.category = "optimizer"
    return cost


def data_transfer_cost(device: DeviceSpec, num_elements: int,
                       pcie_bandwidth_gbps: float = 12.0,
                       name: str = "h2d_transfer") -> KernelCost:
    """Host-to-device copy of the input batch over PCIe."""
    if num_elements < 0:
        raise ValueError("num_elements must be non-negative")
    bytes_moved = num_elements * device.dtype_bytes
    time_ms = bytes_moved / (pcie_bandwidth_gbps * 1e9) * 1e3 + device.kernel_launch_overhead_ms
    return KernelCost(name=name, flops=0.0, global_bytes=bytes_moved,
                      time_ms=time_ms, category="transfer")


def pattern_bookkeeping_cost(device: DeviceSpec, num_kept_units: int,
                             name: str = "pattern_index_setup") -> KernelCost:
    """Index computation for the compact layout of approximate dropout.

    The paper notes a "little slowdown ... induced by the calculation of the
    nonzero positions in the output matrix before matrix multiplication" for
    TDP; RDP has the same bookkeeping at row granularity (much cheaper).  The
    cost is a tiny kernel computing the scatter offsets of the kept rows/tiles.
    """
    cost = elementwise_kernel_cost(
        device, max(num_kept_units, 1), reads_per_element=1, writes_per_element=1,
        flops_per_element=4, name=name)
    cost.category = "dropout"
    return cost

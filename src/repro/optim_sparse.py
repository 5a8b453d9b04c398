"""Pattern-aware sparse SGD driven by the compact engine's dirty regions.

The compact ops never produce dense gradients: every full-size gradient array
is a zero-filled buffer plus a handful of compact scatters, and the dirty
tracker (:mod:`repro.tensor.dirty`) records exactly which rows/columns those
scatters touched.  :class:`SparseSGD` consumes that record so the
momentum-free update only does arithmetic on the touched region, and stays
**bit-identical** to the dense :class:`~repro.nn.optim.SGD` update:

* Elements outside a recorded region hold exactly ``+0.0`` (the tracker's
  complement-is-zero invariant), and for positive ``lr``/``clip_scale`` the
  dense update of a zero gradient is the bitwise identity, so skipping it
  changes nothing.
* Grad-norm clipping accumulates squared norms over the same fixed row
  chunks as the dense path (:func:`repro.nn.optim._grad_sq_norm`); chunks
  with no dirty row contribute exactly ``+0.0`` and are skipped.
* Momentum (a live velocity decays everywhere) and weight decay (it moves
  every element) run the inherited dense per-parameter update, as do
  gradients whose region is unknown or full, so those updates are
  bit-identical by construction.

The optimizer owns the tracker's activation window: ``zero_grad`` clears and
activates it (the subsequent backward records into it), ``step`` reads the
regions and deactivates it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.module import Parameter
from repro.nn.optim import NORM_CHUNK_ROWS, SGD, _grad_sq_norm
from repro.tensor import dirty
from repro.tensor.dirty import DirtyTracker

__all__ = ["SparseSGD", "DirtyTracker"]

#: Dirty fraction above which the update arithmetic runs dense.  Fancy-index
#: gather/scatter pays a per-element overhead a contiguous full-array pass
#: does not (column indexing additionally strides across every row), so once
#: a quarter of the axis is dirty the dense arithmetic is faster — and it is
#: bit-identical either way (elements outside the region hold exactly
#: ``+0.0``, and the dense update of a zero gradient is the bitwise
#: identity).  Only the *arithmetic* goes dense: the region is still known,
#: so the update counts as sparse and its dirty elements are the region's.
DENSE_CUTOVER = 0.25


class SparseSGD(SGD):
    """SGD whose momentum-free update is restricted to dirty gradient regions.

    Drop-in replacement for :class:`~repro.nn.optim.SGD` (same
    hyper-parameters, same trajectories bit for bit); construct it through
    :meth:`repro.execution.EngineRuntime.make_sgd` so it shares the
    runtime's :class:`~repro.tensor.dirty.DirtyTracker`.
    """

    #: The update counters, in the order ``EngineRuntime.stats()["optimizer"]``
    #: reports them (it turns the last two into ``dirty_fraction``).
    COUNTERS = ("sparse_updates", "dense_fallbacks", "skipped_updates",
                "skipped_norm_chunks", "dirty_elements", "total_elements")

    def __init__(self, parameters: Sequence[Parameter], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0,
                 grad_clip: float | None = None,
                 tracker: DirtyTracker | None = None):
        super().__init__(parameters, lr, momentum=momentum,
                         weight_decay=weight_decay, grad_clip=grad_clip)
        self.tracker = tracker if tracker is not None else DirtyTracker()
        self.sparse_updates = 0
        self.dense_fallbacks = 0
        self.skipped_updates = 0
        self.skipped_norm_chunks = 0
        self.dirty_elements = 0
        self.total_elements = 0

    def counters(self) -> dict[str, int]:
        """The :attr:`COUNTERS` by name."""
        return {name: getattr(self, name) for name in self.COUNTERS}

    # ------------------------------------------------------------------
    # tracker activation window
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        super().zero_grad()
        self.tracker.clear()
        dirty.activate(self.tracker)

    def step(self) -> None:
        try:
            self._sparse_step()
        finally:
            dirty.deactivate(self.tracker)

    # ------------------------------------------------------------------
    # the sparse update
    # ------------------------------------------------------------------
    def _sparse_step(self) -> None:
        self.step_count += 1
        clip_scale = self._clip_scale()
        for index, param in enumerate(self.parameters):
            self.total_elements += param.data.size
            self._update_param(index, param, clip_scale)

    def _update_param(self, index: int, param: Parameter,
                      clip_scale: float) -> None:
        """Update one parameter and count it.

        ``sparse_updates`` counts every update whose gradient region is known
        (a missing gradient is known to be zero), whatever arithmetic ran;
        ``dense_fallbacks`` counts the rest, whose dirty elements are the
        whole parameter.
        """
        grad = param.grad
        if self.weight_decay:
            region = None
        elif grad is None:
            region = ("empty",)
        else:
            region = self.tracker.region_of(grad)
        if (region is None or region[0] == "full"
                or (region[0] == "cols" and param.data.ndim != 2)):
            self._apply_dense(index, param, clip_scale)
            self.dense_fallbacks += 1
            self.dirty_elements += param.data.size
            return

        kind = region[0]
        if kind == "empty" or not region[1].size:
            # An exact-zero gradient: only a live velocity moves the
            # parameter, and its decay is the dense update.
            if self.momentum and self._velocity[index] is not None:
                self._apply_dense(index, param, clip_scale)
                self.sparse_updates += 1
            else:
                self.skipped_updates += 1
            return

        idx = region[1]
        axis_len = param.data.shape[0] if kind == "rows" else param.data.shape[1]
        self.dirty_elements += int(idx.size) * (param.data.size // axis_len)
        self.sparse_updates += 1
        if self.momentum or idx.size >= axis_len * DENSE_CUTOVER:
            # The velocity decays outside the region too, and a mostly-dirty
            # region is faster contiguous: both run the dense arithmetic.
            self._apply_dense(index, param, clip_scale)
        elif kind == "rows":
            scaled = grad[idx] * clip_scale if clip_scale != 1.0 else grad[idx]
            param.data[idx] -= self.lr * scaled
        else:
            scaled = (grad[:, idx] * clip_scale if clip_scale != 1.0
                      else grad[:, idx])
            param.data[:, idx] -= self.lr * scaled

    # ------------------------------------------------------------------
    # clipping
    # ------------------------------------------------------------------
    def _clip_scale(self) -> float:
        """Dense chunked clip norm, skipping chunks with no dirty row.

        Accumulates in the same parameter order and the same fixed row
        chunks as :meth:`Optimizer._clip_scale`; every skipped chunk would
        have contributed exactly ``+0.0``, so the float result is identical.
        """
        if self.grad_clip is None:
            return 1.0
        total = 0.0
        for param in self.parameters:
            grad = param.grad
            if grad is None:
                continue
            region = self.tracker.region_of(grad)
            if region is None or region[0] in ("full", "cols"):
                total += _grad_sq_norm(grad)
            elif region[0] == "rows":
                total += self._row_region_sq_norm(grad, np.asarray(region[1]))
            # ("empty",): the whole gradient is exactly zero — every chunk
            # would contribute +0.0.
        norm = float(np.sqrt(total))
        if norm <= self.grad_clip or norm == 0.0:
            return 1.0
        return self.grad_clip / norm

    def _row_region_sq_norm(self, grad: np.ndarray, rows: np.ndarray) -> float:
        if grad.ndim < 2 or grad.shape[0] <= NORM_CHUNK_ROWS:
            return _grad_sq_norm(grad)
        num_chunks = -(-grad.shape[0] // NORM_CHUNK_ROWS)
        chunk_ids = np.unique(rows // NORM_CHUNK_ROWS)
        self.skipped_norm_chunks += int(num_chunks - chunk_ids.size)
        total = 0.0
        for chunk_id in chunk_ids:
            start = int(chunk_id) * NORM_CHUNK_ROWS
            chunk = grad[start:start + NORM_CHUNK_ROWS].reshape(-1)
            total += float(np.dot(chunk, chunk))
        return total

"""LSTM layers for the language-model experiments (Sections IV-C of the paper).

The LSTM is implemented on top of the same :class:`~repro.nn.layers.Linear`
primitives as the MLP, which matters for the reproduction: the paper's point
is that "the execution of LSTM is also performed as matrix multiplication,
thus our proposed approximate dropout can be easily applied to LSTM".  The
cell therefore exposes its input-to-hidden and hidden-to-hidden projections as
pluggable linear modules so the approximate-dropout variants in
:mod:`repro.dropout.layers` can replace them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn import initializers
from repro.nn.layers import Identity
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F


def active_input_pattern(dropout_module, num_units: int):
    """The row pattern a dropout module is currently zeroing its output with,
    if a consumer GEMM may compact against it.

    Duck-typed so :mod:`repro.nn` needs no import from :mod:`repro.dropout`:
    a module qualifies when it is training, executes in a compact mode, has a
    positive drop rate and exposes a unit-level ``pattern`` covering exactly
    ``num_units`` with a period that actually drops something.  Conventional
    :class:`~repro.nn.dropout.Dropout` (no ``pattern`` attribute) and
    block-granular patterns (different unit count) yield ``None``.
    """
    if dropout_module is None or not getattr(dropout_module, "training", False):
        return None
    if getattr(dropout_module, "execution_mode", "masked") == "masked":
        return None
    if getattr(dropout_module, "drop_rate", 0.0) <= 0.0:
        return None
    pattern = getattr(dropout_module, "pattern", None)
    if pattern is None or getattr(pattern, "num_units", -1) != num_units:
        return None
    if getattr(pattern, "dp", 1) <= 1:
        return None
    return pattern


class LSTMCell(Module):
    """One LSTM layer: a cell run over a window of timesteps.

    The four gates (input, forget, cell, output) are fused along the output
    dimension, split into an input projection ``weight_x`` of shape
    ``(4 * hidden, input_size)`` and a recurrent projection ``weight_h`` of
    shape ``(4 * hidden, hidden)``.  The split is what lets the paper's
    dropout patterns compress the cell: when the *input* activations were
    dropped by a row pattern (non-recurrent dropout, the only kind the paper
    applies to LSTMs), the input GEMM skips the dropped columns entirely; and
    when a ``recurrent_dropout`` site is attached (gate-aligned structured
    DropConnect on ``weight_h`` tiles), the recurrent GEMM only touches the
    surviving weight tiles instead of staying dense.

    :meth:`unroll` runs a whole window layer-major: the input projection of
    every timestep is one GEMM, and the recurrence is one fused
    :func:`~repro.tensor.functional.lstm_recurrence` node.  :meth:`forward`
    is the same call for a single timestep.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None,
                 forget_bias: float = 1.0,
                 recurrent_dropout: Module | None = None):
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        rng = rng or np.random.default_rng()
        scale = 1.0 / np.sqrt(hidden_size)
        self.weight_x = Parameter(
            initializers.uniform((4 * hidden_size, input_size), rng,
                                 low=-scale, high=scale))
        self.weight_h = Parameter(
            initializers.uniform((4 * hidden_size, hidden_size), rng,
                                 low=-scale, high=scale))
        bias = np.zeros(4 * hidden_size)
        # Positive forget-gate bias is the standard trick for trainability.
        bias[hidden_size:2 * hidden_size] = forget_bias
        self.bias = Parameter(bias)
        # Optional recurrent-projection site (duck-typed so repro.nn needs no
        # import from repro.dropout): a module exposing
        # ``window_projection(weight) -> RecurrentProjection`` that owns the
        # structured-DropConnect execution of ``h @ weight_h.T`` for one
        # window — e.g. :class:`repro.dropout.layers.ApproxRecurrentDropConnect`.
        # ``None`` keeps the dense recurrent GEMM.
        self.recurrent_dropout = recurrent_dropout

    def zero_state(self, batch: int) -> tuple[Tensor, Tensor]:
        """Zero ``(h, c)`` for ``batch`` rows (dtype follows the weights)."""
        dtype = self.weight_x.data.dtype
        return (Tensor(np.zeros((batch, self.hidden_size), dtype=dtype), dtype=dtype),
                Tensor(np.zeros((batch, self.hidden_size), dtype=dtype), dtype=dtype))

    def unroll(self, inputs: Tensor, state: tuple[Tensor, Tensor] | None = None,
               input_pattern=None) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Run the cell over a window of timesteps.

        Parameters
        ----------
        inputs:
            Input of shape ``(seq_len, batch, input_size)``.
        state:
            Optional ``(h, c)`` tuple, each ``(batch, hidden_size)``.  Zeros
            are used when omitted.
        input_pattern:
            Optional row pattern the upstream dropout zeroed ``inputs`` with;
            when given, the input GEMM only multiplies the surviving columns.

        Returns
        -------
        ``(outputs, (h, c))`` with ``outputs`` of shape
        ``(seq_len, batch, hidden_size)`` and the final state.
        """
        seq_len, batch = inputs.shape[0], inputs.shape[1]
        h, c = self.zero_state(batch) if state is None else state
        x = inputs.reshape(seq_len * batch, inputs.shape[2])
        if input_pattern is not None:
            kept = input_pattern.kept_indices
            gates_x = F.linear(F.cols_select(x, kept),
                               F.cols_select(self.weight_x, kept), self.bias)
        else:
            gates_x = F.linear(x, self.weight_x, self.bias)
        outputs, h, c = F.lstm_recurrence(gates_x, h, c,
                                          self.recurrent_projection())
        return outputs, (h, c)

    def recurrent_projection(self) -> F.RecurrentProjection:
        """The recurrent projection of one window: the site's, or the dense
        ``weight_h`` when the cell has no site."""
        site = self.recurrent_dropout
        if site is None:
            return F.DenseProjection(self.weight_h)
        return site.window_projection(self.weight_h)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor] | None = None,
                input_pattern=None) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Run one timestep: :meth:`unroll` over a window of length one.

        ``x`` is ``(batch, input_size)``; returns ``(h_new, (h_new, c_new))``.
        """
        _, (h, c) = self.unroll(x.reshape(1, *x.shape), state, input_pattern)
        return h, (h, c)

    def __repr__(self) -> str:
        return f"LSTMCell(input_size={self.input_size}, hidden_size={self.hidden_size})"


class LSTM(Module):
    """Multi-layer LSTM unrolled over a sequence, one layer at a time.

    Each layer runs its whole window (:meth:`LSTMCell.unroll`) before the next
    layer starts — the RNN schedule of Appleyard et al., "Optimizing
    Performance of Recurrent Neural Networks on GPUs" (arXiv:1604.01946) — so
    a layer's input projection is one GEMM per window, not one per timestep.

    Parameters
    ----------
    input_size, hidden_size, num_layers:
        Standard stacked-LSTM configuration; the paper uses two layers of 1500
        units for the dictionary task and three layers for PTB.
    dropout_builder:
        Optional callable ``layer_index -> Module`` that returns the dropout
        module applied to the output of each layer except the last.  This is
        how conventional dropout and the approximate dropout patterns are
        swapped in the experiments.
    recurrent_dropout_builder:
        Optional callable ``layer_index -> Module | None`` that returns the
        recurrent-projection DropConnect site of each cell (see
        :class:`LSTMCell`); ``None`` (the callable, or its return value)
        keeps that cell's recurrent GEMM dense.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 rng: np.random.Generator | None = None,
                 dropout_builder: Callable[[int], Module] | None = None,
                 recurrent_dropout_builder: Callable[[int], Module | None] | None = None):
        super().__init__()
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        rng = rng or np.random.default_rng()
        self.cells: list[LSTMCell] = []
        self.inter_layer_dropout: list[Module] = []
        for layer in range(num_layers):
            recurrent_dropout = (recurrent_dropout_builder(layer)
                                 if recurrent_dropout_builder is not None else None)
            cell = LSTMCell(input_size if layer == 0 else hidden_size, hidden_size,
                            rng=rng, recurrent_dropout=recurrent_dropout)
            self.add_module(f"cell{layer}", cell)
            self.cells.append(cell)
        for layer in range(max(num_layers - 1, 0)):
            dropout = (Identity() if dropout_builder is None
                       else dropout_builder(layer))
            self.add_module(f"dropout{layer}", dropout)
            self.inter_layer_dropout.append(dropout)

    def init_state(self, batch: int) -> list[tuple[Tensor, Tensor]]:
        """Zero initial (h, c) state for every layer (dtype follows the weights)."""
        return [cell.zero_state(batch) for cell in self.cells]

    def forward(self, inputs: Tensor,
                state: list[tuple[Tensor, Tensor]] | None = None,
                input_pattern=None,
                ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        """Run the full sequence, one layer at a time.

        Parameters
        ----------
        inputs:
            Tensor of shape ``(seq_len, batch, input_size)``.
        state:
            Optional per-layer ``(h, c)`` list from a previous call (used for
            truncated BPTT continuation).
        input_pattern:
            Optional row pattern the caller's input dropout zeroed ``inputs``
            with; lets the first layer's input GEMM skip dropped columns.
            Inter-layer patterns are discovered from the layer dropout modules
            automatically (see :func:`active_input_pattern`).

        Returns
        -------
        ``(outputs, final_state)`` where ``outputs`` has shape
        ``(seq_len, batch, hidden_size)``.
        """
        batch = inputs.shape[1]
        if state is None:
            state = self.init_state(batch)
        if len(state) != self.num_layers:
            raise ValueError(
                f"state must have one (h, c) pair per layer ({self.num_layers}), got {len(state)}")
        # Layer-major: every timestep of layer l runs before layer l+1, so
        # each layer's input projection is one GEMM over the whole window.
        # Each layer input's dropout pattern is fixed for the window: the
        # first layer's comes from the caller, deeper layers' from the
        # inter-layer dropout module that just zeroed them.
        pattern = input_pattern if self.training else None
        layer_input = inputs
        final_state: list[tuple[Tensor, Tensor]] = []
        for layer, cell in enumerate(self.cells):
            outputs, layer_state = cell.unroll(layer_input, state[layer],
                                               input_pattern=pattern)
            final_state.append(layer_state)
            if layer < self.num_layers - 1:
                dropout = self.inter_layer_dropout[layer]
                outputs = dropout(outputs)
                pattern = active_input_pattern(dropout, self.hidden_size)
            layer_input = outputs
        return layer_input, final_state

    def __repr__(self) -> str:
        return (f"LSTM(input_size={self.input_size}, hidden_size={self.hidden_size}, "
                f"num_layers={self.num_layers})")

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
    """A single LSTM cell computing one timestep.

    The four gates (input, forget, cell, output) are fused along the output
    dimension, split into an input projection ``weight_x`` of shape
    ``(4 * hidden, input_size)`` and a recurrent projection ``weight_h`` of
    shape ``(4 * hidden, hidden)`` — two GEMMs per step instead of one fused
    ``concat`` GEMM.  The split is what lets the paper's dropout patterns
    compress the cell: when the *input* activations were dropped by a row
    pattern (non-recurrent dropout, the only kind the paper applies to LSTMs),
    the input GEMM skips the dropped columns entirely; and when a
    ``recurrent_dropout`` site is attached (gate-aligned structured
    DropConnect on ``weight_h`` tiles), the recurrent GEMM only touches the
    surviving weight tiles instead of staying dense.
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
        # ``project(h, weight) -> Tensor`` that owns the structured-DropConnect
        # execution of ``h @ weight_h.T`` — e.g.
        # :class:`repro.dropout.layers.ApproxRecurrentDropConnect`.  ``None``
        # keeps the dense recurrent GEMM.
        self.recurrent_dropout = recurrent_dropout

    def compact_input_context(self, input_pattern) -> tuple[np.ndarray, Tensor]:
        """Precompact the input projection against a row pattern.

        Returns ``(kept_indices, compact_weight)`` where ``compact_weight`` is
        a *differentiable* gather of the surviving weight columns.  Callers
        unrolling the cell over a window (BPTT) should build this once per
        window and pass it to every timestep: the weight-gather cost and the
        backward scatter then amortise over the whole unroll instead of being
        paid per timestep.
        """
        kept = input_pattern.kept_indices
        return kept, F.cols_select(self.weight_x, kept)

    def recurrent_window_context(self):
        """Hoistable per-window state of the recurrent DropConnect site.

        ``None`` when the cell has no recurrent site or the site's compact
        path is inactive; otherwise the pre-gathered weight-tile context a
        window unroll should pass to every timestep (see
        :meth:`repro.dropout.layers.ApproxRecurrentDropConnect.window_context`).
        """
        site = self.recurrent_dropout
        if site is None:
            return None
        build = getattr(site, "window_context", None)
        return build(self.weight_h) if callable(build) else None

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor] | None = None,
                input_pattern=None, compact_input=None, recurrent_context=None,
                ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Run one timestep.

        Parameters
        ----------
        x:
            Input of shape ``(batch, input_size)``.
        state:
            Optional ``(h, c)`` tuple, each ``(batch, hidden_size)``.  Zeros
            are used when omitted.
        input_pattern:
            Optional row pattern the upstream dropout zeroed ``x`` with; when
            given, the input GEMM only multiplies the surviving columns.
        compact_input:
            Optional precomputed :meth:`compact_input_context`; takes
            precedence over ``input_pattern``.  Used by the window unroll so
            the weight gather happens once per window, not once per timestep.
        recurrent_context:
            Optional precomputed :meth:`recurrent_window_context`, hoisting
            the recurrent site's weight-tile gather out of the unroll the
            same way.

        Returns
        -------
        ``(h_new, (h_new, c_new))``
        """
        batch = x.shape[0]
        if state is None:
            dtype = self.weight_x.data.dtype
            h = Tensor(np.zeros((batch, self.hidden_size), dtype=dtype), dtype=dtype)
            c = Tensor(np.zeros((batch, self.hidden_size), dtype=dtype), dtype=dtype)
        else:
            h, c = state
        if compact_input is None and input_pattern is not None:
            compact_input = self.compact_input_context(input_pattern)
        if compact_input is not None:
            kept, compact_weight = compact_input
            gates = F.linear(F.cols_select(x, kept), compact_weight, self.bias)
        else:
            gates = F.linear(x, self.weight_x, self.bias)
        if self.recurrent_dropout is not None:
            gates = gates + self.recurrent_dropout.project(
                h, self.weight_h, context=recurrent_context)
        else:
            gates = gates + F.linear(h, self.weight_h, None)
        h_new, c_new = F.lstm_gates(gates, c)
        return h_new, (h_new, c_new)

    def __repr__(self) -> str:
        return f"LSTMCell(input_size={self.input_size}, hidden_size={self.hidden_size})"


class LSTM(Module):
    """Multi-layer LSTM unrolled over a sequence.

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
        dtype = self.cells[0].weight_x.data.dtype
        return [
            (Tensor(np.zeros((batch, self.hidden_size), dtype=dtype), dtype=dtype),
             Tensor(np.zeros((batch, self.hidden_size), dtype=dtype), dtype=dtype))
            for _ in range(self.num_layers)
        ]

    def forward(self, inputs: Tensor,
                state: list[tuple[Tensor, Tensor]] | None = None,
                input_pattern=None,
                ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        """Run the full sequence.

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
        seq_len, batch = inputs.shape[0], inputs.shape[1]
        if state is None:
            state = self.init_state(batch)
        if len(state) != self.num_layers:
            raise ValueError(
                f"state must have one (h, c) pair per layer ({self.num_layers}), got {len(state)}")
        # One dropout pattern per layer input, fixed for the whole window: the
        # first layer's comes from the caller, deeper layers' from the
        # inter-layer dropout modules that zero their inputs.  The compact
        # weight gather is hoisted here so it is paid once per window, not
        # once per timestep.
        patterns = [input_pattern if self.training else None]
        patterns += [active_input_pattern(dropout, self.hidden_size)
                     for dropout in self.inter_layer_dropout]
        contexts = [None if pattern is None
                    else self.cells[layer].compact_input_context(pattern)
                    for layer, pattern in enumerate(patterns)]
        # Same hoist for the recurrent DropConnect sites: the weight-tile
        # gather of each cell's recurrent pattern is paid once per window.
        recurrent_contexts = [cell.recurrent_window_context()
                              for cell in self.cells]
        outputs: list[Tensor] = []
        for t in range(seq_len):
            layer_input = inputs[t]
            new_state: list[tuple[Tensor, Tensor]] = []
            for layer, cell in enumerate(self.cells):
                h, layer_state = cell(layer_input, state[layer],
                                      compact_input=contexts[layer],
                                      recurrent_context=recurrent_contexts[layer])
                new_state.append(layer_state)
                if layer < self.num_layers - 1:
                    h = self.inter_layer_dropout[layer](h)
                layer_input = h
            state = new_state
            outputs.append(layer_input)
        stacked = F.stack(outputs, axis=0)
        return stacked, state

    def __repr__(self) -> str:
        return (f"LSTM(input_size={self.input_size}, hidden_size={self.hidden_size}, "
                f"num_layers={self.num_layers})")

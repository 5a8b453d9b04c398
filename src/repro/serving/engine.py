"""Frozen-model inference engine.

:class:`InferenceEngine` takes a trained model plus an
:class:`~repro.execution.ExecutionConfig` (or an already-bound
:class:`~repro.execution.EngineRuntime`), switches the model to eval mode and
compiles its forward pass into a flat numpy program **once**:

* every layer's *effective* evaluation weight is interned at construction —
  in particular the non-inverted DropConnect sites
  (:class:`~repro.dropout.layers.ApproxDropConnectLinear` and an enabled
  :class:`~repro.dropout.layers.ApproxRecurrentDropConnect`) rescale their
  weight by the expected keep fraction on *every* eval call (per timestep for
  the LSTM), which the engine pays exactly once;
* the per-layer scratch buffers are interned in one
  :class:`~repro.dropout.engine.CompactWorkspace` at ``serve_max_batch``
  rows at construction, so steady-state inference allocates only its final
  output array;
* no autodiff tape is built: the program is raw ndarray arithmetic (and the
  structural fallback for model types the compiler does not know runs the
  module tree under :func:`~repro.tensor.tensor.no_grad`).

The program replicates the eval-mode forward arithmetic operation for
operation (same ufuncs applied in the same order), so engine outputs are
**bit-identical** to a plain eval-mode ``forward()`` on every execution
backend — evaluation GEMMs are dense, which all registered backends share
with the reference backend.  LM inference ends in the head's exact dense
``logits()`` path (the same one ``forward()`` uses in eval mode), so served
predictions are never approximated whichever loss head trained the model.

The engine is *frozen*: weights are interned at construction, so training the
model afterwards requires building a new engine.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.dropout.engine import CompactWorkspace
from repro.dropout.layers import (ApproxBlockDropout, ApproxDropConnectLinear,
                                  ApproxRandomDropout, ApproxRandomDropoutLinear)
from repro.execution import EngineRuntime, ExecutionConfig
from repro.models.lstm_lm import LSTMLanguageModel
from repro.models.mlp import MLPClassifier
from repro.nn.dropout import Dropout
from repro.nn.layers import Identity, Linear
from repro.tensor import Tensor
from repro.tensor.tensor import no_grad


def _eval_scale(module) -> float | None:
    """The scalar an activation-dropout module multiplies by in eval mode.

    ``None`` means the module is an identity at evaluation time: conventional
    (inverted) :class:`~repro.nn.dropout.Dropout`, :class:`Identity`, a
    pattern module with ``drop_rate == 0`` or one built with ``scale=False``.
    Unrecognised module types raise so the compiler falls back to the
    structural path instead of silently mis-serving.
    """
    if module is None or isinstance(module, (Identity, Dropout)):
        return None
    if isinstance(module, (ApproxRandomDropout, ApproxBlockDropout)):
        if module.drop_rate == 0.0 or not module.scale:
            return None
        return 1.0 - module.drop_rate
    raise NotImplementedError(f"unknown activation module {type(module).__name__}")


def _linear_program(linear) -> dict[str, Any]:
    """Compile one fully-connected layer's eval-mode execution.

    Returns ``{"weight", "bias", "bias_after", "out_scale"}`` replicating the
    layer's eval arithmetic: ``x @ weight.T (+ bias) (* out_scale)
    (+ bias_after)``.  The tile-pattern layer adds its (never-dropped) bias
    *after* the interned rescaled-weight GEMM; the row-pattern layer rescales
    the biased output.
    """
    weight = linear.weight.data
    bias = linear.bias.data if linear.bias is not None else None
    if isinstance(linear, ApproxDropConnectLinear):
        if linear.drop_rate > 0.0 and linear.scale:
            # Non-inverted DropConnect: intern the rescaled weight once
            # (the module recomputes weight * keep on every eval call).
            return {"weight": weight * (1.0 - linear.drop_rate), "bias": None,
                    "bias_after": bias, "out_scale": None}
        return {"weight": weight, "bias": bias, "bias_after": None,
                "out_scale": None}
    if isinstance(linear, ApproxRandomDropoutLinear):
        scale = (1.0 - linear.drop_rate
                 if linear.drop_rate > 0.0 and linear.scale else None)
        return {"weight": weight, "bias": bias, "bias_after": None,
                "out_scale": scale}
    if isinstance(linear, Linear):
        return {"weight": weight, "bias": bias, "bias_after": None,
                "out_scale": None}
    raise NotImplementedError(f"unknown linear module {type(linear).__name__}")


def _recurrent_weight(cell) -> np.ndarray:
    """The cell's effective eval-mode recurrent weight, interned once.

    Mirrors :meth:`ApproxRecurrentDropConnect.project` at eval time: dense
    unless the site is enabled (``drop_rate`` reads 0 while disabled) and
    rescaling, in which case the weight contribution shrinks by the expected
    keep fraction — recomputed per timestep by the module, paid once here.
    """
    site = cell.recurrent_dropout
    weight = cell.weight_h.data
    if site is None or site.drop_rate == 0.0 or not site.scale:
        return weight
    return weight * (1.0 - site.drop_rate)


class InferenceEngine:
    """Compile a trained model into a reusable frozen inference program.

    Parameters
    ----------
    model:
        A trained :class:`~repro.models.mlp.MLPClassifier` or
        :class:`~repro.models.lstm_lm.LSTMLanguageModel` (other module types
        are served through the structural eval-mode fallback).
    config:
        The :class:`ExecutionConfig` to build a fresh runtime from (the model
        is bound, which casts parameters to the configured dtype).  Ignored
        when ``runtime`` is given.
    runtime:
        An existing runtime the model is already bound to; the engine joins
        its serving statistics instead of creating a new runtime.
    """

    def __init__(self, model, config: ExecutionConfig | None = None, *,
                 runtime: EngineRuntime | None = None):
        if runtime is None:
            runtime = EngineRuntime(config or ExecutionConfig())
            runtime.bind(model)
        self.runtime = runtime
        self.config = runtime.config
        self.backend = runtime.backend
        self.model = model
        self.dtype = runtime.np_dtype
        model.eval()
        # One buffer per key: infer() calls are sequential (the batcher
        # serialises them), so each site can reuse a single physical array.
        self.workspace = CompactWorkspace()
        self.max_rows = runtime.config.serve_max_batch
        self.infer_calls = 0
        self.rows_served = 0
        if isinstance(model, MLPClassifier):
            self._kind = "mlp"
            self._compile_mlp(model)
        elif isinstance(model, LSTMLanguageModel):
            self._kind = "lstm_lm"
            self._compile_lstm(model)
        else:
            self._kind = "generic"
        runtime.register_serving_source(self)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _buffer(self, key: str, rows: int, width: int) -> np.ndarray:
        """A ``(rows, width)`` scratch view of an interned workspace buffer.

        Buffers are interned at full ``serve_max_batch`` capacity so every
        smaller micro-batch reuses the same physical array; a batch larger
        than the configured capacity widens the buffer (the workspace
        reallocates it) rather than failing.
        """
        if rows > self.max_rows:
            self.max_rows = rows
        return self.workspace.zeros(key, (self.max_rows, width),
                                    self.dtype)[:rows]

    def _compile_mlp(self, model: MLPClassifier) -> None:
        self._layers = []
        for linear, post in zip(model.hidden_linears, model.post_activations):
            program = _linear_program(linear)
            program["post_scale"] = _eval_scale(post)
            program["width"] = program["weight"].shape[0]
            self._layers.append(program)
        self._out_weight = model.output.weight.data
        self._out_bias = (model.output.bias.data
                          if model.output.bias is not None else None)
        # Intern the scratch buffers at micro-batch capacity up front.
        for index, layer in enumerate(self._layers):
            self._buffer(f"mlp{index}", self.max_rows, layer["width"])

    def _compile_lstm(self, model: LSTMLanguageModel) -> None:
        self._emb_weight = model.embedding.weight.data
        self._input_scale = _eval_scale(model.input_dropout)
        self._output_scale = _eval_scale(model.output_dropout)
        self._cells = []
        for layer, cell in enumerate(model.lstm.cells):
            inter = (model.lstm.inter_layer_dropout[layer]
                     if layer < model.lstm.num_layers - 1 else None)
            self._cells.append({
                "weight_x": cell.weight_x.data,
                "weight_h": _recurrent_weight(cell),
                "bias": cell.bias.data,
                "inter_scale": _eval_scale(inter),
            })
        self._hidden = model.config.hidden_size
        self._proj_weight = model.projection.weight.data
        self._proj_bias = (model.projection.bias.data
                           if model.projection.bias is not None else None)
        for layer in range(len(self._cells)):
            self._buffer(f"gates{layer}", self.max_rows, 4 * self._hidden)
            self._buffer(f"rec{layer}", self.max_rows, 4 * self._hidden)

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def infer(self, batch, state=None):
        """Run one frozen forward pass.

        MLP: ``batch`` is ``(rows, features)``; returns ``(rows, classes)``
        logits.  LM: ``batch`` is an integer ``(seq_len, batch)`` token
        array; returns ``(logits, new_state)`` exactly like ``forward()``,
        with ``state`` optional carried numpy ``(h, c)`` pairs.  Outputs are
        bit-identical to the model's own eval-mode forward pass.
        """
        self.infer_calls += 1
        with no_grad():
            if self._kind == "mlp":
                batch = np.asarray(batch)
                self.rows_served += batch.shape[0]
                return self._infer_mlp(batch)
            if self._kind == "lstm_lm":
                batch = np.asarray(batch)
                self.rows_served += batch.shape[1]
                return self._infer_lstm(batch, state)
            return self._infer_generic(batch, state)

    def _infer_mlp(self, x: np.ndarray) -> np.ndarray:
        if x.dtype != self.dtype:
            x = x.astype(self.dtype)
        rows = x.shape[0]
        for index, layer in enumerate(self._layers):
            out = self._buffer(f"mlp{index}", rows, layer["width"])
            np.matmul(x, layer["weight"].T, out=out)
            self.backend.count("serve_gemm")
            if layer["bias"] is not None:
                np.add(out, layer["bias"], out=out)
            if layer["out_scale"] is not None:
                np.multiply(out, layer["out_scale"], out=out)
            if layer["bias_after"] is not None:
                np.add(out, layer["bias_after"], out=out)
            # ReLU exactly as Tensor.relu: multiply by the 0/1 cast mask.
            np.multiply(out, (out > 0).astype(out.dtype), out=out)
            if layer["post_scale"] is not None:
                np.multiply(out, layer["post_scale"], out=out)
            x = out
        logits = np.matmul(x, self._out_weight.T)
        self.backend.count("serve_gemm")
        if self._out_bias is not None:
            np.add(logits, self._out_bias, out=logits)
        return logits

    def _infer_lstm(self, tokens: np.ndarray, state):
        if tokens.ndim != 2:
            raise ValueError(
                f"tokens must be 2-D (seq_len, batch), got shape {tokens.shape}")
        if tokens.size and (tokens.min() < 0
                            or tokens.max() >= self._emb_weight.shape[0]):
            raise IndexError(
                f"token id out of range [0, {self._emb_weight.shape[0]}) "
                "in embedding lookup")
        seq_len, batch = tokens.shape
        hidden = self._hidden
        embedded = self._emb_weight[tokens]
        if self._input_scale is not None:
            np.multiply(embedded, self._input_scale, out=embedded)
        if state is None:
            state = [(np.zeros((batch, hidden), dtype=self.dtype),
                      np.zeros((batch, hidden), dtype=self.dtype))
                     for _ in self._cells]
        else:
            state = [(np.asarray(h), np.asarray(c)) for h, c in state]
        outputs = self.workspace.zeros("lstm_out", (seq_len, batch, hidden),
                                       self.dtype)
        for t in range(seq_len):
            layer_input = embedded[t]
            new_state = []
            for layer, cell in enumerate(self._cells):
                h, c = state[layer]
                gates = self._buffer(f"gates{layer}", batch, 4 * hidden)
                np.matmul(layer_input, cell["weight_x"].T, out=gates)
                self.backend.count("serve_gemm")
                np.add(gates, cell["bias"], out=gates)
                rec = self._buffer(f"rec{layer}", batch, 4 * hidden)
                np.matmul(h, cell["weight_h"].T, out=rec)
                self.backend.count("serve_gemm")
                np.add(gates, rec, out=gates)
                # F.lstm_gates forward math, expression for expression.
                i_s = 1.0 / (1.0 + np.exp(-gates[:, 0 * hidden:1 * hidden]))
                f_s = 1.0 / (1.0 + np.exp(-gates[:, 1 * hidden:2 * hidden]))
                g_t = np.tanh(gates[:, 2 * hidden:3 * hidden])
                o_s = 1.0 / (1.0 + np.exp(-gates[:, 3 * hidden:4 * hidden]))
                c_new = f_s * c + i_s * g_t
                h_new = o_s * np.tanh(c_new)
                new_state.append((h_new, c_new))
                if cell["inter_scale"] is not None:
                    h_new = h_new * cell["inter_scale"]
                layer_input = h_new
            state = new_state
            outputs[t] = layer_input
        if self._output_scale is not None:
            np.multiply(outputs, self._output_scale, out=outputs)
        flat = outputs.reshape(seq_len * batch, hidden)
        # Exact dense head logits (the eval path of every loss head).
        logits = np.matmul(flat, self._proj_weight.T)
        self.backend.count("serve_gemm")
        if self._proj_bias is not None:
            np.add(logits, self._proj_bias, out=logits)
        return logits, state

    def _infer_generic(self, batch, state):
        """Structural fallback: the module tree itself, eval mode, no tape."""
        result = self.model(batch) if state is None else self.model(batch, state)
        if isinstance(result, tuple):
            out, new_state = result
            out = out.data if isinstance(out, Tensor) else np.asarray(out)
            self.rows_served += out.shape[0]
            return out, new_state
        out = result.data if isinstance(result, Tensor) else np.asarray(result)
        self.rows_served += out.shape[0]
        return out

    # ------------------------------------------------------------------
    # request-level API (the micro-batcher's entry point)
    # ------------------------------------------------------------------
    def infer_requests(self, requests: list) -> list:
        """Serve a list of single requests as one pooled engine step.

        MLP requests are ``(features,)`` vectors (stacked into one GEMM
        batch, each answered with its logits row).  LM requests are 1-D
        token sequences, padded to the longest request and strided into one
        ``(seq_len, len(requests))`` unroll; each request gets back the
        ``(len(request), vocab)`` logits of its own (unpadded) positions —
        padding rides at the sequence tail, so a causal left-to-right unroll
        never lets it influence a request's real positions.
        """
        if not requests:
            return []
        if self._kind == "lstm_lm":
            lengths = [len(request) for request in requests]
            seq_len = max(lengths)
            tokens = np.zeros((seq_len, len(requests)), dtype=np.int64)
            for column, request in enumerate(requests):
                tokens[:lengths[column], column] = np.asarray(request)
            logits, _ = self.infer(tokens)
            shaped = logits.reshape(seq_len, len(requests), -1)
            return [shaped[:lengths[column], column].copy()
                    for column in range(len(requests))]
        stacked = np.stack([np.asarray(request) for request in requests])
        outputs = self.infer(stacked)
        return [outputs[row].copy() for row in range(len(requests))]

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def serving_stats(self) -> dict[str, int]:
        """Counters folded into ``runtime.stats()["serving"]``."""
        return {"engines": 1, "infer_calls": self.infer_calls,
                "rows": self.rows_served}

    def __repr__(self) -> str:
        return (f"InferenceEngine(kind={self._kind}, dtype={self.dtype}, "
                f"max_rows={self.max_rows}, calls={self.infer_calls})")

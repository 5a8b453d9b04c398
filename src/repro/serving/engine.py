"""Frozen-model inference engine.

:class:`InferenceEngine` takes a trained model plus an
:class:`~repro.execution.ExecutionConfig` (or an already-bound
:class:`~repro.execution.EngineRuntime`), switches the model to eval mode and
compiles its forward pass into a flat numpy program **once**:

* every layer's *effective* evaluation weight is interned at construction —
  in particular the non-inverted DropConnect sites
  (:class:`~repro.dropout.layers.ApproxDropConnectLinear` and an enabled
  :class:`~repro.dropout.layers.ApproxRecurrentDropConnect`) rescale their
  weight by the expected keep fraction on *every* eval call (per window for
  the LSTM), which the engine pays exactly once;
* the MLP's per-layer scratch buffers are interned in one
  :class:`~repro.dropout.engine.CompactWorkspace` at ``serve_max_batch``
  rows at construction, so steady-state MLP inference allocates only its
  final output array;
* no autodiff tape is built: the program is raw ndarray arithmetic (the LSTM
  recurrence is the model's own fused
  :func:`~repro.tensor.functional.lstm_recurrence` loop, called on tape-free
  tensors), and the structural fallback for model types the compiler does
  not know runs the module tree under :func:`~repro.tensor.tensor.no_grad`.

The program replicates the eval-mode forward arithmetic operation for
operation (same ufuncs applied in the same order, and the same GEMM shapes:
the LSTM runs layer-major like ``forward()``, one input GEMM per layer over
the whole window), so engine outputs are
**bit-identical** to a plain eval-mode ``forward()`` — evaluation GEMMs are
dense and never reach the backend's compact primitives (the engine only
counts them).  LM inference ends in the head's exact dense
``logits()`` path (the same one ``forward()`` uses in eval mode), so served
predictions are never approximated whichever loss head trained the model.

The engine is *frozen*: weights are interned at construction, so training the
model afterwards requires building a new engine.

:meth:`InferenceEngine.infer` may be called from any thread: the scratch
buffers are shared by every call, so one lock serialises the calls (and the
engine's counters with them).  Uncontended, as behind the micro-batcher's
single worker, the lock costs one acquire per batch.
"""

from __future__ import annotations

import threading
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
from repro.tensor import Tensor, functional as F
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


def _frozen(array) -> Tensor:
    """``array`` as a tape-free tensor of its own dtype."""
    array = np.asarray(array)
    return Tensor(array, dtype=array.dtype)


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
        # One buffer per key, so each site reuses a single physical array;
        # infer() holds this lock, so no two calls share the buffers at once.
        self._lock = threading.Lock()
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
            with no_grad():
                # The cell's own eval-mode projection (dense, or rescaled by
                # an enabled DropConnect site's keep fraction, which the site
                # recomputes every window and the engine pays once).
                eval_projection = cell.recurrent_projection()
            self._cells.append({
                "weight_x": cell.weight_x.data,
                "bias": cell.bias.data,
                "recurrent": F.DenseProjection(
                    _frozen(eval_projection.tensor.data)),
                "inter_scale": _eval_scale(inter),
            })
        self._hidden = model.config.hidden_size
        self._proj_weight = model.projection.weight.data
        self._proj_bias = (model.projection.bias.data
                           if model.projection.bias is not None else None)
        # Head GEMM output of infer(positions=...), grown to the largest
        # window seen.  It never leaves the engine and, like the workspace,
        # is only touched under the engine lock.
        self._logits_scratch = np.empty((0, self._proj_weight.shape[0]),
                                        self.dtype)

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def infer(self, batch, state=None, positions=None):
        """Run one frozen forward pass.

        MLP: ``batch`` is ``(rows, features)``; returns ``(rows, classes)``
        logits.  LM: ``batch`` is an integer ``(seq_len, batch)`` token
        array; returns ``(logits, new_state)`` exactly like ``forward()``,
        with ``state`` optional carried numpy ``(h, c)`` pairs.  Outputs are
        bit-identical to the model's own eval-mode forward pass.

        ``positions`` (LM only) selects rows of the ``(seq_len * batch)``
        logits, in the given order; only those are returned.  The head GEMM
        still projects every position, as ``forward()`` does, but into a
        scratch buffer kept across calls, so only the selected rows are
        copied out and biased.

        Thread-safe: the call, counters included, runs under the engine
        lock.
        """
        with self._lock, no_grad():
            self.infer_calls += 1
            if self._kind == "mlp":
                batch = np.asarray(batch)
                self.rows_served += batch.shape[0]
                return self._infer_mlp(batch)
            if self._kind == "lstm_lm":
                batch = np.asarray(batch)
                self.rows_served += batch.shape[1]
                return self._infer_lstm(batch, state, positions)
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

    def _infer_lstm(self, tokens: np.ndarray, state, positions=None):
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
        # Layer-major like eval forward(): one input GEMM per layer over the
        # whole window, then the shared fused recurrence, so every GEMM has
        # forward()'s shape and the output is bit-identical.
        x = self._emb_weight[tokens.reshape(-1)]
        if self._input_scale is not None:
            np.multiply(x, self._input_scale, out=x)
        if state is None:
            state = [(np.zeros((batch, hidden), dtype=self.dtype),
                      np.zeros((batch, hidden), dtype=self.dtype))
                     for _ in self._cells]
        new_state = []
        for (h, c), cell in zip(state, self._cells):
            gates = np.matmul(x, cell["weight_x"].T)
            np.add(gates, cell["bias"], out=gates)
            outputs, h, c = F.lstm_recurrence(
                _frozen(gates), _frozen(h), _frozen(c), cell["recurrent"])
            self.backend.count("serve_gemm", 1 + seq_len)
            new_state.append((h.data, c.data))
            # Never written in place: the state rows alias these outputs.
            x = outputs.data.reshape(seq_len * batch, hidden)
            if cell["inter_scale"] is not None:
                x = x * cell["inter_scale"]
        if self._output_scale is not None:
            x = x * self._output_scale
        # Exact dense head logits (the eval path of every loss head), over
        # every position: BLAS may round a row differently when the number
        # of rows changes, so projecting only the selected rows would break
        # the bit-identity with forward().
        if positions is None:
            logits = np.matmul(x, self._proj_weight.T)
        else:
            rows = x.shape[0]
            if self._logits_scratch.shape[0] < rows:
                self._logits_scratch = np.empty(
                    (rows, self._proj_weight.shape[0]), self.dtype)
            logits = np.matmul(x, self._proj_weight.T,
                               out=self._logits_scratch[:rows])[positions]
        self.backend.count("serve_gemm")
        if self._proj_bias is not None:
            np.add(logits, self._proj_bias, out=logits)
        return logits, new_state

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
    def padded_length(self, request) -> int:
        """The length ``request`` pads a batch of :meth:`infer_requests` to.

        A language-model batch is padded to its longest request, so an LM
        request's padded length is its token count.  Every other request is
        one row, so all of them share one length.
        """
        return len(request) if self._kind == "lstm_lm" else 1

    def infer_requests(self, requests: list) -> list:
        """Serve a list of single requests as one pooled engine step.

        MLP requests are ``(features,)`` vectors (stacked into one GEMM
        batch, each answered with its logits row).  LM requests are 1-D
        token sequences, padded to the longest request and strided into one
        ``(seq_len, len(requests))`` unroll; each request gets back the
        ``(len(request), vocab)`` logits of its own (unpadded) positions —
        padding rides at the sequence tail, so a causal left-to-right unroll
        never lets it influence a request's real positions.  An empty
        request gets a ``(0, vocab)`` array.
        """
        if not requests:
            return []
        if self._kind == "lstm_lm":
            lengths = [len(request) for request in requests]
            width = len(requests)
            tokens = np.zeros((max(lengths), width), dtype=np.int64)
            for column, request in enumerate(requests):
                tokens[:lengths[column], column] = np.asarray(request)
            # Every real position in request order (row t * width + column
            # of the timestep-major logits), so each response is a
            # contiguous block of the returned rows.
            rows = np.concatenate([np.arange(length) * width + column
                                   for column, length in enumerate(lengths)])
            logits, _ = self.infer(tokens, positions=rows)
            return np.split(logits, np.cumsum(lengths)[:-1])
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

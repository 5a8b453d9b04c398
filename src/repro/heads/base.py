"""The loss-head abstraction: how a model turns hidden features into a loss.

A large-vocabulary language model spends most of its step in two places the
rest of the engine never touched before this subsystem existed: the
``vocab x hidden`` output projection and the full-vocabulary softmax
cross-entropy that consumes it.  A :class:`LossHead` owns exactly that tail of
the forward pass — *features in, scalar loss out* — so the execution engine
can swap the dense tail for a compact one without the model or the trainer
changing shape.

Two heads ship:

* :class:`DenseSoftmaxHead` — the exact behaviour the LSTM language model and
  :class:`~repro.nn.losses.CrossEntropyLoss` always computed, refactored
  behind the head interface: a dense (or consumer-compacted, when the
  upstream dropout pattern is known) projection followed by full softmax
  cross-entropy.
* :class:`~repro.heads.softmax.CompactSoftmaxHead` — the vocabulary treated
  as a pattern site: each iteration a pooled
  :class:`~repro.dropout.patterns.RowDropoutPattern` prunes the class set,
  the batch targets are always kept, and the loss is an importance-weighted
  sampled softmax over the surviving classes executed as a compact
  gather-GEMM (:func:`~repro.dropout.compact_ops.head_compact_linear`).

Both heads expose :meth:`LossHead.logits` — the *exact dense* projection —
which is what evaluation uses, so perplexity reporting is never approximated
regardless of how the training loss was computed.

Like the pattern layers, a head carries ``execution_mode`` / ``backend``
slots, both configured by :meth:`repro.execution.EngineRuntime.bind`; under
``"masked"`` execution the compact head falls back to the dense loss (the
conventional baseline computes nothing compactly).
"""

from __future__ import annotations

import numpy as np

from repro.dropout.compact_ops import input_compact_linear
from repro.dropout.patterns import RowDropoutPattern
from repro.nn.module import Module
from repro.tensor import Tensor, functional as F


class LossHead(Module):
    """Base class of the loss heads: projection + loss behind one interface.

    The head owns no parameters — the projection ``weight``/``bias`` stay on
    the model (exactly like :class:`~repro.dropout.layers.ApproxRecurrentDropConnect`
    wraps the cell-owned ``weight_h``) — so heads can be swapped per
    :class:`~repro.execution.ExecutionConfig` without touching the optimizer
    state.
    """

    #: Registry name of the head ("dense", "sampled"); set by subclasses.
    kind: str = "abstract"

    def __init__(self):
        super().__init__()
        self.execution_mode = "masked"
        # Named `backend` so EngineRuntime.bind installs the execution
        # backend like any pattern layer's.
        self.backend = None

    # ------------------------------------------------------------------
    # the exact dense path (shared: evaluation always goes through this)
    # ------------------------------------------------------------------
    def logits(self, features: Tensor, weight: Tensor, bias: Tensor | None,
               input_pattern: RowDropoutPattern | None = None) -> Tensor:
        """Full-vocabulary logits — the *exact* projection.

        ``input_pattern`` (the row pattern an upstream dropout zeroed the
        features with, e.g. the LSTM's ``output_dropout``) lets the GEMM skip
        the zeroed input columns — the consumer-GEMM compaction of
        Fig. 3(a) step 2 — which is numerically identical to the dense
        product.  Callers vet the pattern with
        :func:`~repro.nn.recurrent.active_input_pattern`; passing ``None``
        runs the plain dense projection (always the case in eval mode).
        """
        if input_pattern is not None and self.execution_mode != "masked":
            return input_compact_linear(features, weight, bias, input_pattern,
                                        backend=self.backend)
        return F.linear(features, weight, bias)

    def dense_loss(self, features: Tensor, weight: Tensor, bias: Tensor | None,
                   targets: np.ndarray,
                   input_pattern: RowDropoutPattern | None = None) -> Tensor:
        """Exact full-softmax cross-entropy (the dense reference path)."""
        return F.cross_entropy(self.logits(features, weight, bias,
                                           input_pattern=input_pattern),
                               np.asarray(targets))

    # ------------------------------------------------------------------
    # the head interface
    # ------------------------------------------------------------------
    def loss(self, features: Tensor, weight: Tensor, bias: Tensor | None,
             targets: np.ndarray,
             input_pattern: RowDropoutPattern | None = None) -> Tensor:
        """Scalar training loss for ``features`` against integer ``targets``."""
        raise NotImplementedError

    def head_counters(self) -> dict[str, int]:
        """Pattern-draw / kept-class counters for ``runtime.stats()``."""
        return {"draws": 0, "kept_classes": 0}


class DenseSoftmaxHead(LossHead):
    """The exact dense loss head: full projection + full cross-entropy.

    This is the pre-subsystem behaviour of the LSTM language model (including
    its consumer-GEMM compaction against the output-dropout pattern),
    refactored out of the model/:class:`~repro.nn.losses.CrossEntropyLoss`
    pair so that dense and compact heads are selected the same way.
    """

    kind = "dense"

    def loss(self, features: Tensor, weight: Tensor, bias: Tensor | None,
             targets: np.ndarray,
             input_pattern: RowDropoutPattern | None = None) -> Tensor:
        return self.dense_loss(features, weight, bias, targets,
                               input_pattern=input_pattern)

    def __repr__(self) -> str:
        return "DenseSoftmaxHead()"

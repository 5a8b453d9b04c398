"""Sampled / class-pruned softmax: the vocabulary as a pattern site.

The compact loss head applies the paper's pattern-site treatment to the one
GEMM the engine still ran dense after the recurrent path was compacted: the
``vocab x hidden`` output projection plus the full-vocabulary cross-entropy
behind it.  Each training iteration one
:class:`~repro.dropout.patterns.RowDropoutPattern` over the *classes* is
installed (pooled, seeded and replayed exactly like every other site's
pattern stream), the batch's target classes are always added to the kept
set, and the loss is computed over the surviving classes only:

* the projection and the loss run as one fused op
  (:func:`~repro.dropout.compact_ops.compact_softmax_loss`) — only the kept
  classes' weight rows are gathered, the logits stay compact, and the
  gradients scatter into one full-size buffer per parameter;
* the softmax normaliser is estimated by importance weighting: a pattern
  with period ``dp`` keeps each non-target class with probability exactly
  ``1/dp`` (the bias phase is uniform), so scaling the kept non-target
  exponentials by ``dp`` is an unbiased estimator of the full normaliser's
  non-target sum, while target classes contribute exactly (they are kept
  with probability 1).

Folding the weights into the logits makes the whole loss one weighted
cross-entropy: with ``w_j = dp`` for kept non-target classes and ``w_j = 1``
for targets,

    -logit_t + log Σ_j w_j·exp(logit_j)  =  CE(logits + log w, t)    (w_t = 1)

so the sampled loss is the ordinary cross-entropy of the weight-shifted
compact logits (the fused op adds ``log w`` to the logits in place).  When
the drawn pattern keeps everything (``dp == 1``) the weights vanish and the
loss is *exactly* the dense cross-entropy; for larger periods it is a
consistent estimate whose error shrinks with the vocabulary size
(regression-tested against the dense head).  Evaluation never samples:
:meth:`~repro.heads.base.LossHead.logits` is exact.
"""

from __future__ import annotations

import numpy as np

from repro.dropout.compact_ops import SoftmaxLevel, compact_softmax_loss
from repro.dropout.patterns import RowDropoutPattern, row_pattern
from repro.dropout.sampler import PatternSite
from repro.heads.base import LossHead
from repro.tensor import Tensor, functional as F


def sampled_class_set(pattern: RowDropoutPattern, targets: np.ndarray,
                      dtype=np.float64,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kept class set of one sampled-softmax step.

    Returns ``(classes, log_weights, positions)``: the sorted union of the
    pattern's kept classes and the batch's target classes, the per-class
    log importance weights (``log dp`` for kept non-target classes, ``0``
    for targets) and each example's target position inside ``classes``.
    """
    targets = np.asarray(targets)
    F.check_targets(targets, pattern.num_units)
    kept = np.asarray(pattern.kept_indices)
    unique_targets = np.unique(targets)
    extra = np.setdiff1d(unique_targets, kept, assume_unique=False)
    classes = np.union1d(kept, extra) if len(extra) else kept
    log_weights = np.zeros(len(classes), dtype=dtype)
    if pattern.dp > 1:
        log_weights.fill(np.log(pattern.dp))
        log_weights[np.searchsorted(classes, unique_targets)] = 0.0
    positions = np.searchsorted(classes, targets)
    return classes, log_weights, positions


def _weighted_class_loss(features: Tensor, weight: Tensor, bias: Tensor | None,
                         targets: np.ndarray, pattern: RowDropoutPattern,
                         input_pattern: RowDropoutPattern | None,
                         backend) -> tuple[Tensor, int]:
    """The weighted cross-entropy over the class set of ``pattern`` and
    ``targets`` — one level of
    :func:`~repro.dropout.compact_ops.compact_softmax_loss` — and the number
    of classes it projected.  The single definition
    :func:`sampled_softmax_loss` and :class:`CompactSoftmaxHead` share, so
    the estimator cannot diverge between the two entry points."""
    if pattern.num_units != weight.shape[0]:
        raise ValueError(
            f"pattern covers {pattern.num_units} classes but the projection "
            f"has {weight.shape[0]} output rows")
    classes, log_weights, positions = sampled_class_set(
        pattern, np.asarray(targets), dtype=features.data.dtype)
    level = SoftmaxLevel(classes, positions,
                         log_weights=log_weights if np.any(log_weights) else None)
    return compact_softmax_loss(features, weight, bias, [level],
                                input_pattern=input_pattern,
                                backend=backend), len(classes)


def sampled_softmax_loss(features: Tensor, weight: Tensor, bias: Tensor | None,
                         targets: np.ndarray, pattern: RowDropoutPattern,
                         input_pattern: RowDropoutPattern | None = None,
                         backend=None) -> Tensor:
    """Importance-weighted sampled softmax cross-entropy over a class pattern.

    The functional form of :meth:`CompactSoftmaxHead.loss` (used by the
    property tests): ``pattern`` prunes the
    vocabulary, ``targets`` are always kept, and the loss is the weighted
    cross-entropy described in the module docstring.  With a ``dp == 1``
    pattern this equals the exact dense cross-entropy.
    """
    return _weighted_class_loss(features, weight, bias, targets, pattern,
                                input_pattern, backend)[0]


class CompactSoftmaxHead(LossHead, PatternSite):
    """Sampled-softmax loss head: the class dimension as a pooled pattern site.

    The head is a :class:`~repro.dropout.sampler.PatternSite` whose domain is
    the vocabulary, so
    :meth:`~repro.dropout.sampler.PatternSchedule.from_model` pools it,
    :meth:`~repro.execution.EngineRuntime.bind` reseeds it from the pool-wide
    :class:`~numpy.random.SeedSequence`, and the trainers drive it like every
    other site — one class pattern per iteration, shared across the batch.
    As a :class:`~repro.heads.base.LossHead` it computes the dense loss
    (``execution_mode == "masked"``) until it is bound.

    ``drop_rate`` is the target fraction of vocabulary classes pruned per
    step (the ``ExecutionConfig.loss_head_rate`` knob); the searched period
    distribution realises it in expectation, exactly as for the activation
    patterns.  Training-loss calls fall back to the exact dense path in eval
    mode, under ``"masked"`` execution (the conventional baseline; its
    schedule still installs the head's patterns, so both modes draw one
    stream) and for a zero rate.
    """

    kind = "sampled"

    def __init__(self, vocab_size: int, drop_rate: float = 0.5,
                 max_period: int | None = None,
                 rng: np.random.Generator | None = None):
        if vocab_size <= 0:
            raise ValueError("vocab_size must be positive")
        super().__init__(drop_rate, vocab_size, max_period, rng)
        self.vocab_size = int(vocab_size)
        self._draws = 0
        self._kept_classes = 0

    def make_pattern(self, dp: int, bias: int) -> RowDropoutPattern:
        return row_pattern(self.vocab_size, dp, bias)

    # ------------------------------------------------------------------
    # the sampled loss
    # ------------------------------------------------------------------
    def loss(self, features: Tensor, weight: Tensor, bias: Tensor | None,
             targets: np.ndarray,
             input_pattern: RowDropoutPattern | None = None) -> Tensor:
        if (not self.training or self.target_rate == 0.0
                or self.execution_mode == "masked"):
            # Eval / conventional-baseline semantics: nothing is sampled.
            return self.dense_loss(features, weight, bias, targets,
                                   input_pattern=input_pattern)
        if self.pattern is None:
            self.resample()
        loss, kept = _weighted_class_loss(features, weight, bias, targets,
                                          self.pattern, input_pattern,
                                          self.backend)
        self._draws += 1
        self._kept_classes += kept
        return loss

    def head_counters(self) -> dict[str, int]:
        """Draw / kept-class totals stamped into ``runtime.stats()``."""
        return {"draws": self._draws, "kept_classes": self._kept_classes}

    def __repr__(self) -> str:
        return (f"CompactSoftmaxHead(vocab_size={self.vocab_size}, "
                f"drop_rate={self.target_rate}, max_period={self.max_period})")

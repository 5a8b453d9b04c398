"""Adaptive softmax: two-level class factorization for very large vocabularies.

The sampled head (:mod:`repro.heads.softmax`) prunes the class set uniformly;
at the 50k-500k vocab scale that still leaves the pruned set Zipf-blind — the
handful of classes that absorb most of the probability mass pay the same
sampling treatment as the rare tail.  The adaptive head exploits the skew
directly, following Grave et al. ("Efficient softmax approximation for
GPUs"): the ``shortlist`` most frequent classes get an exact dense
projection every step, and the tail is partitioned into frequency-banded
*clusters*, each represented inside the shortlist softmax by a single
cluster logit and expanded into a within-cluster softmax only when one of
its classes actually appears in the batch targets.

Factorization
-------------

Class ids are assumed frequency-ordered (id 0 most frequent) — true by
construction for the synthetic Zipfian corpus, and the standard adaptive-
softmax convention for real corpora (vocabularies are sorted by count).
The tail ``[shortlist, vocab)`` is split into geometrically sized bands
(small bands for the frequent tail, large for the rare tail) and the
probability of a target factorizes over the two levels:

* a shortlist target ``t < shortlist``:  ``P(t) = P_head(t)``
* a tail target in cluster ``c``:        ``P(t) = P_head(c) * P_c(t)``

``P_head`` is a softmax over ``shortlist + num_clusters`` logits and
``P_c`` a softmax over cluster ``c``'s band.  Both levels are banded slices
of one projection, computed by one
:func:`~repro.dropout.compact_ops.compact_softmax_loss` call: only the
touched weight rows are gathered and receive gradient, in one buffer per
parameter — classes in clusters absent from the batch cost nothing.

Cluster logits are *pilot rows*: cluster ``c``'s head logit is the exact
logit of its most frequent class (the first row of the band).  The head owns
no parameters (the :class:`~repro.heads.base.LossHead` contract — the
projection stays on the model, visible to the optimizer), so reusing a
weight row as the cluster representative keeps the factorization
parameter-free while remaining fully trainable: the pilot row receives
gradient from both levels.

The loss is the batch-mean negative log-likelihood::

    CE_head(all examples)  +  sum_c (n_c / n) * CE_c(examples in cluster c)

which is exactly the mean of the per-example factorized NLLs.

Exactness is never sacrificed where it matters:
:meth:`~repro.heads.base.LossHead.logits` / ``dense_loss`` stay the exact
dense projection (evaluation, perplexity and the serving engine are never
approximated), and eval mode or ``"masked"`` execution fall back to the
dense loss exactly like the sampled head.

Unlike the sampled head, the adaptive head draws no randomness — given the
targets, the computed class set is deterministic — so it is *not* a pattern
site: nothing to pool, reseed or replay, and bit-identical same-seed
histories come for free.
"""

from __future__ import annotations

import numpy as np

from repro.dropout.compact_ops import SoftmaxLevel, compact_softmax_loss
from repro.heads.base import LossHead
from repro.tensor import Tensor, functional as F


def cluster_boundaries(vocab_size: int, shortlist: int,
                       clusters: int) -> np.ndarray:
    """Geometric band edges over the tail ``[shortlist, vocab_size)``.

    Returns a strictly increasing integer array starting at ``shortlist``
    and ending at ``vocab_size``; band ``c`` is ``[edges[c], edges[c+1])``.
    Bands grow geometrically so the frequent tail is split finely and the
    rare tail coarsely — under a Zipfian unigram this roughly balances the
    probability mass per cluster.  Tails too short for the requested cluster
    count simply produce fewer bands (every band holds at least one class).
    """
    if not 0 < shortlist < vocab_size:
        raise ValueError(
            f"shortlist must be in (0, vocab_size), got {shortlist} "
            f"for vocab_size={vocab_size}")
    if clusters < 1:
        raise ValueError(f"clusters must be >= 1, got {clusters}")
    ratio = vocab_size / shortlist
    raw = shortlist * ratio ** (np.arange(clusters + 1) / clusters)
    edges = np.unique(np.round(raw).astype(np.int64))
    edges = np.clip(edges, shortlist, vocab_size)
    return np.unique(edges)


def default_shortlist(vocab_size: int) -> int:
    """The auto shortlist size (``head_shortlist=0``): a quarter of the
    vocabulary, capped at 4096 — under a Zipf exponent near 1 the cap still
    covers the bulk of the probability mass at any realistic vocab."""
    return max(1, min(vocab_size // 4, 4096))


class AdaptiveSoftmaxHead(LossHead):
    """Two-level adaptive-softmax loss head (``loss_head="adaptive"``).

    ``shortlist=0`` selects :func:`default_shortlist`.  The head holds no
    parameters and no RNG — it is configured (``execution_mode`` /
    ``backend``) by :meth:`~repro.execution.EngineRuntime.bind`
    like every head, but it is not a pattern site: the computed class set is
    a deterministic function of the batch targets.
    """

    kind = "adaptive"

    def __init__(self, vocab_size: int, shortlist: int = 0, clusters: int = 4):
        super().__init__()
        if vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
        if shortlist < 0:
            raise ValueError(f"shortlist must be >= 0, got {shortlist}")
        if shortlist >= vocab_size:
            raise ValueError(
                f"shortlist must be < vocab_size ({vocab_size}), got "
                f"{shortlist} (a shortlist covering the whole vocabulary is "
                f"the dense head)")
        if clusters < 1:
            raise ValueError(f"clusters must be >= 1, got {clusters}")
        self.vocab_size = int(vocab_size)
        self.shortlist = int(shortlist) or default_shortlist(vocab_size)
        self.clusters = int(clusters)
        self.cluster_bounds = cluster_boundaries(self.vocab_size,
                                                 self.shortlist, self.clusters)
        self.num_clusters = len(self.cluster_bounds) - 1
        #: Each cluster's representative (most frequent) class: its exact
        #: logit doubles as the cluster logit in the head softmax.
        self.pilots = self.cluster_bounds[:-1].copy()
        #: The head-level class set: the dense shortlist plus one pilot row
        #: per cluster (sorted and duplicate-free by construction — pilots
        #: start at ``shortlist`` and the bounds are strictly increasing).
        self.head_classes = np.concatenate(
            [np.arange(self.shortlist, dtype=np.int64), self.pilots])
        self._steps = 0
        self._cluster_activations = 0
        self._projected_classes = 0

    # ------------------------------------------------------------------
    # the adaptive loss
    # ------------------------------------------------------------------
    def loss(self, features: Tensor, weight: Tensor, bias: Tensor | None,
             targets: np.ndarray,
             input_pattern=None) -> Tensor:
        if not self.training or self.execution_mode == "masked":
            # Eval / conventional-baseline semantics: the exact dense loss.
            return self.dense_loss(features, weight, bias, targets,
                                   input_pattern=input_pattern)
        if weight.shape[0] != self.vocab_size:
            raise ValueError(
                f"head covers {self.vocab_size} classes but the projection "
                f"has {weight.shape[0]} output rows")
        targets = np.asarray(targets).reshape(-1)
        F.check_targets(targets, self.vocab_size)

        # Head-level positions: shortlist targets index themselves, tail
        # targets index their cluster's pilot slot.
        positions = targets.copy()
        tail = targets >= self.shortlist
        tail_indices = np.flatnonzero(tail)
        cluster_of = np.searchsorted(self.cluster_bounds, targets[tail],
                                     side="right") - 1
        positions[tail] = self.shortlist + cluster_of
        levels = [SoftmaxLevel(self.head_classes, positions)]

        active = np.unique(cluster_of)
        projected = len(self.head_classes)
        for cluster in active:
            lo = int(self.cluster_bounds[cluster])
            hi = int(self.cluster_bounds[cluster + 1])
            if hi - lo == 1:
                # A singleton band: the within-cluster softmax is the
                # constant 1 (zero loss, zero gradient) — nothing to compute.
                continue
            members = tail_indices[cluster_of == cluster]
            # Weighting each band's mean by its share of the batch makes the
            # total the mean of the per-example factorized NLLs.
            levels.append(SoftmaxLevel(np.arange(lo, hi, dtype=np.int64),
                                       targets[members] - lo, rows=members,
                                       weight=len(members) / len(targets)))
            projected += hi - lo
        loss = compact_softmax_loss(features, weight, bias, levels,
                                    input_pattern=input_pattern,
                                    backend=self.backend)
        self._steps += 1
        self._cluster_activations += int(len(active))
        self._projected_classes += projected
        return loss

    def head_counters(self) -> dict[str, int]:
        """Step / projected-class / cluster-activation totals for
        ``runtime.stats()`` (``kept_classes`` counts every class row whose
        logit was actually computed, head level plus expanded bands)."""
        return {"draws": self._steps,
                "kept_classes": self._projected_classes,
                "cluster_activations": self._cluster_activations}

    def __repr__(self) -> str:
        return (f"AdaptiveSoftmaxHead(vocab_size={self.vocab_size}, "
                f"shortlist={self.shortlist}, "
                f"clusters={self.num_clusters})")

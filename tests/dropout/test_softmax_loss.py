"""Bit-for-bit tests of the fused compact softmax loss (``compact_softmax_loss``).

The compact heads used to compose their loss on the tape: one class-pruned
gather-GEMM node per softmax level, ``+ log_weights``, ``F.cross_entropy``
per level, then the weighted sum.  The fused op must reproduce that float
sequence exactly, so every test here compares with ``np.array_equal``: the
loss and the feature, weight and bias gradients, in float64 and float32,
with and without an input pattern, with and without a bias, through the
adaptive head (a singleton band and an inactive band) and the sampled head
(one level with log importance weights).
"""

import numpy as np
import pytest

from repro.dropout.compact_ops import SoftmaxLevel, compact_softmax_loss
from repro.dropout.patterns import RowDropoutPattern
from repro.heads import AdaptiveSoftmaxHead, CompactSoftmaxHead, sampled_class_set
from repro.tensor import Tensor, functional as F

HIDDEN = 12


def gathered_linear(x, weight, bias, classes, kept_cols):
    """The composed reference's gather + linear node: ``x @ w.T + b`` over the
    gathered class rows (and the kept input columns).

    ``F.linear`` on a gathered weight computes the weight gradient as
    ``(x.T @ g).T``; BLAS rounds that differently from ``g.T @ x`` on some
    shapes, and the heads have always used the latter, so the reference
    keeps the heads' GEMM orientations: ``x @ w.T``, ``g @ w`` and ``g.T @ x``.
    """
    w = weight.data[classes]
    xs = x.data
    if kept_cols is not None:
        w, xs = w[:, kept_cols], xs[:, kept_cols]
    out = xs @ w.T
    if bias is not None:
        out = out + bias.data[classes]
    cols = slice(None) if kept_cols is None else kept_cols

    def backward_x(grad):
        full = np.zeros(x.shape, dtype=x.dtype)
        full[:, cols] = grad @ w
        return full

    def backward_weight(grad):
        full = np.zeros(weight.shape, dtype=weight.dtype)
        full[np.ix_(classes, np.arange(weight.shape[1])[cols])] = grad.T @ xs
        return full

    def backward_bias(grad):
        full = np.zeros(bias.shape, dtype=bias.dtype)
        full[classes] = grad.sum(axis=0)
        return full

    parents = [(x, backward_x), (weight, backward_weight)]
    if bias is not None:
        parents.append((bias, backward_bias))
    return Tensor.from_op(out, parents, "gathered_linear")


def composed_loss(features, weight, bias, levels, input_pattern=None):
    """Gather, linear, ``+ log_weights`` and ``F.cross_entropy`` per level,
    then the weighted sum — the tape the heads built before the fusion."""
    kept_cols = None if input_pattern is None else input_pattern.kept_indices
    total = None
    for level in levels:
        x = features if level.rows is None else features[level.rows]
        logits = gathered_linear(x, weight, bias, level.classes, kept_cols)
        if level.log_weights is not None:
            logits = logits + Tensor(level.log_weights[None, :],
                                     dtype=level.log_weights.dtype)
        term = F.cross_entropy(logits, level.targets)
        total = term if total is None else total + term * level.weight
    return total


def adaptive_levels(head, targets):
    """The adaptive factorization's levels, derived independently of the
    head: every shortlist target scores in the head level, every tail target
    at its band's pilot slot there and inside its band when the band has more
    than one class."""
    bands = list(zip(head.cluster_bounds[:-1], head.cluster_bounds[1:]))
    positions = targets.copy()
    levels = []
    for band, (lo, hi) in enumerate(bands):
        members = np.flatnonzero((targets >= lo) & (targets < hi))
        positions[members] = head.shortlist + band
        if len(members) and hi - lo > 1:
            levels.append(SoftmaxLevel(np.arange(lo, hi), targets[members] - lo,
                                       rows=members,
                                       weight=len(members) / len(targets)))
    return [SoftmaxLevel(head.head_classes, positions)] + levels


def make_tensors(rng, dtype, vocab, batch, with_bias):
    def tensor(shape, scale):
        return Tensor(rng.normal(size=shape) * scale, requires_grad=True,
                      dtype=dtype)

    return (tensor((batch, HIDDEN), 1.0), tensor((vocab, HIDDEN), 0.3),
            tensor((vocab,), 0.1) if with_bias else None)


def loss_and_grads(loss_fn, tensors):
    for tensor in tensors:
        if tensor is not None:
            tensor.zero_grad()
    loss = loss_fn()
    loss.backward()
    return [np.asarray(loss.data)] + [None if t is None else t.grad.copy()
                                      for t in tensors]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("in_dp", [None, 3])
@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no_bias"])
@pytest.mark.parametrize("head_kind", ["adaptive", "sampled"])
def test_fused_loss_equals_composed_reference(rng, dtype, in_dp, with_bias,
                                              head_kind):
    vocab, batch = 16, 24
    features, weight, bias = make_tensors(rng, dtype, vocab, batch, with_bias)
    input_pattern = RowDropoutPattern(HIDDEN, dp=in_dp, bias=1) if in_dp else None
    if head_kind == "adaptive":
        head = AdaptiveSoftmaxHead(vocab, shortlist=10, clusters=4)
        # Bands [10, 11) and [13, 14) are singletons; [14, 16) gets no target.
        np.testing.assert_array_equal(head.cluster_bounds, [10, 11, 13, 14, 16])
        targets = np.concatenate([rng.integers(0, 10, size=batch - 6),
                                  [10, 11, 12, 12, 13, 11]])
        levels = adaptive_levels(head, targets)
        assert len(levels) == 2  # the head level and the one expanded band
    else:
        head = CompactSoftmaxHead(vocab, drop_rate=0.5)
        head.set_pattern(RowDropoutPattern(vocab, dp=3, bias=2))
        # Targets in the lower half leave kept non-target classes above it.
        targets = rng.integers(0, vocab // 2, size=batch)
        classes, log_weights, positions = sampled_class_set(
            head.pattern, targets, dtype=dtype)
        assert np.any(log_weights)
        levels = [SoftmaxLevel(classes, positions, log_weights=log_weights)]
    head.train()
    head.execution_mode = "compact"

    tensors = [features, weight, bias]
    fused = loss_and_grads(
        lambda: head.loss(features, weight, bias, targets,
                          input_pattern=input_pattern), tensors)
    reference = loss_and_grads(
        lambda: composed_loss(features, weight, bias, levels, input_pattern),
        tensors)
    assert fused[0].dtype == dtype
    for got, expected in zip(fused, reference):
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


def test_upstream_gradient_scales_every_level(rng):
    """A scaled loss (an upstream gradient other than 1) backpropagates the
    same gradients through the fused node as through the composed tape."""
    features, weight, bias = make_tensors(rng, np.float64, 20, 8, True)
    levels = [SoftmaxLevel(np.arange(0, 12), rng.integers(0, 12, size=8)),
              SoftmaxLevel(np.arange(12, 20), np.array([3, 7, 0]),
                           rows=np.array([0, 4, 5]), weight=3 / 8)]
    tensors = [features, weight, bias]
    fused = loss_and_grads(
        lambda: compact_softmax_loss(features, weight, bias, levels) * 0.37,
        tensors)
    reference = loss_and_grads(
        lambda: composed_loss(features, weight, bias, levels) * 0.37, tensors)
    for got, expected in zip(fused, reference):
        assert np.array_equal(got, expected)


class TestValidation:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.x, self.weight, self.bias = make_tensors(rng, np.float64, 10, 4,
                                                      True)

    def loss(self, *levels, **kwargs):
        return compact_softmax_loss(self.x, self.weight, self.bias,
                                    list(levels), **kwargs)

    @pytest.mark.parametrize("target", [-1, 3])
    def test_out_of_range_target_names_target_and_class_count(self, target):
        with pytest.raises(ValueError,
                           match=f"target {target} is out of range for 3 classes"):
            self.loss(SoftmaxLevel(np.array([1, 4, 6]),
                                   np.array([0, target, 2, 1])))

    def test_classes_must_index_the_projection(self):
        with pytest.raises(ValueError, match="output rows"):
            self.loss(SoftmaxLevel(np.array([2, 10]), np.zeros(4, dtype=int)))
        with pytest.raises(ValueError, match="non-empty"):
            self.loss(SoftmaxLevel(np.array([], dtype=int), np.zeros(4, dtype=int)))

    def test_levels_need_one_target_per_row(self):
        with pytest.raises(ValueError, match="target for each"):
            self.loss(SoftmaxLevel(np.arange(5), np.zeros(3, dtype=int)))
        with pytest.raises(ValueError, match="target for each"):
            self.loss(SoftmaxLevel(np.arange(5), np.zeros(0, dtype=int),
                                   rows=np.array([], dtype=int)))
        with pytest.raises(ValueError, match="at least one level"):
            self.loss()

    def test_shape_and_pattern_checks(self):
        level = SoftmaxLevel(np.arange(5), np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match="log_weights"):
            self.loss(SoftmaxLevel(np.arange(5), np.zeros(4, dtype=int),
                                   log_weights=np.zeros(4)))
        with pytest.raises(ValueError, match="input_pattern covers"):
            self.loss(level, input_pattern=RowDropoutPattern(HIDDEN + 1, 2, 0))
        with pytest.raises(ValueError, match="2-D input"):
            compact_softmax_loss(Tensor(np.zeros(HIDDEN)), self.weight, None,
                                 [level])
        with pytest.raises(ValueError, match="feature dimension"):
            compact_softmax_loss(Tensor(np.zeros((4, HIDDEN + 1))),
                                 self.weight, None, [level])

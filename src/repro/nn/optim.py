"""Optimisers and learning-rate schedules.

The paper trains the MLP with SGD + momentum (lr 0.01, momentum 0.9, batch
128) and the LSTM with SGD starting at lr 1.0 with a decaying schedule, so
:class:`SGD` plus :class:`StepLR`/:class:`ExponentialLR` cover the evaluation.
:class:`Adam` is provided for the examples and for users of the library.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.module import Parameter

#: Fixed row-chunk size of the clip-norm accumulation (see ``_grad_sq_norm``).
NORM_CHUNK_ROWS = 256

#: Elements per row block of the SGD update (see ``SGD._apply_dense``): a
#: block's scratch stays in cache while its rows stream through.
UPDATE_BLOCK = 32 * 1024


def _row_blocks(shape: tuple[int, ...]) -> list:
    """Leading-axis slices of about ``UPDATE_BLOCK`` elements (at least one
    row each) covering an array of ``shape``; ``...`` for a 0-d array."""
    if not shape:
        return [...]
    row = max(1, int(np.prod(shape[1:])))
    step = max(1, UPDATE_BLOCK // row)
    return [slice(start, start + step) for start in range(0, shape[0], step)]


def _grad_sq_norm(grad: np.ndarray) -> float:
    """Squared Frobenius norm, accumulated over fixed 256-row chunks.

    The chunking (rather than one flat dot) pins the floating-point summation
    grouping independently of *which* rows are non-zero: an all-zero chunk
    contributes exactly ``+0.0``, so the sparse optimizer can skip chunks
    outside its dirty-row set and still reproduce this function's result bit
    for bit.  1-D gradients and matrices of at most ``NORM_CHUNK_ROWS`` rows
    take the single flat dot, matching the pre-chunking behaviour exactly.
    """
    if grad.ndim < 2 or grad.shape[0] <= NORM_CHUNK_ROWS:
        flat = grad.reshape(-1)
        return float(np.dot(flat, flat))
    total = 0.0
    for start in range(0, grad.shape[0], NORM_CHUNK_ROWS):
        chunk = grad[start:start + NORM_CHUNK_ROWS].reshape(-1)
        total += float(np.dot(chunk, chunk))
    return total


class Optimizer:
    """Base optimiser holding a parameter list and a learning rate."""

    def __init__(self, parameters: Sequence[Parameter], lr: float):
        parameters = list(parameters)
        if not parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = parameters
        self.lr = float(lr)
        self.step_count = 0
        self.grad_clip: float | None = None

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _gradients(self):
        for param in self.parameters:
            grad = param.grad
            if grad is None:
                grad = np.zeros_like(param.data)
            yield param, grad

    def _clip_scale(self) -> float:
        """Global-norm gradient clipping factor (1.0 when clipping disabled).

        Parameters with no gradient contribute exactly zero to the norm, so
        they are skipped outright instead of materialising a zero array per
        missing gradient per step (the old ``_gradients()`` round-trip).
        """
        if self.grad_clip is None:
            return 1.0
        total = 0.0
        for param in self.parameters:
            if param.grad is not None:
                total += _grad_sq_norm(param.grad)
        norm = float(np.sqrt(total))
        if norm <= self.grad_clip or norm == 0.0:
            return 1.0
        return self.grad_clip / norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: Sequence[Parameter], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0,
                 grad_clip: float | None = None):
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.grad_clip = grad_clip
        # Momentum buffers are materialised on first use (many parameters
        # never see a gradient in compact runs; their velocity stays an
        # implicit exact zero).
        self._velocity: list[np.ndarray | None] = [None] * len(self.parameters)
        #: Reused scratch blocks of the update, keyed by ``(slot, dtype)``.
        self._scratch: dict = {}

    def step(self) -> None:
        self.step_count += 1
        clip_scale = self._clip_scale()
        for index, param in enumerate(self.parameters):
            self._apply_dense(index, param, clip_scale)

    def _velocity_buffer(self, index: int, param: Parameter) -> np.ndarray:
        """The momentum buffer of parameter ``index`` (materialised on demand)."""
        velocity = self._velocity[index]
        if velocity is None:
            velocity = self._velocity[index] = np.zeros_like(param.data)
        return velocity

    def _block(self, slot: int, dtype, like: np.ndarray) -> np.ndarray:
        """Scratch block ``slot`` of ``dtype`` shaped like ``like`` (reused)."""
        buffer = self._scratch.get((slot, dtype))
        if buffer is None or buffer.size < like.size:
            buffer = np.empty(max(like.size, UPDATE_BLOCK), dtype)
            self._scratch[slot, dtype] = buffer
        return buffer[:like.size].reshape(like.shape)

    def _apply_dense(self, index: int, param: Parameter,
                     clip_scale: float) -> None:
        """The dense per-parameter update — the reference the sparse path
        must match bit for bit.

        Per element: ``v = v * m + (g * clip + wd * p)``, then
        ``p -= lr * v`` (``p -= lr * (g * clip + wd * p)`` without
        momentum), each term skipped when its factor is neutral and every
        intermediate in the dtype numpy gives the whole-array expression.
        The parameter is walked in row blocks of about ``UPDATE_BLOCK``
        elements through reused scratch blocks, so the update streams
        ``p``, ``g`` and ``v`` once and allocates nothing after its first
        step.  A missing gradient is an exact zero: no array is
        materialised, weight decay still applies and a live momentum
        buffer still decays.
        """
        grad, data = param.grad, param.data
        decay, momentum = self.weight_decay, self.momentum
        if grad is None and not decay:
            velocity = self._velocity[index] if momentum else None
            if velocity is None:
                return
        else:
            velocity = self._velocity_buffer(index, param) if momentum else None
        if grad is not None:
            # The dtype numpy gives ``g * clip + wd * p`` as a whole.
            term_dtype = (grad.dtype if clip_scale == 1.0
                          else np.result_type(grad.dtype, clip_scale))
            if decay:
                term_dtype = np.result_type(term_dtype, data.dtype)
        for rows in _row_blocks(data.shape):
            p = data[rows]
            term = None if grad is None else grad[rows]
            if term is not None and clip_scale != 1.0:
                term = np.multiply(term, clip_scale,
                                   out=self._block(0, term_dtype, p))
            if decay:
                decayed = np.multiply(p, decay, out=self._block(1, p.dtype, p))
                term = decayed if term is None else np.add(
                    term, decayed, out=self._block(0, term_dtype, p))
            if velocity is not None:
                v = velocity[rows]
                v *= momentum
                if term is not None:
                    v += term
                term = v
            # lr * update in the update's dtype; the subtract casts.
            p -= np.multiply(term, self.lr, out=self._block(0, term.dtype, p))


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba) for convenience in examples."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0, grad_clip: float | None = None):
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        clip_scale = self._clip_scale()
        for index, (param, grad) in enumerate(self._gradients()):
            if clip_scale != 1.0:
                grad = grad * clip_scale
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            self._m[index] = self.beta1 * self._m[index] + (1 - self.beta1) * grad
            self._v[index] = self.beta2 * self._v[index] + (1 - self.beta2) * grad * grad
            m_hat = self._m[index] / (1 - self.beta1 ** t)
            v_hat = self._v[index] / (1 - self.beta2 ** t)
            # In-place: keep the parameter array's identity (views, momentum
            # buffers and the runtime's dtype cast all rely on it) and avoid
            # allocating a fresh parameter-sized array per step.
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class LRSchedule:
    """Base class for learning-rate schedules driving an optimiser in place."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> float:
        """Advance one epoch and return the new learning rate.

        The optimiser constructor enforces ``lr > 0`` but only at
        construction time; a schedule whose ``lr_at`` underflows to zero (or
        a custom one returning a non-positive value) would silently break
        that invariant mid-run.  Validate here so it holds across every
        schedule boundary.
        """
        self.epoch += 1
        new_lr = float(self.lr_at(self.epoch))
        if not new_lr > 0.0 or not np.isfinite(new_lr):
            raise ValueError(
                f"{type(self).__name__}.lr_at({self.epoch}) returned {new_lr}; "
                "schedules must keep the learning rate positive and finite")
        self.optimizer.lr = new_lr
        return new_lr

    def lr_at(self, epoch: int) -> float:
        raise NotImplementedError


class ConstantLR(LRSchedule):
    """Learning rate that never changes."""

    def lr_at(self, epoch: int) -> float:
        return self.base_lr


class StepLR(LRSchedule):
    """Multiply the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5):
        super().__init__(optimizer)
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.step_size = step_size
        self.gamma = gamma

    def lr_at(self, epoch: int) -> float:
        return self.base_lr * (self.gamma ** (epoch // self.step_size))


class ExponentialLR(LRSchedule):
    """Multiply the learning rate by ``gamma`` every epoch after a warm period.

    Mirrors the classic PTB LSTM recipe the paper follows ("the base learning
    rate will gradually decrease"): constant for ``flat_epochs`` epochs, then
    exponential decay.
    """

    def __init__(self, optimizer: Optimizer, gamma: float = 0.8, flat_epochs: int = 4):
        super().__init__(optimizer)
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        self.gamma = gamma
        self.flat_epochs = flat_epochs

    def lr_at(self, epoch: int) -> float:
        if epoch <= self.flat_epochs:
            return self.base_lr
        return self.base_lr * (self.gamma ** (epoch - self.flat_epochs))

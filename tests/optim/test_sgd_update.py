"""Tests for the blocked dense SGD update (``SGD._apply_dense``).

The update walks each parameter in row blocks through reused scratch
blocks.  It must reproduce the whole-array formula below bit for bit — the
same float operations in the same dtypes — and allocate nothing once its
scratch exists.
"""

import tracemalloc

import numpy as np
import pytest

from repro.nn import optim
from repro.nn.module import Parameter
from repro.nn.optim import SGD


def unblocked_update(data, grad, velocity, lr, momentum, weight_decay,
                     clip_scale):
    """The whole-array update, one temporary per operation.

    Returns the new velocity (``None`` while it is not materialised);
    ``data`` is updated in place.
    """
    if grad is None:
        if weight_decay:
            grad_term = weight_decay * data
        elif momentum:
            if velocity is not None:
                velocity *= momentum
                data -= lr * velocity
            return velocity
        else:
            return velocity
    else:
        grad_term = grad * clip_scale if clip_scale != 1.0 else grad
        if weight_decay:
            grad_term = grad_term + weight_decay * data
    if momentum:
        if velocity is None:
            velocity = np.zeros_like(data)
        velocity *= momentum
        velocity += grad_term
        update = velocity
    else:
        update = grad_term
    data -= lr * update
    return velocity


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def make_case(rng, dtype):
    """``(data, grad-or-None)`` pairs covering the layouts the update meets."""
    def normal(shape, kind=dtype):
        return rng.normal(size=shape).astype(kind)

    other = np.float64 if dtype == np.float32 else np.float32
    return [
        (normal((70, 33)), normal((70, 33))),               # ragged last block
        (normal((37,)), normal((37,))),                     # 1-D
        (normal((50, 20)), None),                           # missing gradient
        (normal((41, 9)), np.asfortranarray(normal((41, 9)))),  # F-ordered grad
        (normal((3, 250)), normal((3, 250))),               # row > block
        (normal((16, 6)), normal((16, 6), other)),          # mixed dtypes
        (normal(()), normal(())),                           # 0-d
    ]


class TestBlockedUpdateMatchesWholeArray:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("grad_clip", [None, 0.5])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_bit_identical(self, rng, monkeypatch, dtype, grad_clip,
                           weight_decay, momentum):
        # A small block puts several blocks (and a ragged last one) in every
        # parameter.
        monkeypatch.setattr(optim, "UPDATE_BLOCK", 64)
        case = make_case(rng, dtype)
        params = [Parameter(data.copy(), dtype=dtype) for data, _ in case]
        reference = [data.copy() for data, _ in case]
        velocities = [None] * len(case)
        optimizer = SGD(params, lr=0.1, momentum=momentum,
                        weight_decay=weight_decay, grad_clip=grad_clip)
        for step in range(3):
            grads = [None if g is None else g * (step + 1) for _, g in case]
            for param, grad in zip(params, grads):
                param.grad = grad
            clip_scale = optimizer._clip_scale()
            if grad_clip is not None:
                assert clip_scale < 1.0     # the clip engages
            optimizer.step()
            for i, grad in enumerate(grads):
                velocities[i] = unblocked_update(
                    reference[i], grad, velocities[i], 0.1, momentum,
                    weight_decay, clip_scale)
            for param, expected in zip(params, reference):
                assert same_bits(param.data, expected)
            for i, expected in enumerate(velocities):
                if expected is None:
                    assert optimizer._velocity[i] is None
                else:
                    assert same_bits(optimizer._velocity[i], expected)

    def test_blocks_cover_every_row_once(self, monkeypatch):
        monkeypatch.setattr(optim, "UPDATE_BLOCK", 64)
        for shape in [(70, 33), (37,), (3, 250), (64, 1), (1, 64)]:
            covered = np.concatenate([np.arange(shape[0])[rows]
                                      for rows in optim._row_blocks(shape)])
            assert np.array_equal(covered, np.arange(shape[0]))
        assert optim._row_blocks(()) == [...]


class TestUpdateAllocatesNothing:
    @pytest.mark.parametrize("kwargs", [dict(momentum=0.9),
                                        dict(momentum=0.9, grad_clip=0.5),
                                        dict(weight_decay=0.01, grad_clip=0.5)])
    def test_second_step_peaks_below_parameter_size(self, rng, kwargs):
        param = Parameter(rng.normal(size=(2048, 512)))
        param.grad = rng.normal(size=(2048, 512))
        optimizer = SGD([param], lr=0.01, **kwargs)
        optimizer.step()      # materialises the velocity and the scratch
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            optimizer.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < param.data.nbytes

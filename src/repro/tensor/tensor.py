"""Core reverse-mode autodiff tensor.

The :class:`Tensor` class wraps a numpy array and records the operations
applied to it so that gradients can later be propagated with
:meth:`Tensor.backward`.  The implementation deliberately stays small and
explicit: each differentiable operation builds a list of
``(parent, backward_fn)`` pairs, where ``backward_fn`` maps the gradient of
the operation's output to the gradient contribution for that parent.

Broadcasting is supported for elementwise arithmetic; gradients flowing into a
broadcast operand are reduced back to the operand's shape by
:func:`_unbroadcast`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable

import numpy as np

from repro.tensor import dirty as _dirty

# Per-thread, not global: the serving path runs eval-mode forwards under
# no_grad() from batcher worker threads and concurrent load-generator
# threads.  With one shared flag, two overlapping no_grad() blocks race on
# the save/restore (the later entrant saves False and restores it last,
# disabling the tape permanently), and a worker's no_grad() would silently
# eat the tape of a training step on another thread.
_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    """Return whether gradient recording is active on this thread."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tape recording (per thread).

    Used by evaluation loops, the frozen inference engine and the GPU
    cost-model probes, where building the tape would only waste memory.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _adopt_or_copy(grad: np.ndarray, walk_owned: bool) -> np.ndarray:
    """The array to store as a leaf's ``.grad`` for accumulated ``grad``.

    A defensive copy protects against gradient arrays some other owner may
    still write.  It can be skipped when the array is private: either the
    backward walk allocated it itself (``walk_owned``), or the allocating op
    marked it as a one-shot fresh buffer
    (:func:`repro.tensor.dirty.mark_transferable`).
    """
    if walk_owned or _dirty.is_transferable(grad):
        return grad
    return grad.copy()


def _as_array(value, dtype=np.float64) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.  Stored as ``float64`` by default so
        gradient checks are reliable; callers that care about memory can pass
        ``dtype=np.float32``.
    requires_grad:
        If ``True`` the tensor participates in the autodiff tape and receives
        a ``.grad`` array after ``backward``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_op_name")
    __array_priority__ = 100  # make numpy defer to Tensor's reflected ops

    def __init__(self, data, requires_grad: bool = False, dtype=np.float64):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._parents: list[tuple["Tensor", Callable[[np.ndarray], np.ndarray]]] = []
        self._op_name: str = "leaf"

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, rng: np.random.Generator | None = None,
              scale: float = 1.0, requires_grad: bool = False) -> "Tensor":
        rng = rng or np.random.default_rng()
        return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)

    @staticmethod
    def from_op(data: np.ndarray,
                parents: Iterable[tuple["Tensor", Callable[[np.ndarray], np.ndarray]]],
                op_name: str) -> "Tensor":
        """Build a non-leaf tensor produced by a differentiable operation.

        The computed dtype is preserved (no silent upcast to float64), so a
        float32 execution path stays float32 through every op.
        """
        data = np.asarray(data)
        parents = [(p, fn) for p, fn in parents if p.requires_grad]
        requires_grad = bool(parents) and is_grad_enabled()
        out = Tensor(data, requires_grad=requires_grad, dtype=data.dtype)
        if requires_grad:
            out._parents = parents
            out._op_name = op_name
        return out

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op_name}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # autodiff
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.  For
            scalar outputs it defaults to 1.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        topo: list[Tensor] = []
        visited: set[int] = set()

        # Iterative topological sort to avoid recursion limits on deep graphs
        # (BPTT over long sequences can create thousands of nodes).
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        # Keys whose accumulated array this walk allocated itself (via
        # ``previous + contribution``): those are private to the walk, so
        # later contributions may be added in place and a leaf may adopt
        # the array as ``.grad`` without a defensive copy.
        owned: set[int] = set()
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if not node._parents:
                # leaf: accumulate into .grad.  The dirty-region propagation
                # mirrors the data flow exactly (copy = alias, add = union)
                # so the sparse optimizer sees the region of the final
                # ``.grad`` array, not of the scatter buffer it came from.
                if node.grad is None:
                    node.grad = _adopt_or_copy(node_grad,
                                               id(node) in owned)
                    _dirty.propagate_alias(node.grad, node_grad)
                else:
                    previous = node.grad
                    node.grad = node.grad + node_grad
                    _dirty.propagate_sum(node.grad, previous, node_grad)
                continue
            for parent, backward_fn in node._parents:
                contribution = backward_fn(node_grad)
                if contribution is None:
                    continue
                contribution = np.asarray(contribution)
                key = id(parent)
                if key in grads:
                    previous = grads[key]
                    if (key in owned
                            and previous.shape == contribution.shape
                            and previous.dtype == contribution.dtype):
                        # In-place accumulate into the walk-private array
                        # (bitwise the same ufunc as ``previous +
                        # contribution``, minus the allocation).
                        previous += contribution
                        _dirty.propagate_sum(previous, previous, contribution)
                    else:
                        grads[key] = previous + contribution
                        owned.add(key)
                        _dirty.propagate_sum(grads[key], previous, contribution)
                else:
                    grads[key] = contribution

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _binary(self, other, forward, backward_self, backward_other, name: str) -> "Tensor":
        # Non-tensor operands (python scalars, lists, arrays) adopt this
        # tensor's dtype so constants never upcast a float32 graph to float64.
        other_t = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        out_data = forward(self.data, other_t.data)
        parents = [
            (self, lambda g, s=self: _unbroadcast(backward_self(g, self.data, other_t.data), s.shape)),
            (other_t, lambda g, o=other_t: _unbroadcast(backward_other(g, self.data, other_t.data), o.shape)),
        ]
        return Tensor.from_op(out_data, parents, name)

    def __add__(self, other) -> "Tensor":
        return self._binary(other, lambda a, b: a + b,
                            lambda g, a, b: g, lambda g, a, b: g, "add")

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other) -> "Tensor":
        return self._binary(other, lambda a, b: a - b,
                            lambda g, a, b: g, lambda g, a, b: -g, "sub")

    def __rsub__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        return other_t.__sub__(self)

    def __mul__(self, other) -> "Tensor":
        return self._binary(other, lambda a, b: a * b,
                            lambda g, a, b: g * b, lambda g, a, b: g * a, "mul")

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        return self._binary(other, lambda a, b: a / b,
                            lambda g, a, b: g / b,
                            lambda g, a, b: -g * a / (b * b), "div")

    def __rtruediv__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        return other_t.__truediv__(self)

    def __neg__(self) -> "Tensor":
        return Tensor.from_op(-self.data, [(self, lambda g: -g)], "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log explicitly")
        exponent = float(exponent)
        out_data = self.data ** exponent
        return Tensor.from_op(
            out_data,
            [(self, lambda g: g * exponent * self.data ** (exponent - 1))],
            "pow",
        )

    # comparison operators return plain boolean arrays (no gradient)
    def __gt__(self, other):
        return self.data > _as_array(other)

    def __ge__(self, other):
        return self.data >= _as_array(other)

    def __lt__(self, other):
        return self.data < _as_array(other)

    def __le__(self, other):
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------
    # linear algebra / shaping
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        a, b = self.data, other_t.data
        out = a @ b
        parents = [
            (self, lambda g: _matmul_backward_a(g, a, b)),
            (other_t, lambda g: _matmul_backward_b(g, a, b)),
        ]
        return Tensor.from_op(out, parents, "matmul")

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        out = np.transpose(self.data, axes)
        if axes is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(axes))
        return Tensor.from_op(
            out, [(self, lambda g: np.transpose(g, inverse))], "transpose")

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out = self.data.reshape(shape)
        return Tensor.from_op(out, [(self, lambda g: g.reshape(original))], "reshape")

    def __getitem__(self, index) -> "Tensor":
        out = self.data[index]
        # Basic indices (ints, slices, ellipsis) select each element at most
        # once, so the gradient scatter can use a buffered `+=` instead of
        # np.add.at — the unbuffered ufunc loop is an order of magnitude
        # slower and only needed when integer-array indices may repeat.
        parts = index if isinstance(index, tuple) else (index,)
        duplicate_free = all(
            isinstance(part, (int, np.integer, slice)) or part is Ellipsis
            or part is None for part in parts)

        def backward(g, index=index):
            full = np.zeros(self.data.shape, dtype=self.data.dtype)
            if duplicate_free:
                # Plain assignment: the buffer is fresh zeros and each
                # element is selected at most once, so ``=`` equals ``+=``
                # without the read-modify-write pass.
                full[index] = g
            else:
                np.add.at(full, index, g)
            return full

        return Tensor.from_op(out, [(self, backward)], "getitem")

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g, axis=axis, keepdims=keepdims):
            if axis is None:
                return np.broadcast_to(g, self.data.shape).copy()
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(g_expanded, self.data.shape).copy()

        return Tensor.from_op(out, [(self, backward)], "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= self.data.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g, axis=axis, keepdims=keepdims):
            out_expanded = out if (keepdims or axis is None) else np.expand_dims(out, axis)
            mask = (self.data == out_expanded).astype(self.data.dtype)
            # Split gradient equally among ties (matches numerical gradient).
            counts = mask.sum(axis=axis, keepdims=True)
            g_expanded = g if (keepdims or axis is None) else np.expand_dims(g, axis)
            return mask * g_expanded / counts

        return Tensor.from_op(out, [(self, backward)], "max")

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out = np.exp(self.data)
        return Tensor.from_op(out, [(self, lambda g: g * out)], "exp")

    def log(self) -> "Tensor":
        out = np.log(self.data)
        return Tensor.from_op(out, [(self, lambda g: g / self.data)], "log")

    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.data)
        return Tensor.from_op(out, [(self, lambda g: g * 0.5 / out)], "sqrt")

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(self.data.dtype)
        out = self.data * mask
        return Tensor.from_op(out, [(self, lambda g: g * mask)], "relu")

    def sigmoid(self) -> "Tensor":
        out = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor.from_op(out, [(self, lambda g: g * out * (1.0 - out))], "sigmoid")

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)
        return Tensor.from_op(out, [(self, lambda g: g * (1.0 - out * out))], "tanh")

    def clip(self, low: float, high: float) -> "Tensor":
        out = np.clip(self.data, low, high)
        mask = ((self.data >= low) & (self.data <= high)).astype(self.data.dtype)
        return Tensor.from_op(out, [(self, lambda g: g * mask)], "clip")


def _matmul_backward_a(grad: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if b.ndim == 1:
        # (..., n) = (..., n?) — outer-product style
        return np.outer(grad, b) if a.ndim == 2 else grad[..., None] * b
    out = grad @ np.swapaxes(b, -1, -2)
    return _unbroadcast(out, a.shape)


def _matmul_backward_b(grad: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim == 1:
        return np.outer(a, grad) if b.ndim == 2 else a[..., None] * grad
    out = np.swapaxes(a, -1, -2) @ grad
    return _unbroadcast(out, b.shape)

"""Dirty-region tracking behind the pattern-aware sparse optimizer.

The compact ops already know exactly which rows/columns of each gradient
buffer they write — every full-size gradient starts as a zero-filled scatter
buffer and receives one (or a few) compact scatters.  This module records
that knowledge as a *dirty region* per array, so the optimizer
(:class:`repro.optim_sparse.SparseSGD`) can restrict its update arithmetic to
the touched rows/columns and still produce **bit-identical** results to the
dense update path.

A region is one of four tuples:

* ``("empty",)`` — the array was allocated zero-filled and nothing has been
  written to it yet;
* ``("rows", idx)`` — only the first-axis indices ``idx`` may be non-zero;
* ``("cols", idx)`` — only the last-axis indices ``idx`` may be non-zero;
* ``("full",)`` — anything may be non-zero (dense fallback).

Two invariants make the optimizer's skipping sound:

1. **Overapproximation** — a recorded region is a *superset* of the written
   elements.  Elements inside the region that were never written hold exactly
   ``+0.0`` (the buffer was zero-filled), and applying the full update math to
   a zero gradient reproduces the dense result bit for bit, so growing the
   region never changes the answer.
2. **Complement-is-zero** — every element *outside* the region is exactly
   ``+0.0``.  This is what lets the clip-norm accumulation skip whole chunks
   and the update skip whole rows.

Arrays with no recorded region are *unknown* — the optimizer falls back to
the dense update for them, which is always correct.

The tracker holds a strong reference to every array it has keyed, so a keyed
``id()`` can never be recycled by a new allocation while the record is alive;
:meth:`DirtyTracker.clear` (called from ``SparseSGD.zero_grad``) releases
them once per step.

Recording is routed through the module-level helpers (``record_rows`` and
friends), which are no-ops unless a tracker has been :func:`activate`-d —
dense-optimizer runs pay one ``is None`` check per scatter and nothing else.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

_EMPTY: tuple = ("empty",)
_FULL: tuple = ("full",)


def _merge(a: tuple, b: tuple) -> tuple:
    """Union of two regions (promotes to ``("full",)`` on kind mismatch)."""
    if a is _EMPTY or a[0] == "empty":
        return b
    if b is _EMPTY or b[0] == "empty":
        return a
    if a[0] == "full" or b[0] == "full" or a[0] != b[0]:
        return _FULL
    if a[1] is b[1]:
        return a
    return (a[0], np.union1d(a[1], b[1]))


class DirtyTracker:
    """Per-step map from gradient-array identity to its dirty region.

    One tracker belongs to one :class:`~repro.execution.EngineRuntime` /
    :class:`~repro.optim_sparse.SparseSGD` pair.  The optimizer activates it
    for the ``zero_grad -> backward -> step`` window of each iteration; the
    scatter hooks in :mod:`repro.backends.base`, the op-level records in
    :mod:`repro.tensor.functional` / :mod:`repro.dropout.compact_ops` and the
    accumulation hooks in :meth:`repro.tensor.Tensor.backward` feed it.

    The tracker also carries the update-observer registry the recurrent
    window-context cache hangs off: after each parameter update the sparse
    optimizer calls :meth:`notify_update` with the touched region, so caches
    of gathered weight tiles can refresh only the dirtied rows.
    """

    def __init__(self):
        self._regions: dict[int, tuple] = {}
        self._refs: dict[int, np.ndarray] = {}
        self._transferable: set[int] = set()
        self._observers: dict[object, Callable[[np.ndarray, str, Any], None]] = {}
        #: Cumulative counters (never cleared by :meth:`clear`).
        self.records = 0
        self.resets = 0

    # ------------------------------------------------------------------
    # per-step lifecycle
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every region record and array reference (start of a step)."""
        self._regions.clear()
        self._refs.clear()
        self._transferable.clear()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _set(self, array: np.ndarray, region: tuple) -> None:
        key = id(array)
        self._regions[key] = region
        self._refs[key] = array

    def record_reset(self, array: np.ndarray) -> None:
        """``array`` was just (re)filled with zeros."""
        self.resets += 1
        self._set(array, _EMPTY)

    def record_rows(self, array: np.ndarray, rows: np.ndarray) -> None:
        """First-axis indices ``rows`` of ``array`` may now be non-zero."""
        self.records += 1
        existing = self._regions.get(id(array))
        region = ("rows", np.asarray(rows))
        self._set(array, region if existing is None else _merge(existing, region))

    def record_cols(self, array: np.ndarray, cols: np.ndarray) -> None:
        """Last-axis indices ``cols`` of ``array`` may now be non-zero."""
        self.records += 1
        existing = self._regions.get(id(array))
        region = ("cols", np.asarray(cols))
        self._set(array, region if existing is None else _merge(existing, region))

    def record_full(self, array: np.ndarray) -> None:
        """Anything in ``array`` may be non-zero."""
        self.records += 1
        self._set(array, _FULL)

    # ------------------------------------------------------------------
    # propagation (autodiff accumulation hooks)
    # ------------------------------------------------------------------
    def propagate_alias(self, dst: np.ndarray, src: np.ndarray) -> None:
        """``dst`` is an elementwise copy of ``src`` — same region."""
        region = self._regions.get(id(src))
        if region is not None:
            self._set(dst, region)

    def propagate_sum(self, dst: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        """``dst = a + b`` — region is the union, unknown if either is."""
        ra = self._regions.get(id(a))
        if ra is None:
            return
        rb = self._regions.get(id(b))
        if rb is None:
            return
        self._set(dst, _merge(ra, rb))

    def mark_transferable(self, array: np.ndarray) -> None:
        """``array`` is a freshly allocated scatter buffer nothing else reuses.

        A fresh allocation has no second writer, so the backward pass may
        adopt it as ``.grad`` without the defensive copy.  Only meaningful for
        arrays the tracker holds a reference to (the mark is keyed by ``id``).
        """
        self._transferable.add(id(array))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def region_of(self, array: np.ndarray) -> tuple | None:
        """The recorded region of ``array``, or ``None`` when unknown."""
        return self._regions.get(id(array))

    def is_transferable(self, array: np.ndarray) -> bool:
        """Whether ``array`` was marked as an adoptable fresh buffer."""
        return id(array) in self._transferable

    # ------------------------------------------------------------------
    # update observers (weight-tile context caches)
    # ------------------------------------------------------------------
    def set_observer(self, key: object,
                     observer: Callable[[np.ndarray, str, Any], None]) -> None:
        """Register ``observer(param_array, kind, indices)`` under ``key``.

        Re-registering the same key replaces the previous observer, so a
        site re-bound to the runtime never accumulates stale callbacks.
        """
        self._observers[key] = observer

    def clear_observers(self) -> None:
        self._observers.clear()

    def notify_update(self, array: np.ndarray, kind: str, indices) -> None:
        """Tell observers ``array`` was updated on region ``(kind, indices)``.

        ``kind`` is ``"rows"`` / ``"cols"`` / ``"full"``; ``indices`` is the
        touched index array (``None`` for ``"full"``).
        """
        for observer in self._observers.values():
            observer(array, kind, indices)

    def stats(self) -> dict[str, int]:
        return {"records": self.records, "resets": self.resets}


# ----------------------------------------------------------------------
# module-global activation window
# ----------------------------------------------------------------------

_ACTIVE: DirtyTracker | None = None


def activate(tracker: DirtyTracker) -> None:
    """Route subsequent records to ``tracker`` (one active tracker at a time)."""
    global _ACTIVE
    _ACTIVE = tracker


def deactivate(tracker: DirtyTracker | None = None) -> None:
    """Stop recording (only if ``tracker`` is the active one, when given)."""
    global _ACTIVE
    if tracker is None or _ACTIVE is tracker:
        _ACTIVE = None


def active_tracker() -> DirtyTracker | None:
    return _ACTIVE


# Cheap hook entry points: one attribute load + ``is None`` test when no
# tracker is active, so the dense paths stay unaffected.

def record_reset(array: np.ndarray) -> None:
    tracker = _ACTIVE
    if tracker is not None:
        tracker.record_reset(array)


def record_rows(array: np.ndarray, rows) -> None:
    tracker = _ACTIVE
    if tracker is not None:
        tracker.record_rows(array, rows)


def record_cols(array: np.ndarray, cols) -> None:
    tracker = _ACTIVE
    if tracker is not None:
        tracker.record_cols(array, cols)


def record_full(array: np.ndarray) -> None:
    tracker = _ACTIVE
    if tracker is not None:
        tracker.record_full(array)


def propagate_alias(dst: np.ndarray, src: np.ndarray) -> None:
    tracker = _ACTIVE
    if tracker is not None:
        tracker.propagate_alias(dst, src)


def propagate_sum(dst: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    tracker = _ACTIVE
    if tracker is not None:
        tracker.propagate_sum(dst, a, b)


def mark_transferable(array: np.ndarray) -> None:
    tracker = _ACTIVE
    if tracker is not None:
        tracker.mark_transferable(array)


def is_transferable(array: np.ndarray) -> bool:
    tracker = _ACTIVE
    return tracker is not None and tracker.is_transferable(array)


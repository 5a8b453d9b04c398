"""In-memory span tracer, self-time arithmetic and Chrome Trace Event export.

The tracer records spans around calls the benchmark wraps from outside the
program: a span has a name, start and end (``time.perf_counter`` seconds), the
index of the span that was open on the same thread when it started (its
parent), the thread it ran on, and free-form ``args`` (the step or request id,
operand shapes, ...).  Spans stay in memory and are written out once, at the
end of a run.

Wrapping works on instances (a bound method shadowed by an instance
attribute) and on classes (for ``__slots__`` types such as ``Tensor``);
:meth:`Tracer.restore` undoes every patch in reverse order.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    tid: int = 0
    args: dict[str, Any] = field(default_factory=dict)
    #: Set for spans that overlap others on the same thread (request
    #: lifetimes); exported as Chrome async events keyed by this id.
    async_id: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, bool, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, span: Span) -> int:
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def begin(self, name: str, **args) -> int:
        stack = self._stack()
        index = self._append(Span(name=name, start=self.clock(),
                                  parent=stack[-1] if stack else -1,
                                  tid=threading.get_ident(), args=args))
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        else:
            stack.remove(index)

    @contextmanager
    def span(self, name: str, **args):
        index = self.begin(name, **args)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def record(self, name: str, start: float, end: float, *,
               async_id: int | None = None, **args) -> None:
        """Add a span measured elsewhere (no parent, e.g. a request's queue wait)."""
        self._append(Span(name=name, start=start, end=end,
                          tid=threading.get_ident(), args=args,
                          async_id=async_id))

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, name: str,
             args_fn: Callable[..., dict] | None = None,
             result_fn: Callable[[Any, Span], None] | None = None) -> Callable:
        """``fn`` recorded as span ``name``.

        ``args_fn(*args, **kwargs)`` adds span args from the call's
        arguments; ``result_fn(result, span)`` may annotate the span from
        the return value.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name, **(args_fn(*args, **kwargs) if args_fn else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if result_fn is not None:
                result_fn(result, self.spans[index])
            return result
        return traced

    def patch(self, owner: Any, attr: str, name: str, **wrap_kwargs) -> None:
        """Replace ``owner.attr`` by its traced wrapper until :meth:`restore`."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else None
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **wrap_kwargs))
        self._patches.append((owner, attr, own, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_ms(self, name: str) -> float:
        return 1000.0 * sum(s.duration for s in self.named(name))

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(chrome_trace(self.spans), handle)


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _children(spans: Sequence[Span]) -> dict[int, list[tuple[float, float]]]:
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return children


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = _children(spans)
    return [span.duration - _covered(children.get(i, ()), span.start, span.end)
            for i, span in enumerate(spans)]


def child_coverage(spans: Sequence[Span], name: str) -> float:
    """Share of the total duration of spans ``name`` that their children cover."""
    children = _children(spans)
    total = covered = 0.0
    for i, span in enumerate(spans):
        if span.name == name:
            total += span.duration
            covered += _covered(children.get(i, ()), span.start, span.end)
    return covered / total if total else 0.0


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def chrome_trace(spans: Sequence[Span]) -> dict:
    """Spans as Chrome Trace Event JSON (opens in Perfetto or chrome://tracing)."""
    origin = min((s.start for s in spans), default=0.0)
    tids: dict[int, int] = {}
    events = []
    for span in spans:
        tid = tids.setdefault(span.tid, len(tids) + 1)
        args = {k: _jsonable(v) for k, v in span.args.items()}
        ts = (span.start - origin) * 1e6
        if span.async_id is not None:
            base = {"name": span.name, "cat": "request", "pid": 1, "tid": tid,
                    "id": span.async_id}
            events.append({**base, "ph": "b", "ts": ts, "args": args})
            events.append({**base, "ph": "e", "ts": (span.end - origin) * 1e6})
        else:
            events.append({"name": span.name, "ph": "X", "pid": 1, "tid": tid,
                           "ts": ts, "dur": span.duration * 1e6, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}

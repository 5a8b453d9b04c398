"""Worker-process environment helpers for the data-parallel trainer.

The :class:`~repro.distributed.trainer.DistributedTrainer` needs two pieces
of process hygiene for its workers:

* **BLAS thread domains.**  Each worker should own ``cpu_count // workers``
  BLAS threads instead of every process fighting over the full pool.  The
  thread caps must be exported in the *parent* before the spawn-context
  children are started: they inherit the environment at exec time, so their
  numpy/BLAS reads the caps on first import.  (Setting them inside the child
  would be too late — resolving the worker function already imports numpy.)
  The parent's own, already-initialized BLAS pool is unaffected.

* **Spawn context.**  Workers are started with the ``spawn`` start method —
  a fresh interpreter per worker, no forked BLAS/thread state, identical
  behaviour across platforms.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from contextlib import contextmanager
from typing import Iterator

#: Environment variables that bound a process's BLAS/threading domain.
BLAS_THREAD_VARS: tuple[str, ...] = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def thread_domain(workers: int) -> int:
    """BLAS threads each of ``workers`` processes should own (at least 1)."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return max(1, (os.cpu_count() or 1) // workers)


@contextmanager
def pinned_blas_env(workers: int) -> Iterator[int]:
    """Export per-worker BLAS thread caps for the duration of the block.

    Yields the per-worker thread count.  Start every worker process *inside*
    the block (they snapshot the environment at exec time); the previous
    values are restored on exit, so the parent process and later spawns are
    unaffected.
    """
    threads = thread_domain(workers)
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    try:
        yield threads
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def spawn_context() -> mp.context.BaseContext:
    """The ``spawn`` multiprocessing context every worker is started from."""
    return mp.get_context("spawn")

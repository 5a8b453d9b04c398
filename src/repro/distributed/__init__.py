"""Sharded data-parallel training on one machine.

The package runs spawn-context workers, one BLAS thread domain each, with
deterministic per-shard seeding, as a first-class data-parallel trainer:

* :mod:`repro.distributed.procs` — the BLAS-thread-domain environment pinning
  and spawn-context helpers;
* :mod:`repro.distributed.shm` — the flat-parameter shared-memory layout the
  gradients are all-reduced through (no pickling on the hot path);
* :mod:`repro.distributed.reduce` — the deterministic pairwise tree reduce;
* :mod:`repro.distributed.worker` — the spawn-side shard loop;
* :mod:`repro.distributed.trainer` — :class:`DistributedTrainer`, the
  coordinator that shards each batch across ``ExecutionConfig.shards``
  workers and applies one optimizer step per global batch;
* :mod:`repro.distributed.checkpoint` — atomic coordinator checkpoints for
  :meth:`DistributedTrainer.resume`;
* :mod:`repro.distributed.faults` — deterministic fault injection (test
  only) driving the elastic recovery paths;
* :mod:`repro.distributed.compress` — dirty-region gradient compression in
  the arena (bit-identical to the dense reduce).

Determinism contract: same seed + same shard count -> bit-identical training
histories, and ``shards=1`` is bit-exact with the single-process trainers
(it *is* the single-process trainer — the coordinator delegates in-process).
Elastic recovery preserves the contract: a worker killed (or hung, or
corrupted) at step N is replaced by a deterministic fast-forward replay, so
the completed history matches the uninterrupted run bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_latest,
    save_checkpoint,
)
from repro.distributed.faults import FAULT_KINDS, FaultSpec
from repro.distributed.procs import BLAS_THREAD_VARS, pinned_blas_env, thread_domain
from repro.distributed.trainer import DistributedTrainer, WorkerFailure


def shard_seed(seed: int, shard_index: int, shard_count: int) -> int:
    """The pattern-pool seed of one shard's execution runtime.

    Spawned from a :class:`numpy.random.SeedSequence` rooted at
    ``(seed, shard_count)``, so every shard gets an independent stream, the
    whole tree is fixed by the single config seed, and changing the shard
    count changes every stream (shard layouts are distinct experiments).
    """
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index must be in [0, {shard_count}), got {shard_index}")
    root = np.random.SeedSequence([int(seed), int(shard_count)])
    child = root.spawn(shard_count)[shard_index]
    return int(child.generate_state(1, dtype=np.uint64)[0])


__all__ = [
    "BLAS_THREAD_VARS",
    "CheckpointError",
    "DistributedTrainer",
    "FAULT_KINDS",
    "FaultSpec",
    "WorkerFailure",
    "load_checkpoint",
    "load_latest",
    "pinned_blas_env",
    "save_checkpoint",
    "shard_seed",
    "thread_domain",
]

"""Deterministic fault injection for the elastic distributed trainer.

Test-only: a :class:`FaultSpec` names a shard, a global step and a
fault kind, and is carried to the workers inside their
:class:`~repro.distributed.worker.WorkerSpec`.  Because shard state is fully
determined by ``(seed, shard_count, step)``, injecting the same spec twice
produces the same failure at the same point — which is what makes the
recovery paths exhaustively testable (kill-at-step-N and resume must be
bit-identical to the uninterrupted run).

Kinds
-----
``"kill"``
    The worker raises ``RuntimeError("injected worker failure at step N")``
    before computing the step, exactly like a crash between barriers.
``"hang"``
    The worker stops participating in the barriers without dying (it idles
    until the cluster's stop event), exercising the coordinator's
    barrier-timeout path — a hung worker must not deadlock the arena.
``"corrupt"``
    The worker completes the step but poisons its arena gradient block and
    loss slot with NaN, exercising the coordinator's numeric validation.

Injected faults are one-shot: after the coordinator recovers from the
failure at step N it re-arms only the specs with ``step > N``
(:func:`drop_fired`), so the replay of step N runs clean.  The persistent
``DistributedTrainer._fail_at_step`` hook (which re-fires on every respawn)
is the companion knob for driving the retry budget to exhaustion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

FAULT_KINDS: tuple[str, ...] = ("kill", "hang", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """Deterministically fail ``shard`` at global step ``step``."""

    shard: int
    step: int
    kind: str = "kill"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; available: {FAULT_KINDS}")
        if self.shard < 0:
            raise ValueError(f"fault shard must be >= 0, got {self.shard}")
        if self.step < 0:
            raise ValueError(f"fault step must be >= 0, got {self.step}")


def fault_for(faults, shard: int, step: int) -> FaultSpec | None:
    """The first spec in ``faults`` aimed at this shard and step, if any."""
    for fault in faults:
        if fault.shard == shard and fault.step == step:
            return fault
    return None


def drop_fired(faults, step: int) -> tuple[FaultSpec, ...]:
    """One-shot re-arming: keep only specs strictly beyond the failed step."""
    return tuple(fault for fault in faults if fault.step > step)


def hang_until_stopped(stop_event, poll_s: float = 0.05) -> None:
    """Idle without touching the barriers until the cluster shuts down."""
    while not stop_event.is_set():
        time.sleep(poll_s)


def corrupt_shard_block(arena, shard: int) -> None:
    """Poison a shard's written gradients and loss with NaN."""
    arena.grads[shard][:] = np.nan
    arena.losses[shard] = np.nan

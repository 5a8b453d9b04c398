"""The data-parallel coordinator: shard batches out, all-reduce grads, step once.

:class:`DistributedTrainer` wraps the two single-process trainers
(:class:`~repro.training.trainer.ClassifierTrainer` and
:class:`~repro.training.lm_trainer.LanguageModelTrainer`) behind the same
``train() -> TrainingResult`` surface and splits every global batch across
``ExecutionConfig.shards`` spawn-context worker processes:

* ``shards=1`` **delegates in-process** to the wrapped trainer — bit-exact
  with single-process training by construction;
* ``shards=N`` runs the coordinator loop: per step, publish the flat
  parameters to the :class:`~repro.distributed.shm.SharedArena`, release the
  workers (params-ready barrier), wait for their shard gradients
  (grads-ready barrier), tree-reduce the flat blocks in fixed order (region-
  restricted when dirty-region compression is active — bit-identical either
  way), union the shards' dirty regions into the runtime's tracker (so
  ``optimizer="sparse"`` still skips untouched tiles), apply **one**
  optimizer step on the coordinator's model, and record the size-weighted
  global loss.  Evaluation, history recording, LR scheduling and the result
  record all reuse the wrapped trainer, so the distributed path cannot
  drift from the single-process semantics.

Determinism: the global batch order comes from the training seed (identical
in every process), each shard's pattern pools come from its own
``SeedSequence`` spawn of the execution seed
(:func:`repro.distributed.shard_seed`), the reduce order is a fixed pairwise
tree, and the single optimizer step runs on the coordinator — so *same seed
+ same shard count* replays bit-identical training histories.

Elastic recovery
----------------

That same determinism is what makes the trainer *elastic*: because a shard's
state is a pure function of ``(seed, shard_count, step)``, a worker that
dies, hangs (the barrier waits time out instead of deadlocking the arena) or
publishes non-finite values mid-step can be replaced without losing the
bit-identity guarantee.  The coordinator's parameters and optimizer are
always consistent at the last *completed* step — every failure is detected
before the optimizer step is applied — so recovery is: optionally checkpoint
(:mod:`repro.distributed.checkpoint`), tear the whole cluster down (a
partial respawn is impossible — the surviving workers' pattern pools and
BPTT state cannot rewind), respawn it with ``start_step`` set to the failed
step, let every worker deterministically fast-forward its streams, and
replay the in-flight step.  Consecutive failures beyond
``FaultPolicy.max_retries`` degrade to a clean abort that carries the failed
shards' tracebacks; :meth:`DistributedTrainer.resume` restarts an aborted
(or killed) run from the newest checkpoint with the same bit-identical
history.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Iterator

import numpy as np

from repro.data.batching import BatchIterator, BPTTBatcher
from repro.distributed.checkpoint import (
    CheckpointError,
    load_latest,
    save_checkpoint,
)
from repro.distributed.compress import RegionReducer
from repro.distributed.faults import drop_fired
from repro.distributed.procs import pinned_blas_env, spawn_context
from repro.distributed.reduce import tree_reduce
from repro.distributed.shm import ParameterLayout, SharedArena, merge_regions
from repro.distributed.worker import WorkerSpec, state_size, worker_main
from repro.execution import EngineRuntime, ExecutionConfig
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.optim_sparse import SparseSGD
from repro.training.history import TrainingHistory, TrainingResult

#: Worker-side barrier margin over the coordinator's timeout, so on a hang
#: the coordinator always times out first and owns the recovery.
_WORKER_TIMEOUT_MARGIN_S = 30.0


class WorkerFailure(RuntimeError):
    """A step could not complete: a shard died, hung or went non-finite.

    Raised by :meth:`_Cluster.step`; :meth:`DistributedTrainer.train` catches
    it to drive the retry/respawn loop and re-raises it unchanged once the
    :class:`~repro.execution.FaultPolicy` retry budget is exhausted.
    """

    def __init__(self, message: str, failures: tuple[str, ...] = ()):
        super().__init__(message)
        self.failures = failures


class DistributedTrainer:
    """Sharded data-parallel training behind the single-trainer interface.

    Parameters
    ----------
    model:
        An :class:`~repro.models.mlp.MLPClassifier` or
        :class:`~repro.models.lstm_lm.LSTMLanguageModel`.  Workers rebuild
        their replica as ``type(model)(model.config)``, so the model must be
        reconstructible from its config (custom strategy *instances* are
        not; use a registered strategy name).
    data:
        The matching dataset (:class:`SyntheticMNIST`) or corpus
        (:class:`SyntheticCorpus`).
    config:
        The wrapped trainer's training config (defaults like the wrapped
        trainer's).
    runtime:
        The execution runtime; ``runtime.config.shards`` selects the worker
        count and ``runtime.config.fault_policy`` the elastic behaviour.
        Defaults to a single-process pooled runtime seeded from the training
        config, exactly like the wrapped trainers.
    """

    def __init__(self, model, data, config=None, device: DeviceSpec = GTX_1080TI,
                 runtime: EngineRuntime | None = None):
        kind = _workload_kind(model)
        if kind == "classifier":
            from repro.training.trainer import (
                ClassifierTrainer,
                ClassifierTrainingConfig,
            )
            config = config or ClassifierTrainingConfig()
            inner_type: Any = ClassifierTrainer
        else:
            from repro.training.lm_trainer import (
                LanguageModelTrainer,
                LanguageModelTrainingConfig,
            )
            config = config or LanguageModelTrainingConfig()
            inner_type = LanguageModelTrainer
        self.kind = kind
        self.runtime = runtime or EngineRuntime(ExecutionConfig(seed=config.seed))
        self.shards = self.runtime.config.shards
        self.inner = inner_type(model, data, config, device=device,
                                runtime=self.runtime)
        self.model = model
        self.data = data
        self.config = config
        self._fail_at_step: int | None = None  # test hook, forwarded to workers
        self._faults: tuple = ()  # test hook: one-shot FaultSpecs
        if self.shards > 1:
            if self.runtime.config.seed is None:
                raise ValueError(
                    "distributed training with shards > 1 requires an "
                    "ExecutionConfig.seed: the per-shard pattern streams are "
                    "SeedSequence spawns of it (seed=None cannot be "
                    "replicated deterministically across processes)")
            if config.batch_size < self.shards:
                raise ValueError(
                    f"batch_size ({config.batch_size}) must be >= shards "
                    f"({self.shards}): every shard takes a strided slice of "
                    f"each global batch")
            if getattr(model, "config", None) is None:
                raise ValueError(
                    "distributed training needs a model reconstructible from "
                    "model.config (workers rebuild their own replica)")

    # ------------------------------------------------------------------
    # the step cluster
    # ------------------------------------------------------------------
    @contextmanager
    def session(self) -> Iterator["_Cluster"]:
        """Spawn the worker cluster and yield its per-step interface.

        Each :meth:`_Cluster.step` call runs one global step, for callers
        that drive the cluster step by step.  The shared segment is unlinked
        and the workers stopped on *every* exit path — a worker-failure
        abort, an error inside the ``with`` body, and even a ``start()`` that
        died halfway.
        """
        if self.shards < 2:
            raise ValueError("session() needs shards >= 2; shards=1 training "
                             "delegates to the wrapped single-process trainer")
        cluster = _Cluster(self)
        try:
            cluster.start()
            yield cluster
        finally:
            cluster.close()

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train(self) -> TrainingResult:
        """Run the configured epochs and return the wrapped-trainer result."""
        if self.shards == 1:
            return self.inner.train()
        return self._run()

    def resume(self, checkpoint_dir: str | None = None) -> TrainingResult:
        """Pick an interrupted run up from its newest checkpoint.

        Restores the coordinator's parameters, optimizer state, LR schedule
        and recorded history from the newest readable checkpoint in
        ``checkpoint_dir`` (default: ``fault_policy.checkpoint_dir``) and
        continues training from the checkpointed step.  The respawned
        workers deterministically fast-forward their pattern/batch streams
        to that step, so the completed history is bit-identical to an
        uninterrupted run with the same seed and shard count.
        """
        if self.shards < 2:
            raise ValueError("resume() needs shards >= 2; shards=1 training "
                             "delegates to the wrapped single-process trainer")
        policy = self.runtime.config.fault_policy
        directory = checkpoint_dir or policy.checkpoint_dir
        if directory is None:
            raise ValueError("resume() needs a checkpoint directory (pass "
                             "checkpoint_dir= or set "
                             "fault_policy.checkpoint_dir)")
        loaded = load_latest(directory)
        if loaded is None:
            raise CheckpointError(f"no readable checkpoint in {directory!r}")
        meta, arrays, _ = loaded
        iteration, history, last_loss, worker_states = \
            self._restore_state(meta, arrays)
        return self._run(start_iteration=iteration, history=history,
                         last_loss=last_loss, worker_states=worker_states)

    # ------------------------------------------------------------------
    # the unified elastic step loop
    # ------------------------------------------------------------------
    def _steps_per_epoch(self) -> int:
        if self.kind == "classifier":
            return len(BatchIterator(
                self.data.train_images, self.data.train_labels,
                self.config.batch_size, rng=self.inner.rng))
        return len(BPTTBatcher(self.data.train, self.config.batch_size,
                               self.config.seq_len))

    def _state_slots(self) -> int:
        """Width of the arena's per-worker recurrent-state rows.

        Zero for stateless workloads; for the LM the widest shard's
        flattened BPTT carry (narrower shards use a prefix of their row).
        """
        if self.kind != "lm":
            return 0
        widest = max(
            BPTTBatcher(self.data.train, self.config.batch_size,
                        self.config.seq_len, shard_index=index,
                        shard_count=self.shards).shard_batch_size
            for index in range(self.shards))
        return state_size(self.model.init_state(widest))

    def _run(self, start_iteration: int = 0,
             history: TrainingHistory | None = None,
             last_loss: float = float("nan"),
             worker_states: np.ndarray | None = None) -> TrainingResult:
        inner, config = self.inner, self.config
        policy = self.runtime.config.fault_policy
        faults = tuple(self._faults)
        for fault in faults:
            if fault.shard >= self.shards:
                raise ValueError(f"fault targets shard {fault.shard} but the "
                                 f"run has {self.shards} shards")
        steps_per_epoch = self._steps_per_epoch()
        total = config.epochs * steps_per_epoch
        if config.max_iterations is not None:
            total = min(total, config.max_iterations)
        history = history if history is not None else TrainingHistory()
        start = time.perf_counter()
        iteration = start_iteration
        classifier = self.kind == "classifier"
        eval_every = config.eval_every if classifier else 0
        retries = 0
        stats = {"steps": 0, "reduce_ms": 0.0, "recoveries": 0,
                 "compressed_params": 0, "dense_params": 0}
        cluster = _Cluster(self, start_step=iteration, faults=faults,
                           resume_states=worker_states)
        try:
            cluster.start()
            while iteration < total:
                try:
                    last_loss = cluster.step()
                except WorkerFailure:
                    # The coordinator state is still consistent at
                    # `iteration`: every failure is detected before the
                    # optimizer step, so the in-flight step was never
                    # applied and can be replayed verbatim.
                    worker_states = cluster.states_snapshot()
                    if policy.checkpoint_dir is not None:
                        self._save_checkpoint(policy.checkpoint_dir,
                                              iteration, history, last_loss,
                                              worker_states)
                    retries += 1
                    if retries > policy.max_retries:
                        raise
                    cluster.drain_into(stats)
                    cluster.close(join_timeout=10.0)
                    if policy.backoff_s:
                        time.sleep(policy.backoff_s * retries)
                    faults = drop_fired(faults, iteration)
                    stats["recoveries"] += 1
                    cluster = _Cluster(self, start_step=iteration,
                                       faults=faults,
                                       resume_states=worker_states)
                    cluster.start()
                    continue
                retries = 0
                iteration += 1
                at_epoch_end = iteration % steps_per_epoch == 0
                before_cap = (config.max_iterations is None
                              or iteration < config.max_iterations)
                if classifier:
                    if eval_every:
                        if iteration % eval_every == 0:
                            inner._record(history, iteration, last_loss, start)
                    elif at_epoch_end and before_cap:
                        inner._record(history, iteration, last_loss, start)
                elif at_epoch_end and before_cap:
                    inner.schedule.step()
                    inner._record(history, iteration, last_loss, start)
                if (policy.checkpoint_every
                        and iteration % policy.checkpoint_every == 0):
                    self._save_checkpoint(policy.checkpoint_dir, iteration,
                                          history, last_loss,
                                          cluster.states_snapshot())
        finally:
            cluster.drain_into(stats)
            cluster.close()
        if not history.iterations or history.iterations[-1] != iteration:
            inner._record(history, iteration, last_loss, start)
        higher = True if classifier else config.eval_metric == "accuracy"
        result = self._result(history, iteration, start,
                              higher_is_better=higher)
        dist = {"shards": self.shards, "steps": stats["steps"],
                "reduce_ms": round(stats["reduce_ms"], 3),
                "recoveries": stats["recoveries"]}
        if stats["compressed_params"] or stats["dense_params"]:
            dist["compressed_params"] = stats["compressed_params"]
            dist["dense_params"] = stats["dense_params"]
        result.engine_stats["distributed"] = dist
        return result

    def _result(self, history: TrainingHistory, iteration: int, start: float,
                higher_is_better: bool) -> TrainingResult:
        inner = self.inner
        return TrainingResult(
            strategy=self.model.strategy.name,
            final_metric=history.eval_metric[-1],
            best_metric=history.best_metric(higher_is_better=higher_is_better),
            iterations=iteration,
            simulated_time_ms=iteration * inner.iteration_time_ms,
            simulated_baseline_time_ms=iteration * inner.baseline_iteration_time_ms,
            wall_time_s=time.perf_counter() - start,
            history=history,
            engine_stats=self.runtime.stats(model=self.model),
        )

    # ------------------------------------------------------------------
    # checkpoint capture / restore (coordinator state only)
    # ------------------------------------------------------------------
    def _save_checkpoint(self, directory: str, iteration: int,
                         history: TrainingHistory, last_loss: float,
                         worker_states: np.ndarray | None = None) -> None:
        meta, arrays = self._capture_state(history, last_loss, worker_states)
        save_checkpoint(directory, iteration, meta, arrays)

    def _capture_state(self, history: TrainingHistory, last_loss: float,
                       worker_states: np.ndarray | None = None
                       ) -> tuple[dict, dict]:
        exec_config = self.runtime.config
        params = list(self.model.parameters())
        layout = ParameterLayout.from_parameters(params)
        flat = np.empty(layout.total_size, dtype=layout.dtype)
        layout.write_params(params, flat)
        optimizer = self.inner.optimizer
        meta = {
            "kind": self.kind,
            "seed": int(exec_config.seed),
            "shards": int(self.shards),
            "dtype": str(exec_config.dtype),
            "optimizer": exec_config.optimizer,
            "lr": float(optimizer.lr),
            "step_count": int(optimizer.step_count),
            "last_loss": float(last_loss),
            "param_shapes": [list(slot.shape) for slot in layout.slots],
        }
        if self.kind == "lm":
            meta["schedule_epoch"] = int(self.inner.schedule.epoch)
        if worker_states is not None:
            meta["state_slots"] = int(worker_states.shape[1])
        arrays: dict[str, np.ndarray] = {
            "params": flat,
            "history_iterations": np.asarray(history.iterations,
                                             dtype=np.int64),
            "history_train_loss": np.asarray(history.train_loss),
            "history_eval_metric": np.asarray(history.eval_metric),
            "history_simulated_time_ms": np.asarray(history.simulated_time_ms),
            "history_wall_time_s": np.asarray(history.wall_time_s),
        }
        if worker_states is not None:
            arrays["worker_states"] = worker_states
        for index, velocity in enumerate(optimizer._velocity):
            if velocity is not None:
                arrays[f"velocity_{index}"] = velocity
        if isinstance(optimizer, SparseSGD):
            kinds: list[str | None] = []
            for index, ever in enumerate(optimizer._ever):
                if ever is None:
                    kinds.append(None)
                elif ever[0] == "full":
                    kinds.append("full")
                else:
                    kinds.append(ever[0])
                    arrays[f"ever_mask_{index}"] = ever[1]
            meta["ever_kinds"] = kinds
        return meta, arrays

    def _restore_state(
            self, meta: dict, arrays: dict
    ) -> tuple[int, TrainingHistory, float, np.ndarray | None]:
        exec_config = self.runtime.config
        params = list(self.model.parameters())
        layout = ParameterLayout.from_parameters(params)

        def _mismatch(field, saved, current):
            raise CheckpointError(
                f"checkpoint was written by an incompatible run: {field} is "
                f"{saved!r} in the checkpoint but {current!r} here")

        for field, current in (("kind", self.kind),
                               ("seed", int(exec_config.seed)),
                               ("shards", int(self.shards)),
                               ("dtype", str(exec_config.dtype)),
                               ("optimizer", exec_config.optimizer)):
            if meta.get(field) != current:
                _mismatch(field, meta.get(field), current)
        shapes = [list(slot.shape) for slot in layout.slots]
        if meta.get("param_shapes") != shapes:
            _mismatch("param_shapes", meta.get("param_shapes"), shapes)
        flat = arrays["params"]
        if flat.shape != (layout.total_size,) or flat.dtype != layout.dtype:
            _mismatch("params block",
                      f"{flat.shape}/{flat.dtype}",
                      f"{(layout.total_size,)}/{layout.dtype}")
        layout.read_params(flat, params)
        optimizer = self.inner.optimizer
        optimizer.lr = float(meta["lr"])
        optimizer.step_count = int(meta["step_count"])
        for index, param in enumerate(params):
            velocity = arrays.get(f"velocity_{index}")
            if velocity is None:
                optimizer._velocity[index] = None
                continue
            if (velocity.shape != param.data.shape
                    or velocity.dtype != param.data.dtype):
                _mismatch(f"velocity_{index}",
                          f"{velocity.shape}/{velocity.dtype}",
                          f"{param.data.shape}/{param.data.dtype}")
            optimizer._velocity[index] = np.ascontiguousarray(velocity)
        if isinstance(optimizer, SparseSGD):
            kinds = meta.get("ever_kinds")
            if kinds is None or len(kinds) != len(params):
                _mismatch("ever_kinds", kinds, f"{len(params)} entries")
            for index, kind in enumerate(kinds):
                if kind is None:
                    optimizer._ever[index] = None
                elif kind == "full":
                    optimizer._ever[index] = ("full",)
                else:
                    mask = np.ascontiguousarray(arrays[f"ever_mask_{index}"])
                    optimizer._ever[index] = (kind, mask)
        if self.kind == "lm":
            self.inner.schedule.epoch = int(meta["schedule_epoch"])
        state_slots = self._state_slots()
        if int(meta.get("state_slots", 0)) != state_slots:
            _mismatch("state_slots", meta.get("state_slots", 0), state_slots)
        worker_states = None
        if state_slots:
            worker_states = np.ascontiguousarray(arrays["worker_states"])
            if worker_states.shape != (self.shards, state_slots):
                _mismatch("worker_states",
                          worker_states.shape, (self.shards, state_slots))
        history = TrainingHistory(
            iterations=[int(v) for v in arrays["history_iterations"]],
            train_loss=[float(v) for v in arrays["history_train_loss"]],
            eval_metric=[float(v) for v in arrays["history_eval_metric"]],
            simulated_time_ms=[float(v) for v in
                               arrays["history_simulated_time_ms"]],
            wall_time_s=[float(v) for v in arrays["history_wall_time_s"]],
        )
        return (int(meta["step"]), history, float(meta["last_loss"]),
                worker_states)


def _workload_kind(model) -> str:
    from repro.models.lstm_lm import LSTMLanguageModel
    from repro.models.mlp import MLPClassifier

    if isinstance(model, MLPClassifier):
        return "classifier"
    if isinstance(model, LSTMLanguageModel):
        return "lm"
    raise TypeError(
        f"DistributedTrainer supports MLPClassifier and LSTMLanguageModel, "
        f"got {type(model).__name__}")


class _Cluster:
    """The live worker processes plus the coordinator side of one step."""

    def __init__(self, trainer: DistributedTrainer, start_step: int = 0,
                 faults: tuple = (),
                 resume_states: np.ndarray | None = None):
        self.trainer = trainer
        self.workers = trainer.shards
        self.start_step = start_step
        self.faults = tuple(faults)
        self.state_slots = trainer._state_slots()
        # The carry-state snapshot of the last *successful* step (i.e. the
        # state every shard needs at the start of the next one).  Seeded
        # from the previous cluster's snapshot so a failure before this
        # cluster completes a step still hands the right rows onward.
        self._worker_states = None
        if self.state_slots:
            if resume_states is not None:
                self._worker_states = np.array(resume_states, copy=True)
            else:
                self._worker_states = np.zeros(
                    (self.workers, self.state_slots),
                    dtype=trainer.runtime.np_dtype)
        self.params = list(trainer.model.parameters())
        self.layout = ParameterLayout.from_parameters(self.params)
        exec_config = trainer.runtime.config
        self.sparse = exec_config.optimizer == "sparse"
        # Region compression needs the tight regions only the sparse
        # tracker records; under the dense optimizer everything is FULL
        # and the plain in-place reduce is strictly cheaper.
        self.compress = self.sparse and exec_config.compress_cutover > 0
        self._reducer = (RegionReducer(self.layout,
                                       exec_config.compress_cutover)
                         if self.compress else None)
        self._policy = exec_config.fault_policy
        # Persistent full-size gradient buffers: the reduced flat slices are
        # copied into these (stable array identities, so the dirty tracker's
        # id() keys and the optimizer's region lookups line up every step).
        # Zero-initialised: the region reducer only writes dirty slices and
        # relies on the complement staying exact +0.0.
        self._grad_buffers = [np.zeros(slot.shape, dtype=self.layout.dtype)
                              for slot in self.layout.slots]
        self.arena: SharedArena | None = None
        self._procs: list = []
        self._monitor: threading.Thread | None = None
        # None until start(): close() must stay safe when start() died
        # halfway (the arena would otherwise leak in /dev/shm).
        self._barrier_params = None
        self._barrier_grads = None
        self._stop_event = None
        self._errors = None
        self.steps = 0
        self.reduce_ms = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        from repro.distributed import shard_seed

        trainer = self.trainer
        ctx = spawn_context()
        self.arena = SharedArena(self.layout, self.workers,
                                 state_slots=self.state_slots)
        self._barrier_params = ctx.Barrier(self.workers + 1)
        self._barrier_grads = ctx.Barrier(self.workers + 1)
        self._stop_event = ctx.Event()
        self._errors = ctx.SimpleQueue()
        exec_config = trainer.runtime.config
        worker_timeout = (self._policy.barrier_timeout_s
                          + _WORKER_TIMEOUT_MARGIN_S)
        with pinned_blas_env(self.workers):
            for index in range(self.workers):
                spec = WorkerSpec(
                    kind=trainer.kind,
                    shard_index=index,
                    shard_count=self.workers,
                    model_type=type(trainer.model),
                    model_config=trainer.model.config,
                    data=trainer.data,
                    train_config=trainer.config,
                    exec_config=replace(
                        exec_config, shards=1,
                        seed=shard_seed(exec_config.seed, index, self.workers)),
                    arena_name=self.arena.name,
                    fail_at_step=trainer._fail_at_step,
                    start_step=self.start_step,
                    faults=tuple(fault for fault in self.faults
                                 if fault.shard == index),
                    barrier_timeout_s=worker_timeout,
                    state_slots=self.state_slots,
                    resume_state=(
                        np.array(self._worker_states[index])
                        if self._worker_states is not None
                        and self.start_step > 0 else None),
                )
                proc = ctx.Process(
                    target=worker_main,
                    args=(spec, self._barrier_params, self._barrier_grads,
                          self._stop_event, self._errors),
                    daemon=True, name=f"repro-shard-{index}")
                proc.start()
                self._procs.append(proc)
        # Liveness monitor: a worker that dies *before* reaching a barrier
        # (e.g. an import failure in the spawned interpreter) can't abort it,
        # and the coordinator would sit out the full barrier timeout.  The
        # monitor converts "a worker exited while the run is live" into an
        # immediate barrier break instead.
        self._monitor = threading.Thread(target=self._watch_workers,
                                         daemon=True, name="repro-dist-monitor")
        self._monitor.start()

    def _watch_workers(self) -> None:
        while not self._stop_event.is_set():
            dead = [proc for proc in self._procs if proc.exitcode is not None]
            if dead:
                if not self._stop_event.is_set():
                    self._barrier_params.abort()
                    self._barrier_grads.abort()
                return
            time.sleep(0.2)

    def close(self, join_timeout: float = 30.0) -> None:
        """Stop the workers and destroy the shared segment (idempotent).

        Safe on a cluster whose ``start()`` failed partway: every handle is
        guarded, and the arena — the only state visible outside this process
        — is unlinked whenever it was created.  ``join_timeout`` bounds the
        per-worker wait before escalation to ``terminate()`` (the elastic
        recovery path uses a short one: a misbehaving worker is being
        replaced anyway).
        """
        if self.arena is None:
            return
        if self._stop_event is not None:
            self._stop_event.set()
        for barrier in (self._barrier_params, self._barrier_grads):
            if barrier is not None:
                barrier.abort()
        for proc in self._procs:
            proc.join(timeout=join_timeout)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker backstop
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs = []
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        self.arena.unlink()
        self.arena = None

    def states_snapshot(self) -> np.ndarray | None:
        """Copy of the carry states at the last completed step (or ``None``)."""
        if self._worker_states is None:
            return None
        return np.array(self._worker_states, copy=True)

    def drain_into(self, stats: dict) -> None:
        """Accumulate this cluster's counters before it is closed."""
        stats["steps"] += self.steps
        stats["reduce_ms"] += self.reduce_ms
        if self._reducer is not None:
            stats["compressed_params"] += self._reducer.compressed_params
            stats["dense_params"] += self._reducer.dense_params

    # ------------------------------------------------------------------
    # one global step
    # ------------------------------------------------------------------
    def step(self) -> float:
        """One data-parallel step; returns the global-batch mean loss."""
        arena, layout = self.arena, self.layout
        layout.write_params(self.params, arena.params)
        self._wait(self._barrier_params)
        # ... the workers run their shard forward/backward here ...
        self._wait(self._barrier_grads)
        reduce_start = time.perf_counter()
        reduced = None
        if not self.compress:
            # In-place whole-block tree reduce: the workers fully overwrite
            # their blocks next step, so mutating them here is safe.
            reduced = tree_reduce(arena.grads)
        tracker = self.trainer.runtime.dirty_tracker
        optimizer = self.trainer.inner.optimizer
        # zero_grad first: the sparse optimizer's zero_grad clears the
        # tracker, so the merged regions recorded below are this step's only.
        optimizer.zero_grad()
        for index, param in enumerate(self.params):
            region = merge_regions(
                [layout.decode_region(arena.regions[w], index)
                 for w in range(self.workers)])
            if region[0] == "none":
                param.grad = None
                continue
            buffer = self._grad_buffers[index]
            if self.compress:
                # Sparse writes left each block bit-equal to the dense
                # gradient; reduce only the merged dirty region (same
                # pairwise association, hence the same bits).
                self._reducer.reduce_into(buffer, arena.grads, index, region)
            else:
                np.copyto(buffer, layout.grad_view(reduced, index))
            param.grad = buffer
            if self.sparse:
                if region[0] == "empty":
                    tracker.record_reset(buffer)
                elif region[0] == "rows":
                    tracker.record_rows(buffer, region[1])
                elif region[0] == "cols":
                    tracker.record_cols(buffer, region[1])
                else:
                    tracker.record_full(buffer)
        self.reduce_ms += (time.perf_counter() - reduce_start) * 1000.0
        # Drop the arena view before anything below can raise: a WorkerFailure
        # traceback would otherwise pin this frame — and with it the exported
        # buffer — past close(), leaving the segment unable to release its
        # mapping.
        reduced = None
        losses = [float(arena.losses[w]) for w in range(self.workers)]
        weights = [float(arena.weights[w]) for w in range(self.workers)]
        if self._policy.validate_numerics:
            self._validate_numerics(losses)
        # Failure detection is complete: only now does the step commit.
        if self._worker_states is not None:
            # Published during this step's forward = the carry every shard
            # needs at the start of the *next* step.
            np.copyto(self._worker_states, self.arena.states)
        optimizer.step()
        loss = float(sum(loss * weight
                         for loss, weight in zip(losses, weights)))
        self.steps += 1
        return loss

    def _validate_numerics(self, losses: list[float]) -> None:
        """Reject NaN/Inf shard output *before* the optimizer step."""
        finite = all(math.isfinite(value) for value in losses)
        if finite:
            finite = all(param.grad is None or np.isfinite(param.grad).all()
                         for param in self.params)
        if finite:
            return
        culprits = [w for w in range(self.workers)
                    if not math.isfinite(losses[w])
                    or not np.isfinite(self.arena.grads[w]).all()]
        named = ", ".join(f"shard {w}" for w in culprits) or "unknown shard"
        raise WorkerFailure(
            f"distributed training aborted — {named} published non-finite "
            f"gradients/loss at step {self.steps + self.start_step}",
            failures=tuple(f"shard {w} published non-finite values"
                           for w in culprits))

    def _wait(self, barrier) -> None:
        try:
            barrier.wait(timeout=self._policy.barrier_timeout_s)
        except threading.BrokenBarrierError:
            self._raise_worker_failure()

    def _raise_worker_failure(self) -> None:
        # Give a just-died worker a moment to flush its traceback.
        deadline = time.monotonic() + 5.0
        while self._errors.empty() and time.monotonic() < deadline:
            if all(proc.exitcode is None for proc in self._procs):
                break
            time.sleep(0.1)
        failures = []
        while not self._errors.empty():
            shard, trace = self._errors.get()
            failures.append(f"shard {shard} failed:\n{trace}")
        if not failures:
            dead = [f"shard {i} exited with code {proc.exitcode}"
                    for i, proc in enumerate(self._procs)
                    if proc.exitcode is not None]
            failures = dead or [
                "a worker process stopped responding (barrier wait timed "
                f"out after {self._policy.barrier_timeout_s:g}s)"]
        raise WorkerFailure("distributed training aborted — "
                            + "\n".join(failures),
                            failures=tuple(failures))

"""Unified execution configuration for the pattern-pool engine.

Every consumer of the approximate-dropout machinery — the experiment drivers,
both trainers and the serving engine — needs to make the same three
decisions: *how* the dropout patterns are executed (dense masked GEMMs or
the vectorized pattern-pool engine), *which* floating dtype the hot path runs
in, and *where* the randomness of the whole pooled schedule comes from.  Before this module each caller wired those choices up by
hand (and several could not make them at all); :class:`ExecutionConfig` is the
single value object that carries them and :class:`EngineRuntime` is the object
that applies them to a model and owns the per-run execution state.

Execution modes
---------------

Both modes draw one pattern stream: batched pattern draws into per-site
:class:`~repro.dropout.sampler.PatternPool` rings, installed once per step
by the :class:`~repro.dropout.sampler.PatternSchedule`, so a masked run and
a pooled run of one seed train on the same patterns.  The mode selects how
the pattern layers execute them:

``"masked"``
    The conventional baseline of Fig. 1(a): pattern layers run the dense GEMM
    and multiply by a 0/1 mask that is rebuilt every step; no compact op or
    tile plan runs.
``"pooled"``
    The vectorized engine: the compact ops (only surviving rows/tiles are
    computed, scattered into fresh zero-filled buffers), interned patterns
    and compiled tile plans.

Determinism
-----------

``ExecutionConfig.seed`` fixes the *whole* pooled schedule: at
:meth:`EngineRuntime.bind` every pattern site's sampler is reseeded from one
``np.random.SeedSequence`` spawned per site in deterministic module-traversal
order, so two runs with the same seed replay bit-identical pattern streams
regardless of how the layers' own generators were created.  Pass
``seed=None`` to keep each layer's original stream (the pre-runtime
behaviour).

Dtype and backend
-----------------

``dtype`` selects the floating dtype of the hot path ("float64" or
"float32"); binding a runtime casts the model parameters in place and the
trainers cast their input batches, and the mask/compact machinery keeps the
chosen dtype end to end.  Every runtime executes the compact GEMMs through
its own :class:`~repro.backends.ExecutionBackend` instance, so its
``backend_calls`` counters hold exactly that runtime's work.

Loss head
---------

``loss_head`` selects how a bound model computes its training loss
(:mod:`repro.heads`): ``"dense"`` keeps the exact full-softmax head,
``"sampled"`` installs the :class:`~repro.heads.CompactSoftmaxHead` on every
:class:`~repro.models.LSTMLanguageModel` — the vocabulary becomes one more
pooled pattern site (class patterns drawn from the same seeded stream,
targets always kept) and the projection + loss run compactly —
and ``"adaptive"`` installs the :class:`~repro.heads.AdaptiveSoftmaxHead`:
a two-level class factorization (dense shortlist + frequency-banded tail
clusters expanded per batch) that draws no randomness at all.
``loss_head_rate`` is the sampled head's target pruned fraction;
``head_shortlist`` / ``head_clusters`` are the adaptive head's partition
knobs.  Evaluation always uses the head's exact dense path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.backends import ExecutionBackend
from repro.dropout.engine import tile_plan_cache_info
from repro.dropout.layers import ApproxRecurrentDropConnect
from repro.dropout.patterns import pattern_cache_info
from repro.dropout.sampler import PatternSchedule, PatternSite, is_pattern_site
from repro.heads import LOSS_HEAD_KINDS, LossHead
from repro.models.lstm_lm import LSTMLanguageModel
from repro.nn.optim import SGD
from repro.optim_sparse import SparseSGD
from repro.tensor import dirty as _dirty
from repro.tensor.dirty import DirtyTracker

#: Engine execution modes: the dense-masked baseline and the pooled engine.
EXECUTION_MODES: tuple[str, ...] = ("masked", "pooled")

#: Recurrent-projection execution: keep the LSTM ``weight_h`` GEMM dense, or
#: run it as a gate-aligned weight-tile (DropConnect) pattern site.
RECURRENT_MODES: tuple[str, ...] = ("dense", "tiled")

#: Loss-head execution: the exact dense softmax head, or the sampled
#: (class-pruned) head of :mod:`repro.heads` (re-exported registry names).
LOSS_HEAD_MODES: tuple[str, ...] = LOSS_HEAD_KINDS

#: Optimizer execution: the dense per-parameter SGD update, or the
#: pattern-aware :class:`~repro.optim_sparse.SparseSGD`, which restricts the
#: momentum-free update to the dirty gradient regions recorded by the compact
#: ops' scatters (bit-identical trajectories; see :mod:`repro.tensor.dirty`).
OPTIMIZER_MODES: tuple[str, ...] = ("dense", "sparse")

#: Supported floating dtypes of the execution hot path.
EXECUTION_DTYPES: dict[str, np.dtype] = {
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
}


@dataclass(frozen=True)
class ExecutionConfig:
    """How the pattern-pool engine should execute a training run.

    Attributes
    ----------
    mode:
        Execution mode: ``"masked"`` or ``"pooled"`` (see the module
        docstring).
    dtype:
        Floating dtype of the hot path: ``"float64"`` or ``"float32"``.
    recurrent:
        Recurrent-projection execution: ``"dense"`` (the default — the LSTM
        ``weight_h`` GEMM stays dense, the pre-existing behaviour) or
        ``"tiled"`` (every bound recurrent DropConnect site is enabled, so
        the hidden-to-hidden projection becomes a gate-aligned weight-tile
        pattern site pooled and executed like the other pattern layers).
    loss_head:
        Loss-head execution for a bound
        :class:`~repro.models.LSTMLanguageModel`: ``"dense"`` (the
        default — exact full-softmax loss), ``"sampled"`` (the
        :class:`~repro.heads.CompactSoftmaxHead`: the vocabulary becomes a
        pooled pattern site, targets always kept, the training loss a
        compact sampled softmax) or ``"adaptive"`` (the
        :class:`~repro.heads.AdaptiveSoftmaxHead`: dense shortlist +
        frequency-banded tail clusters expanded only for the clusters the
        batch targets hit).  Evaluation stays exact under every head.
    loss_head_rate:
        Target fraction of vocabulary classes the sampled head prunes per
        iteration (ignored by the other heads).
    head_shortlist:
        Shortlist size of the adaptive head — how many of the most frequent
        classes get the exact dense projection every step.  ``0`` (the
        default) auto-sizes it (``min(vocab // 4, 4096)``, at least 1);
        explicit values must be positive and are validated against the
        vocabulary at bind time.  Ignored by the other heads.
    head_clusters:
        Number of frequency-banded tail clusters of the adaptive head
        (geometrically sized; short tails may yield fewer).  Ignored by the
        other heads.
    optimizer:
        Parameter-update execution for optimizers built through
        :meth:`EngineRuntime.make_sgd`: ``"dense"`` (the default — the plain
        :class:`~repro.nn.optim.SGD` update) or ``"sparse"`` (the
        :class:`~repro.optim_sparse.SparseSGD`, which reads the dirty rows
        and columns the compact backward scatters recorded: the clip norm
        skips clean row chunks, and a momentum-free update without weight
        decay touches only the dirty region.  Momentum or weight decay runs
        the dense update.  Parameter trajectories are bit-identical either
        way).
    seed:
        Pool-wide pattern seed.  A single integer ``>= 0`` deterministically
        fixes the pattern streams of *every* dropout site; ``None`` leaves
        each layer's own generator untouched.
    pool_size:
        Patterns per batched pool draw for pooled sites.
    serve_max_batch:
        Micro-batch row capacity of the serving path: the
        :class:`~repro.serving.batcher.MicroBatcher` executes as soon as
        this many requests are waiting, and the
        :class:`~repro.serving.engine.InferenceEngine` interns its scratch
        buffers at this capacity.  Ignored outside serving.
    serve_max_wait_ms:
        How long the micro-batcher lets the oldest queued request wait for
        companions before executing a partial batch (0 = never wait:
        every collect drains only what is already queued).
    """

    mode: str = "pooled"
    dtype: str = "float64"
    recurrent: str = "dense"
    loss_head: str = "dense"
    loss_head_rate: float = 0.5
    head_shortlist: int = 0
    head_clusters: int = 4
    optimizer: str = "dense"
    seed: int | None = 0
    pool_size: int = 1024
    serve_max_batch: int = 64
    serve_max_wait_ms: float = 2.0

    def __post_init__(self):
        if self.mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {self.mode!r}; available: {EXECUTION_MODES}")
        if self.dtype not in EXECUTION_DTYPES:
            raise ValueError(
                f"unknown execution dtype {self.dtype!r}; "
                f"available: {tuple(EXECUTION_DTYPES)}")
        if self.recurrent not in RECURRENT_MODES:
            raise ValueError(
                f"unknown recurrent execution {self.recurrent!r}; "
                f"available: {RECURRENT_MODES}")
        if self.loss_head not in LOSS_HEAD_MODES:
            raise ValueError(
                f"unknown loss head {self.loss_head!r}; "
                f"available: {LOSS_HEAD_MODES}")
        if not 0.0 <= self.loss_head_rate < 1.0:
            raise ValueError(
                f"loss_head_rate must be in [0, 1), got {self.loss_head_rate}")
        if self.head_shortlist < 0:
            raise ValueError(
                f"head_shortlist must be >= 0 (0 = auto-size), got "
                f"{self.head_shortlist}")
        if self.head_clusters < 1:
            raise ValueError(
                f"head_clusters must be >= 1, got {self.head_clusters}")
        if self.optimizer not in OPTIMIZER_MODES:
            raise ValueError(
                f"unknown optimizer execution {self.optimizer!r}; "
                f"available: {OPTIMIZER_MODES}")
        if self.seed is not None and (
                isinstance(self.seed, bool)
                or not isinstance(self.seed, (int, np.integer)) or self.seed < 0):
            raise ValueError(
                f"seed must be None or an integer >= 0, got {self.seed!r}")
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if self.serve_max_batch < 1:
            raise ValueError(
                f"serve_max_batch must be >= 1, got {self.serve_max_batch}")
        if self.serve_max_wait_ms < 0:
            raise ValueError(
                f"serve_max_wait_ms must be >= 0, got {self.serve_max_wait_ms}")

    @property
    def np_dtype(self) -> np.dtype:
        """The numpy dtype selected by :attr:`dtype`."""
        return EXECUTION_DTYPES[self.dtype]

    def describe(self) -> str:
        """One-line human-readable summary (used in formatted table output)."""
        seed = "-" if self.seed is None else self.seed
        return (f"mode={self.mode} dtype={self.dtype} "
                f"recurrent={self.recurrent} head={self.loss_head} "
                f"opt={self.optimizer} seed={seed} pool={self.pool_size}")


def _pattern_sites(model) -> list:
    """The pattern sites of ``model`` in deterministic traversal order.

    Uses the same :func:`~repro.dropout.sampler.is_pattern_site` predicate as
    :meth:`PatternSchedule.from_model`, so the set of reseeded samplers and
    the set of pooled sites are always the same modules.
    """
    return [module for module in model.modules()
            if module is not model and is_pattern_site(module)]


class EngineRuntime:
    """Applies an :class:`ExecutionConfig` to models and owns the run state.

    One runtime can serve several sequential training runs (an experiment
    driver binds one model per table cell); :meth:`bind` configures a model's
    pattern layers for the runtime's execution mode and dtype, reseeds their
    samplers from the pool-wide seed and returns the
    :class:`~repro.dropout.sampler.PatternSchedule` the trainer should drive.
    :meth:`stats` aggregates the engine-side counters — tile-plan cache
    hits/misses (as deltas since the runtime was created), pattern-cache
    deltas, pool refill/consumption counts and the backend's per-operation
    call counts (``backend_calls``) — which the experiment drivers attach to
    their records.
    """

    def __init__(self, config: ExecutionConfig | None = None):
        self.config = config or ExecutionConfig()
        #: The runtime's private backend instance — one per runtime, so the
        #: call counters of concurrent runtimes never mix.
        self.backend = ExecutionBackend()
        self._plan_baseline = tile_plan_cache_info()
        self._pattern_baseline = pattern_cache_info()
        #: The most recent bind only; earlier runs' counters are folded into
        #: ``_archived`` at the next bind so a driver sharing one runtime
        #: across many training runs does not keep every model alive.  Each
        #: entry also snapshots the backend call counters at bind time, so a
        #: per-model :meth:`stats` can report the *run's* calls rather than
        #: the runtime-cumulative totals.
        self._bound: list[tuple[Any, PatternSchedule]] = []
        self._bind_call_baselines: list[tuple[Any, dict[str, int]]] = []
        self._archived = self._zero_totals()
        #: The runtime's dirty-region tracker, shared by every optimizer
        #: built through :meth:`make_sgd`.  Inert unless a
        #: :class:`~repro.optim_sparse.SparseSGD` activates it per step.
        self.dirty_tracker = DirtyTracker()
        self._optimizers: list[SGD] = []
        self._archived_optim = self._zero_optimizer_totals()
        #: Serving-side stat sources (engines and micro-batchers register
        #: themselves here); folded into ``stats()["serving"]``.
        self._serving_sources: list[Any] = []
        self.runs = 0

    @property
    def np_dtype(self) -> np.dtype:
        return self.config.np_dtype

    # ------------------------------------------------------------------
    # binding models
    # ------------------------------------------------------------------
    def bind(self, model) -> PatternSchedule:
        """Configure ``model`` for this runtime and return its schedule.

        * casts every parameter to the configured dtype (in place);
        * installs the configured loss head on every
          :class:`~repro.models.LSTMLanguageModel`, *before* the engine
          slots are applied and the sites enumerated, so a sampled head is
          configured, pooled and reseeded like any other pattern site;
        * sets ``execution_mode`` and installs the runtime's
          :class:`~repro.backends.ExecutionBackend` instance on every
          :class:`~repro.dropout.sampler.PatternSite` and
          :class:`~repro.heads.LossHead`, so all compact GEMMs of the run
          execute (and are counted) through it;
        * enables every :class:`~repro.dropout.layers.ApproxRecurrentDropConnect`
          under ``recurrent="tiled"`` and disables it otherwise;
        * reseeds every live pattern site from the pool-wide seed;
        * builds the :class:`PatternSchedule` that pools every live site,
          whatever the mode.
        """
        config = self.config
        self.runs += 1
        self._archive_finished_runs()
        for param in model.parameters():
            if param.data.dtype != config.np_dtype:
                param.data = param.data.astype(config.np_dtype)

        # Loss-head installation first: set_loss_head replaces a child
        # module, so the list is materialised before mutation and the
        # slot/site loops below see the freshly installed head.
        for module in list(model.modules()):
            if isinstance(module, LSTMLanguageModel):
                module.set_loss_head(config.loss_head, rate=config.loss_head_rate,
                                     shortlist=config.head_shortlist,
                                     clusters=config.head_clusters)

        layer_mode = "masked" if config.mode == "masked" else "compact"
        for module in model.modules():
            if isinstance(module, (PatternSite, LossHead)):
                module.execution_mode = layer_mode
                module.backend = self.backend
            if isinstance(module, ApproxRecurrentDropConnect):
                # Gated recurrent DropConnect sites: enabled under
                # recurrent="tiled" (they then count as pattern sites below,
                # get pooled and reseeded), inert/dense otherwise.
                module.enabled = config.recurrent == "tiled"

        sites = _pattern_sites(model)
        if config.seed is not None and sites:
            # One spawned child stream per site: the single config seed fixes
            # the whole schedule, and successive binds (run index) of the same
            # runtime get fresh-but-reproducible streams.
            root = np.random.SeedSequence([int(config.seed), self.runs])
            for site, child in zip(sites, root.spawn(len(sites))):
                site.reseed(np.random.default_rng(child))

        schedule = PatternSchedule.from_model(model, pool_size=config.pool_size)
        self._bound.append((model, schedule))
        self._bind_call_baselines.append((model, dict(self.backend.calls)))
        return schedule

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def register_serving_source(self, source: Any) -> None:
        """Attach a serving stat source (an engine or micro-batcher).

        ``source`` must expose ``serving_stats() -> dict`` with integer
        counters; :meth:`stats` sums them under the ``"serving"`` key and
        derives the mean batch occupancy.  Called by
        :class:`~repro.serving.engine.InferenceEngine` and
        :class:`~repro.serving.batcher.MicroBatcher` at construction.
        """
        self._serving_sources.append(source)

    def _serving_totals(self) -> dict[str, Any]:
        totals = {"engines": 0, "batchers": 0, "infer_calls": 0, "rows": 0,
                  "batches": 0, "requests": 0, "queue_depth": 0}
        for source in self._serving_sources:
            for key, value in source.serving_stats().items():
                totals[key] = totals.get(key, 0) + value
        totals["mean_occupancy"] = (totals["requests"] / totals["batches"]
                                    if totals["batches"] else 0.0)
        return totals

    # ------------------------------------------------------------------
    # optimizers
    # ------------------------------------------------------------------
    def make_sgd(self, parameters, lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0,
                 grad_clip: float | None = None) -> SGD:
        """An SGD optimizer executing per ``config.optimizer``.

        ``"dense"`` returns the plain :class:`~repro.nn.optim.SGD`;
        ``"sparse"`` returns a :class:`~repro.optim_sparse.SparseSGD` sharing
        the runtime's dirty tracker, so its per-step activation window feeds
        the compact ops' scatter records straight into the update.  Both
        trainers construct their optimizer through this factory, and
        :meth:`stats` aggregates the counters of every optimizer it built.
        """
        if self.config.optimizer == "sparse":
            optimizer: SGD = SparseSGD(parameters, lr, momentum=momentum,
                                       weight_decay=weight_decay,
                                       grad_clip=grad_clip,
                                       tracker=self.dirty_tracker)
        else:
            optimizer = SGD(parameters, lr, momentum=momentum,
                            weight_decay=weight_decay, grad_clip=grad_clip)
        self._optimizers.append(optimizer)
        return optimizer

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @staticmethod
    def _zero_totals() -> dict[str, Any]:
        return {
            "steps": 0,
            "pools": {"sites": 0, "refills": 0, "consumed": 0, "remaining": 0},
            "head": {"draws": 0, "kept_classes": 0, "cluster_activations": 0},
        }

    @staticmethod
    def _zero_optimizer_totals() -> dict[str, int]:
        return dict.fromkeys(("steps", *SparseSGD.COUNTERS), 0)

    @staticmethod
    def _fold_optimizers(totals: dict[str, int],
                         optimizers: list[SGD]) -> None:
        for optimizer in optimizers:
            totals["steps"] += optimizer.step_count
            if isinstance(optimizer, SparseSGD):
                for name, count in optimizer.counters().items():
                    totals[name] += count

    @staticmethod
    def _fold(totals: dict[str, Any],
              bound: list[tuple[Any, PatternSchedule]]) -> None:
        """Add the live counters of ``bound`` (model, schedule) pairs to ``totals``."""
        seen_models: set[int] = set()
        for model, schedule in bound:
            totals["steps"] += schedule.iteration
            for site_stats in schedule.pool_stats().values():
                totals["pools"]["sites"] += 1
                totals["pools"]["refills"] += site_stats["refills"]
                totals["pools"]["consumed"] += site_stats["consumed"]
                totals["pools"]["remaining"] += site_stats["remaining"]
            if id(model) in seen_models:
                continue  # one model bound twice: count its heads once
            seen_models.add(id(model))
            for module in model.modules():
                if isinstance(module, LossHead):
                    for name, count in module.head_counters().items():
                        totals["head"][name] += count

    def _archive_finished_runs(self) -> None:
        """Fold the previous binds' counters and release their models.

        Called at the top of every :meth:`bind`: drivers run their training
        runs sequentially, so anything bound before a new bind is finished
        (its trainer has read its per-run :meth:`stats` already) and only its
        aggregate counters need to survive.
        """
        self._fold(self._archived, self._bound)
        self._bound = []
        self._bind_call_baselines = []
        # The previous runs' optimizers are done: fold their counters
        # (releasing the parameter references) and make sure no stale
        # activation window leaks into the next run.
        self._fold_optimizers(self._archived_optim, self._optimizers)
        self._optimizers = []
        self.dirty_tracker.clear()
        _dirty.deactivate(self.dirty_tracker)

    def stats(self, model=None) -> dict[str, Any]:
        """Engine counters: runtime-wide, or restricted to one bound model.

        Without ``model`` the pool/head/step counters (and the
        ``backend_calls`` totals) aggregate over every run of this runtime
        (the table-level record a driver stamps on its
        :class:`ExperimentTable`).  With ``model`` they cover only that
        model's schedule(s) and heads, and ``backend_calls`` is the
        delta since that model's bind — the per-run record a trainer
        attaches to its :class:`TrainingResult`; read it before the runtime's
        next ``bind``, which archives earlier runs and releases their models.
        The tile-plan / pattern cache counters are process-global caches
        reported as deltas since this runtime was created in either case.
        """
        config = self.config
        plan = tile_plan_cache_info()
        pattern = pattern_cache_info()
        backend_calls = dict(self.backend.calls)
        if model is None:
            totals = {"steps": self._archived["steps"],
                      "pools": dict(self._archived["pools"]),
                      "head": dict(self._archived["head"])}
            self._fold(totals, self._bound)
        else:
            totals = self._zero_totals()
            self._fold(totals, [(m, s) for m, s in self._bound if m is model])
            # Per-run record: report the backend calls since this model's
            # bind, not the runtime-cumulative totals (runs are sequential,
            # so the delta is exactly this run's work).
            baseline = next((calls for m, calls in self._bind_call_baselines
                             if m is model), {})
            backend_calls = {op: count - baseline.get(op, 0)
                             for op, count in backend_calls.items()
                             if count - baseline.get(op, 0)}
        steps = totals["steps"]
        pools = totals["pools"]
        # Optimizer counters are runtime-wide (optimizers are built from
        # parameter lists, not bound models, so there is no per-model split).
        optim = dict(self._archived_optim)
        self._fold_optimizers(optim, self._optimizers)
        dirty_elements = optim.pop("dirty_elements")
        total_elements = optim.pop("total_elements")
        return {
            "mode": config.mode,
            "dtype": config.dtype,
            "recurrent": config.recurrent,
            "loss_head": {"kind": config.loss_head,
                          "rate": config.loss_head_rate,
                          "shortlist": config.head_shortlist,
                          "clusters": config.head_clusters,
                          **totals["head"]},
            "optimizer": {"kind": config.optimizer,
                          **optim,
                          "dirty_fraction": (dirty_elements / total_elements
                                             if total_elements else 0.0),
                          "tracker": self.dirty_tracker.stats()},
            "backend_calls": backend_calls,
            "seed": config.seed,
            "runs": self.runs,
            "steps": steps,
            "tile_plan_cache": {
                "hits": plan.hits - self._plan_baseline.hits,
                "misses": plan.misses - self._plan_baseline.misses,
                "currsize": plan.currsize,
            },
            "pattern_cache": {
                kind: {
                    "hits": info.hits - self._pattern_baseline[kind].hits,
                    "misses": info.misses - self._pattern_baseline[kind].misses,
                    "currsize": info.currsize,
                }
                for kind, info in pattern.items()
            },
            "pools": pools,
            # Training allocates fresh scatter buffers, so nothing is reused;
            # the keys stay at zero for readers of the retired buffer ring's
            # counters (perfbench's traced run).
            "workspace": {"num_buffers": 0, "hits": 0, "misses": 0},
            "serving": self._serving_totals(),
        }

    def __repr__(self) -> str:
        return f"EngineRuntime({self.config.describe()}, runs={self.runs})"

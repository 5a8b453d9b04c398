"""Drop-in layers implementing approximate random dropout.

Three modules are provided:

* :class:`ApproxRandomDropout` — activation-level RDP dropout.  It replaces a
  conventional :class:`repro.nn.Dropout` module: instead of an i.i.d.
  Bernoulli mask, the layer applies the regular row pattern sampled for the
  current iteration.  It is the integration point used inside the LSTM, where
  the dropped hidden units make the *next* GEMM's rows/columns skippable.
* :class:`ApproxRandomDropoutLinear` — a fully-connected layer whose output
  neurons are dropped by an RDP pattern and whose forward/backward passes only
  compute the surviving rows (and, when the previous layer's pattern is known,
  only the surviving input columns).  This is the "reduce the scale of the
  matrices" kernel of Section III-A.
* :class:`ApproxDropConnectLinear` — a fully-connected layer whose weight
  matrix is dropped tile-by-tile (TDP, Section III-B), computing only the
  surviving 32x32 tiles.
* :class:`ApproxRecurrentDropConnect` — the weight-less *recurrent* pattern
  site: gate-aligned TDP over an LSTM cell's hidden-to-hidden projection,
  gated behind ``ExecutionConfig.recurrent`` (inert/dense until a runtime
  with ``recurrent="tiled"`` enables it).

All three share the same lifecycle: :meth:`resample` is called once per
training iteration (usually through :class:`repro.dropout.sampler.PatternSchedule`
or by the trainer), which draws a fresh ``(dp, bias)`` from the searched
distribution.  In eval mode they behave exactly like a plain linear layer /
identity, matching inverted-dropout semantics.

Execution modes: every layer carries an ``execution_mode`` attribute
(``"compact"``, the default, or ``"masked"``), normally set by
:meth:`repro.execution.EngineRuntime.bind`.  Under ``"masked"`` the layer
executes the conventional Fig. 1(a) way — dense GEMM (or identity) followed
by a 0/1 mask that is rebuilt every step — which is the baseline the compact
execution is benchmarked against.  The GEMM layers additionally carry a
``backend`` slot (an :class:`~repro.backends.ExecutionBackend`, installed by
the runtime from ``ExecutionConfig.backend``) through which their compact
ops execute; ``None`` falls back to the reference numpy backend.
"""

from __future__ import annotations

import numpy as np

from repro.backends import default_backend
from repro.dropout.compact_ops import (
    assemble_recurrent_context,
    gather_recurrent_blocks,
    recurrent_compact_context,
    recurrent_compact_linear,
    recurrent_context_linear,
    row_compact_linear,
    tile_compact_linear,
)
from repro.dropout.engine import compile_recurrent_plan, plan_column_classes
from repro.dropout.patterns import (
    RecurrentTilePattern,
    RowDropoutPattern,
    TileDropoutPattern,
    recurrent_tile_mask,
    row_pattern_mask,
    tile_pattern_mask,
)
from repro.dropout.sampler import PatternSampler
from repro.nn import initializers
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F

#: Hard cap on the default pattern period ``dp``.  The paper allows ``dp_max``
#: up to the layer width / tile count, but with the entropy-maximising
#: distribution a very large cap assigns non-trivial probability to patterns
#: that keep almost nothing of the layer in a single iteration, which hurts
#: accuracy at the modest layer widths this reproduction trains.  The default
#: period is therefore chosen adaptively per layer by
#: :func:`default_max_period` and clipped to this cap; callers can always pass
#: ``max_period`` explicitly to explore larger values (see the ablation
#: benchmarks).
DEFAULT_MAX_PERIOD = 16


def default_max_period(drop_rate: float, available: int,
                       cap: int = DEFAULT_MAX_PERIOD) -> int:
    """Adaptive default for ``dp_max`` given a target rate and the layer size.

    The period must be able to express the target rate (``(dp-1)/dp > rate``),
    so the default is a couple of steps above ``1 / (1 - rate)``; it is clipped
    to the number of available units/tiles and to ``cap``.
    """
    if not 0.0 <= drop_rate < 1.0:
        raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
    if available < 1:
        raise ValueError("available must be >= 1")
    if drop_rate == 0.0:
        return 1
    needed = int(np.ceil(1.0 / (1.0 - drop_rate)))
    return max(1, min(max(needed, 3), available, cap))


def _shrink_tile_to_rate(rows: int, cols: int, drop_rate: float,
                         tile: int) -> int:
    """Largest tile edge ``<= tile`` whose grid can express ``drop_rate``.

    A weight matrix too small for the requested rate at the nominal 32x32
    granularity (e.g. a 16-wide layer asked to drop half of its tiles) has
    its tile halved until the grid holds at least ``ceil(1/(1-rate))``
    tiles.  Shared by every tile-pattern site so the shrink rule cannot
    drift between layers.
    """
    needed = 1 if drop_rate == 0.0 else int(np.ceil(1.0 / (1.0 - drop_rate)))
    while tile > 1 and TileDropoutPattern(rows=rows, cols=cols, dp=1, bias=0,
                                          tile=tile).num_tiles < needed:
        tile //= 2
    return tile


class ApproxRandomDropout(Module):
    """Activation-level approximate random dropout (RDP over feature units).

    Parameters
    ----------
    num_units:
        Width of the activation this layer masks.
    drop_rate:
        Target global dropout rate ``p``.
    max_period:
        ``dp_max`` for the distribution search; defaults to
        ``min(num_units, 64)``.
    scale:
        Use inverted-dropout scaling of the surviving activations.
    rng:
        Random generator for pattern sampling.
    """

    def __init__(self, num_units: int, drop_rate: float,
                 max_period: int | None = None, scale: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_units <= 0:
            raise ValueError("num_units must be positive")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
        self.num_units = num_units
        self.drop_rate = float(drop_rate)
        self.scale = scale
        self.rng = rng or np.random.default_rng()
        self.max_period = max_period or default_max_period(self.drop_rate, num_units)
        self.sampler = PatternSampler(self.drop_rate, self.max_period, rng=self.rng)
        self.pattern: RowDropoutPattern | None = None
        self.execution_mode = "compact"
        if self.drop_rate > 0.0:
            self.resample()

    def resample(self) -> RowDropoutPattern:
        """Draw a fresh pattern for the next iteration."""
        self.pattern = self.sampler.sample_row_pattern(self.num_units)
        return self.pattern

    def draw_pool(self, count: int) -> list[RowDropoutPattern]:
        """Vectorized pool draw for :class:`~repro.dropout.sampler.PatternSchedule`."""
        return self.sampler.sample_row_patterns(self.num_units, count)

    def set_pattern(self, pattern: RowDropoutPattern) -> None:
        """Explicitly install a pattern (used by tests and by schedules)."""
        if pattern.num_units != self.num_units:
            raise ValueError(
                f"pattern covers {pattern.num_units} units, layer has {self.num_units}")
        self.pattern = pattern

    def forward(self, x: Tensor) -> Tensor:
        if self.drop_rate == 0.0:
            return x
        if not self.training:
            # Non-inverted dropout semantics: the expected train-time output of
            # a unit is (1 - p) times its full value, so evaluation rescales.
            return x * (1.0 - self.drop_rate) if self.scale else x
        if self.pattern is None:
            self.resample()
        if self.execution_mode == "masked":
            # Conventional-execution baseline: the mask is rebuilt every step.
            mask = row_pattern_mask(self.num_units, self.pattern.dp,
                                    self.pattern.bias, dtype=x.data.dtype)
        else:
            mask = self.pattern.mask(dtype=x.data.dtype)
        return F.apply_mask(x, mask)

    def __repr__(self) -> str:
        return (f"ApproxRandomDropout(num_units={self.num_units}, "
                f"drop_rate={self.drop_rate}, max_period={self.max_period})")


class ApproxBlockDropout(Module):
    """Activation-level tile-style dropout: contiguous blocks of units dropped.

    This is the activation-space analogue of the Tile-based Dropout Pattern:
    the feature vector is divided into blocks of ``block`` consecutive units
    (32 by default, matching the paper's tile edge / shared-memory bank
    count), and ``dp - 1`` out of every ``dp`` blocks are dropped according to
    a row pattern over the block indices.  It is used for the non-recurrent
    connections of the LSTM under the TILE configuration, where tile-dropping
    the consumer GEMM's columns is equivalent to block-dropping its input
    activations.
    """

    def __init__(self, num_units: int, drop_rate: float, block: int = 32,
                 max_period: int | None = None, scale: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_units <= 0:
            raise ValueError("num_units must be positive")
        if block <= 0:
            raise ValueError("block must be positive")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
        self.num_units = num_units
        self.drop_rate = float(drop_rate)
        self.scale = scale
        self.rng = rng or np.random.default_rng()
        # Shrink the block size when the feature vector is too narrow for the
        # requested rate to be expressible at the nominal block granularity
        # (e.g. a 16-unit activation cannot drop half of its 32-wide blocks).
        needed = 1 if self.drop_rate == 0.0 else int(np.ceil(1.0 / (1.0 - self.drop_rate)))
        self.block = block
        while self.block > 1 and int(np.ceil(num_units / self.block)) < needed:
            self.block //= 2
        self.num_blocks = max(1, int(np.ceil(num_units / self.block)))
        self.max_period = max_period or default_max_period(self.drop_rate, self.num_blocks)
        self.sampler = PatternSampler(self.drop_rate, self.max_period, rng=self.rng)
        self.pattern: RowDropoutPattern | None = None
        self.execution_mode = "compact"
        if self.drop_rate > 0.0:
            self.resample()

    def resample(self) -> RowDropoutPattern:
        """Draw a fresh block pattern (a row pattern over block indices)."""
        self.pattern = self.sampler.sample_row_pattern(self.num_blocks)
        return self.pattern

    def draw_pool(self, count: int) -> list[RowDropoutPattern]:
        """Vectorized pool draw (row patterns over the block indices)."""
        return self.sampler.sample_row_patterns(self.num_blocks, count)

    def set_pattern(self, pattern: RowDropoutPattern) -> None:
        """Explicitly install a block pattern (used by schedules and tests)."""
        if pattern.num_units != self.num_blocks:
            raise ValueError(
                f"pattern covers {pattern.num_units} blocks, layer has {self.num_blocks}")
        self.pattern = pattern

    def unit_mask(self, dtype=np.float64) -> np.ndarray:
        """Expand the block pattern to a 0/1 keep-mask over individual units."""
        if self.pattern is None:
            return np.ones(self.num_units, dtype=dtype)
        if self.execution_mode == "masked":
            block_mask = row_pattern_mask(self.num_blocks, self.pattern.dp,
                                          self.pattern.bias, dtype=dtype)
        else:
            block_mask = self.pattern.mask(dtype=dtype)
        return np.repeat(block_mask, self.block)[:self.num_units]

    def forward(self, x: Tensor) -> Tensor:
        if self.drop_rate == 0.0:
            return x
        if not self.training:
            return x * (1.0 - self.drop_rate) if self.scale else x
        if self.pattern is None:
            self.resample()
        mask = self.unit_mask(dtype=x.data.dtype)
        return F.apply_mask(x, mask)

    def __repr__(self) -> str:
        return (f"ApproxBlockDropout(num_units={self.num_units}, "
                f"drop_rate={self.drop_rate}, block={self.block})")


class ApproxRandomDropoutLinear(Module):
    """Linear layer with Row-based Dropout Pattern on its output neurons.

    During training the forward pass gathers only the surviving weight rows
    into a compact matrix, runs the small GEMM and scatters the result into a
    zero-filled full-width output — the software analogue of the modified
    Caffe kernel in Fig. 3(a).  When ``chain_input_pattern`` is enabled and an
    input pattern is supplied (the previous layer's RDP pattern), the weight
    columns of dropped inputs are skipped too.

    In eval mode the layer is an ordinary dense linear layer.
    """

    def __init__(self, in_features: int, out_features: int, drop_rate: float,
                 bias: bool = True, max_period: int | None = None,
                 scale: bool = True, init: str = "xavier_uniform",
                 rng: np.random.Generator | None = None):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
        self.in_features = in_features
        self.out_features = out_features
        self.drop_rate = float(drop_rate)
        self.scale = scale
        self.rng = rng or np.random.default_rng()
        init_fn = initializers.get(init)
        self.weight = Parameter(init_fn((out_features, in_features), self.rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.max_period = max_period or default_max_period(self.drop_rate, out_features)
        self.sampler = PatternSampler(self.drop_rate, self.max_period, rng=self.rng)
        self.pattern: RowDropoutPattern | None = None
        self.execution_mode = "compact"
        #: Execution backend of the compact ops (set by EngineRuntime.bind;
        #: None = the reference numpy backend).
        self.backend = None
        if self.drop_rate > 0.0:
            self.resample()

    def resample(self) -> RowDropoutPattern:
        """Draw a fresh output pattern for the next iteration."""
        self.pattern = self.sampler.sample_row_pattern(self.out_features)
        return self.pattern

    def draw_pool(self, count: int) -> list[RowDropoutPattern]:
        """Vectorized pool draw for :class:`~repro.dropout.sampler.PatternSchedule`."""
        return self.sampler.sample_row_patterns(self.out_features, count)

    def set_pattern(self, pattern: RowDropoutPattern) -> None:
        if pattern.num_units != self.out_features:
            raise ValueError(
                f"pattern covers {pattern.num_units} units, layer has {self.out_features} outputs")
        self.pattern = pattern

    def forward(self, x: Tensor,
                input_pattern: RowDropoutPattern | None = None) -> Tensor:
        if self.drop_rate == 0.0:
            return F.linear(x, self.weight, self.bias)
        if not self.training:
            # Non-inverted dropout: train-time outputs are unscaled, so the
            # evaluation-time output is rescaled by the expected keep fraction.
            out = F.linear(x, self.weight, self.bias)
            return out * (1.0 - self.drop_rate) if self.scale else out
        if self.pattern is None:
            self.resample()
        if self.execution_mode == "masked":
            # Fig. 1(a) baseline: dense GEMM, then the per-step mask pass.
            out = F.linear(x, self.weight, self.bias)
            mask = row_pattern_mask(self.out_features, self.pattern.dp,
                                    self.pattern.bias, dtype=x.data.dtype)
            return F.apply_mask(out, mask[None, :])
        return row_compact_linear(x, self.weight, self.bias, self.pattern,
                                  input_pattern=input_pattern, scale_factor=1.0,
                                  backend=self.backend)

    def __repr__(self) -> str:
        return (f"ApproxRandomDropoutLinear(in_features={self.in_features}, "
                f"out_features={self.out_features}, drop_rate={self.drop_rate})")


class ApproxDropConnectLinear(Module):
    """Linear layer with Tile-based Dropout Pattern over its weight matrix.

    ``dp - 1`` out of every ``dp`` ``tile x tile`` blocks of the weight matrix
    are dropped each iteration; only the surviving tiles participate in the
    forward and backward GEMMs (Fig. 3(b)).  In eval mode the layer is an
    ordinary dense linear layer.
    """

    def __init__(self, in_features: int, out_features: int, drop_rate: float,
                 bias: bool = True, tile: int = 32, max_period: int | None = None,
                 scale: bool = True, init: str = "xavier_uniform",
                 rng: np.random.Generator | None = None):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
        if tile <= 0:
            raise ValueError("tile must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.drop_rate = float(drop_rate)
        self.scale = scale
        self.rng = rng or np.random.default_rng()
        init_fn = initializers.get(init)
        self.weight = Parameter(init_fn((out_features, in_features), self.rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        # Shrink the tile when the weight matrix is too small for the requested
        # rate to be expressible with whole 32x32 tiles (small layers simply do
        # not have enough tiles); the paper's choice of 32 targets large layers.
        self.tile = _shrink_tile_to_rate(out_features, in_features,
                                         self.drop_rate, tile)
        reference = TileDropoutPattern(rows=out_features, cols=in_features,
                                       dp=1, bias=0, tile=self.tile)
        self.max_period = max_period or default_max_period(self.drop_rate,
                                                           reference.num_tiles)
        self.sampler = PatternSampler(self.drop_rate, self.max_period, rng=self.rng)
        self.pattern: TileDropoutPattern | None = None
        self.execution_mode = "compact"
        #: Execution backend of the compact ops (set by EngineRuntime.bind;
        #: None = the reference numpy backend).
        self.backend = None
        if self.drop_rate > 0.0:
            self.resample()

    def resample(self) -> TileDropoutPattern:
        """Draw a fresh tile pattern for the next iteration."""
        self.pattern = self.sampler.sample_tile_pattern(
            self.out_features, self.in_features, tile=self.tile)
        return self.pattern

    def draw_pool(self, count: int) -> list[TileDropoutPattern]:
        """Vectorized pool draw for :class:`~repro.dropout.sampler.PatternSchedule`."""
        return self.sampler.sample_tile_patterns(
            self.out_features, self.in_features, count, tile=self.tile)

    def set_pattern(self, pattern: TileDropoutPattern) -> None:
        if (pattern.rows, pattern.cols) != (self.out_features, self.in_features):
            raise ValueError(
                f"pattern shape ({pattern.rows}, {pattern.cols}) does not match layer "
                f"({self.out_features}, {self.in_features})")
        self.pattern = pattern

    def forward(self, x: Tensor) -> Tensor:
        if self.drop_rate == 0.0:
            return F.linear(x, self.weight, self.bias)
        if not self.training:
            # Non-inverted DropConnect: rescale the weight contribution by the
            # expected keep fraction at evaluation time (the bias is never
            # dropped, so it is not rescaled).
            if not self.scale:
                return F.linear(x, self.weight, self.bias)
            out = F.linear(x, self.weight * (1.0 - self.drop_rate), None)
            return out + self.bias if self.bias is not None else out
        if self.pattern is None:
            self.resample()
        if self.execution_mode == "masked":
            # Fig. 1(a) baseline: mask the dense weight matrix every step.
            mask = tile_pattern_mask(self.out_features, self.in_features,
                                     self.pattern.dp, self.pattern.bias,
                                     self.tile, dtype=x.data.dtype)
            return F.linear(x, F.apply_mask(self.weight, mask), self.bias)
        return tile_compact_linear(x, self.weight, self.bias, self.pattern,
                                   scale_factor=1.0, backend=self.backend)

    def __repr__(self) -> str:
        return (f"ApproxDropConnectLinear(in_features={self.in_features}, "
                f"out_features={self.out_features}, drop_rate={self.drop_rate}, "
                f"tile={self.tile})")


class ApproxRecurrentDropConnect(Module):
    """Gate-aligned structured DropConnect site for a recurrent projection.

    Unlike the other pattern layers this module owns no weights: it wraps the
    ``h @ weight_h.T`` step of an :class:`~repro.nn.recurrent.LSTMCell`, whose
    ``weight_h`` parameter stays on the cell.  Each training iteration one
    :class:`~repro.dropout.patterns.RecurrentTilePattern` is sampled (or
    installed by a pooled :class:`~repro.dropout.sampler.PatternSchedule`) and
    :meth:`project` computes the recurrent GEMM touching only the surviving
    per-gate weight tiles — the recurrent half of the paper's DropConnect
    acceleration that the seed implementation left dense.

    The site is **gated**: it is constructed by the model's dropout strategy
    but stays inert (``enabled=False`` — :meth:`project` is a plain dense
    GEMM and :attr:`drop_rate` reads 0, so the pooled schedule skips it)
    until :meth:`repro.execution.EngineRuntime.bind` flips ``enabled`` for
    ``ExecutionConfig(recurrent="tiled")``.  ``execution_mode`` and
    ``backend`` behave as on the other pattern layers.
    """

    #: Marker :meth:`EngineRuntime.bind` probes to apply the ``recurrent``
    #: execution toggle (duck-typed like ``execution_mode``/``backend``).
    recurrent_site = True

    def __init__(self, hidden_size: int, drop_rate: float, num_gates: int = 4,
                 tile: int = 32, max_period: int | None = None,
                 scale: bool = True, rng: np.random.Generator | None = None,
                 enabled: bool = False):
        super().__init__()
        if hidden_size <= 0:
            raise ValueError("hidden_size must be positive")
        if num_gates < 1:
            raise ValueError("num_gates must be >= 1")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
        if tile <= 0:
            raise ValueError("tile must be positive")
        self.hidden_size = hidden_size
        self.num_gates = num_gates
        self.target_rate = float(drop_rate)
        self.scale = scale
        self.rng = rng or np.random.default_rng()
        self.enabled = bool(enabled)
        # Shrink the tile when the per-gate (hidden, hidden) block is too
        # small for the requested rate at the nominal 32x32 granularity.
        self.tile = _shrink_tile_to_rate(hidden_size, hidden_size,
                                         self.target_rate, tile)
        reference = TileDropoutPattern(rows=hidden_size, cols=hidden_size,
                                       dp=1, bias=0, tile=self.tile)
        self.max_period = max_period or default_max_period(self.target_rate,
                                                           reference.num_tiles)
        self.sampler = PatternSampler(self.target_rate, self.max_period,
                                      rng=self.rng)
        self.pattern: RecurrentTilePattern | None = None
        self.execution_mode = "compact"
        #: Execution backend of the compact op (set by EngineRuntime.bind;
        #: None = the reference numpy backend).
        self.backend = None
        # Cross-window weight-tile context cache, driven by the sparse
        # optimizer's dirty notifications (see install_context_cache).  Off
        # by default: without update notifications a cached gather would go
        # stale the moment the optimizer touches weight_h.
        self.context_cache_enabled = False
        self._context_cache: dict = {}
        self._tracked_weight_id: int | None = None
        self._row_version: np.ndarray | None = None
        self._version = 0
        self.context_classes_refreshed = 0
        self.context_classes_reused = 0

    # ------------------------------------------------------------------
    # sparse-optimizer context cache
    # ------------------------------------------------------------------
    def install_context_cache(self, tracker) -> None:
        """Enable cross-window caching of the gathered weight tiles.

        ``tracker`` is the runtime's :class:`~repro.tensor.dirty.DirtyTracker`;
        the site registers itself as an update observer, so every sparse
        parameter update reports which rows of the (interned) weight array it
        touched and :meth:`window_context` re-gathers only the column classes
        whose rows actually moved since they were last gathered.
        """
        self.context_cache_enabled = True
        self._context_cache.clear()
        self._tracked_weight_id = None
        self._row_version = None
        self._version = 0
        tracker.set_observer(self, self._on_param_update)

    def disable_context_cache(self) -> None:
        self.context_cache_enabled = False
        self._context_cache.clear()
        self._tracked_weight_id = None
        self._row_version = None

    def _on_param_update(self, array: np.ndarray, kind: str, indices) -> None:
        """Dirty-tracker observer: version-stamp the rows an update touched."""
        if self._tracked_weight_id is None or id(array) != self._tracked_weight_id:
            return
        self._version += 1
        if kind == "rows" and indices is not None:
            self._row_version[np.asarray(indices)] = self._version
        else:
            # "full" (or an unexpected kind): everything may have moved.
            self._row_version[:] = self._version

    def _cached_context(self, weight: Tensor):
        """A window context served from (and refreshed into) the tile cache."""
        backend = self.backend or default_backend()
        plan = compile_recurrent_plan(self.pattern)
        classes = plan_column_classes(plan)
        if (self._tracked_weight_id != id(weight.data)
                or self._row_version is None
                or self._row_version.shape[0] != weight.data.shape[0]):
            # New (or re-cast) weight array: start tracking it afresh.
            self._context_cache.clear()
            self._tracked_weight_id = id(weight.data)
            self._row_version = np.zeros(weight.data.shape[0], dtype=np.int64)
            self._version = 0
        entry = self._context_cache.get(plan.identity)
        if entry is None:
            if len(self._context_cache) >= 8:
                self._context_cache.clear()
            flat, blocks = gather_recurrent_blocks(weight.data, classes, backend)
            entry = {"flat": flat, "blocks": blocks,
                     "versions": [self._version] * len(classes)}
            self._context_cache[plan.identity] = entry
            self.context_classes_refreshed += len(classes)
        else:
            flat, blocks = entry["flat"], entry["blocks"]
            versions = entry["versions"]
            for index, ((rows, cols), block) in enumerate(zip(classes, blocks)):
                if rows.size and int(self._row_version[rows].max()) > versions[index]:
                    block[...] = backend.gather_block(weight.data, rows, cols)
                    versions[index] = self._version
                    self.context_classes_refreshed += 1
                else:
                    self.context_classes_reused += 1
        return assemble_recurrent_context(weight, self.pattern, plan, backend,
                                          classes, flat, entry["blocks"])

    @property
    def drop_rate(self) -> float:
        """The effective rate: 0 while the site is disabled, so the pooled
        schedule (:func:`~repro.dropout.sampler.is_pattern_site`) skips it."""
        return self.target_rate if self.enabled else 0.0

    # ------------------------------------------------------------------
    # pattern lifecycle (pool protocol, like every other pattern layer)
    # ------------------------------------------------------------------
    def resample(self) -> RecurrentTilePattern | None:
        """Draw a fresh gate-aligned pattern (no-op while disabled)."""
        if self.drop_rate == 0.0:
            self.pattern = None
            return None
        self.pattern = self.sampler.sample_recurrent_pattern(
            self.hidden_size, self.num_gates, tile=self.tile)
        return self.pattern

    def draw_pool(self, count: int) -> list[RecurrentTilePattern]:
        """Vectorized pool draw for :class:`~repro.dropout.sampler.PatternSchedule`."""
        return self.sampler.sample_recurrent_patterns(
            self.hidden_size, self.num_gates, count, tile=self.tile)

    def set_pattern(self, pattern: RecurrentTilePattern) -> None:
        if (pattern.hidden_size, pattern.num_gates, pattern.tile) != (
                self.hidden_size, self.num_gates, self.tile):
            raise ValueError(
                f"pattern covers hidden={pattern.hidden_size} gates="
                f"{pattern.num_gates} tile={pattern.tile}, site has "
                f"hidden={self.hidden_size} gates={self.num_gates} "
                f"tile={self.tile}")
        self.pattern = pattern

    # ------------------------------------------------------------------
    # the recurrent projection
    # ------------------------------------------------------------------
    def window_context(self, weight: Tensor):
        """Pre-gather the surviving weight tiles for a whole BPTT window.

        Returns ``None`` whenever the compact path is not active (disabled,
        eval mode, or ``masked`` execution) — callers pass the result to
        :meth:`project` for every timestep of the window, so the weight
        gather cost amortises over the unroll (the pattern is fixed for the
        window; the optimizer only updates the weight between windows).
        """
        if self.drop_rate == 0.0 or not self.training:
            return None
        if self.execution_mode == "masked":
            return None
        if self.pattern is None:
            self.resample()
        if self.context_cache_enabled:
            return self._cached_context(weight)
        return recurrent_compact_context(weight, self.pattern,
                                         backend=self.backend)

    def project(self, h: Tensor, weight: Tensor, context=None) -> Tensor:
        """Compute ``h @ weight.T`` under the current recurrent pattern.

        Dense when disabled; inverted-DropConnect-style rescaling (by the
        expected keep fraction) in eval mode; dense-GEMM-plus-rebuilt-mask
        under ``execution_mode == "masked"`` (the Fig. 1(a) baseline);
        the compact execution otherwise — against a hoisted
        :meth:`window_context` when one is supplied and still current, else
        through the plan op directly.
        """
        if self.drop_rate == 0.0:
            return F.linear(h, weight, None)
        if not self.training:
            # Non-inverted DropConnect: rescale the recurrent contribution by
            # the expected keep fraction at evaluation time.
            if not self.scale:
                return F.linear(h, weight, None)
            return F.linear(h, weight * (1.0 - self.drop_rate), None)
        if self.pattern is None:
            self.resample()
        if self.execution_mode == "masked":
            # Fig. 1(a) baseline: mask the dense recurrent weight every step
            # (the pattern's own tile, which set_pattern pins to the site's).
            mask = recurrent_tile_mask(self.hidden_size, self.num_gates,
                                       self.pattern.dp, self.pattern.bias,
                                       self.pattern.tile, dtype=h.data.dtype)
            return F.linear(h, F.apply_mask(weight, mask), None)
        if (context is not None and context.pattern is self.pattern
                and context.weight is weight):
            return recurrent_context_linear(h, context, backend=self.backend)
        return recurrent_compact_linear(h, weight, self.pattern,
                                        backend=self.backend)

    def forward(self, h: Tensor, weight: Tensor) -> Tensor:
        return self.project(h, weight)

    def __repr__(self) -> str:
        return (f"ApproxRecurrentDropConnect(hidden_size={self.hidden_size}, "
                f"num_gates={self.num_gates}, drop_rate={self.target_rate}, "
                f"tile={self.tile}, enabled={self.enabled})")

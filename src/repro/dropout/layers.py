"""Drop-in layers implementing approximate random dropout.

Five modules are provided, all :class:`~repro.dropout.sampler.PatternSite`
subclasses:

* :class:`ApproxRandomDropout` — activation-level RDP dropout.  It replaces a
  conventional :class:`repro.nn.Dropout` module: instead of an i.i.d.
  Bernoulli mask, the layer applies the regular row pattern sampled for the
  current iteration.  It is the integration point used inside the LSTM, where
  the dropped hidden units make the *next* GEMM's rows/columns skippable.
* :class:`ApproxBlockDropout` — its tile-style analogue: contiguous blocks of
  units are dropped by a row pattern over the block indices (the LSTM's
  non-recurrent dropout under the TILE configuration).
* :class:`ApproxRandomDropoutLinear` — a fully-connected layer whose output
  neurons are dropped by an RDP pattern and whose forward/backward passes only
  compute the surviving rows (and, when the caller passes the previous
  layer's pattern as ``input_pattern``, only the surviving input columns).
  This is the "reduce the scale of the matrices" kernel of Section III-A.
* :class:`ApproxDropConnectLinear` — a fully-connected layer whose weight
  matrix is dropped tile-by-tile (TDP, Section III-B), computing only the
  surviving 32x32 tiles.
* :class:`ApproxRecurrentDropConnect` — the weight-less *recurrent* pattern
  site: gate-aligned TDP over an LSTM cell's hidden-to-hidden projection,
  gated behind ``ExecutionConfig.recurrent`` (inert/dense until a runtime
  with ``recurrent="tiled"`` enables it).

All five share the :class:`~repro.dropout.sampler.PatternSite` lifecycle: one
pattern per training iteration, installed by a
:class:`~repro.dropout.sampler.PatternSchedule` in either execution mode (the
four weight and activation layers draw their first pattern at construction,
the recurrent site on first use).  Each class defines only its pattern domain,
:meth:`~repro.dropout.sampler.PatternSite.make_pattern` and its forward math.
The dropout is non-inverted: training leaves the survivors unscaled, and with
``scale=True`` evaluation multiplies by the keep fraction ``1 - p`` (the
weight layers rescale the weight contribution).

Execution modes: every layer carries an ``execution_mode`` attribute
(``"compact"``, the default, or ``"masked"``), normally set by
:meth:`repro.execution.EngineRuntime.bind`.  Under ``"masked"`` the layer
executes the conventional Fig. 1(a) way — dense GEMM (or identity) followed
by a 0/1 mask that is rebuilt every step — which is the baseline the compact
execution is benchmarked against.  The GEMM layers execute their compact ops
through the ``backend`` slot (the runtime's
:class:`~repro.backends.ExecutionBackend`, installed by
:meth:`~repro.execution.EngineRuntime.bind`); ``None`` falls back to
:func:`~repro.backends.default_backend`.
"""

from __future__ import annotations

import numpy as np

from repro.dropout.compact_ops import (
    recurrent_compact_context,
    row_compact_linear,
    tile_compact_linear,
)
from repro.dropout.patterns import (
    RecurrentTilePattern,
    RowDropoutPattern,
    TileDropoutPattern,
    recurrent_tile_mask,
    recurrent_tile_pattern,
    row_pattern,
    row_pattern_mask,
    tile_pattern,
    tile_pattern_mask,
)
from repro.dropout.sampler import PatternSite
from repro.nn import initializers
from repro.nn.module import Parameter
from repro.tensor import Tensor, functional as F


def _tile_grid(rows: int, cols: int, drop_rate: float,
               tile: int) -> tuple[int, int]:
    """The tile edge and tile count of a ``rows x cols`` site at ``drop_rate``.

    A matrix too small for the requested rate at the nominal 32x32
    granularity (e.g. a 16-wide layer asked to drop half of its tiles) has
    its tile halved until the grid holds at least ``ceil(1/(1-rate))``
    tiles.  Shared by every tile-pattern site, and by the block site (a
    block pattern is a one-row grid), so the shrink rule cannot drift
    between layers.  An invalid rate keeps the tile for
    :class:`~repro.dropout.sampler.PatternSite` to reject.
    """
    needed = int(np.ceil(1.0 / (1.0 - drop_rate))) if 0.0 < drop_rate < 1.0 else 1

    def num_tiles(edge: int) -> int:
        return TileDropoutPattern(rows=rows, cols=cols, dp=1, bias=0,
                                  tile=edge).num_tiles

    while tile > 1 and num_tiles(tile) < needed:
        tile //= 2
    return tile, num_tiles(tile)


class ApproxRandomDropout(PatternSite):
    """Activation-level approximate random dropout (RDP over feature units).

    Parameters
    ----------
    num_units:
        Width of the activation this layer masks (the pattern domain).
    drop_rate:
        Target global dropout rate ``p``.
    max_period:
        ``dp_max`` for the distribution search; defaults to
        :func:`~repro.dropout.sampler.default_max_period` of the rate and
        ``num_units`` (at most 16).
    scale:
        Rescale evaluation outputs by the keep fraction ``1 - p`` (training
        outputs are never scaled); ``False`` makes evaluation the identity.
    rng:
        Random generator for pattern sampling.
    """

    def __init__(self, num_units: int, drop_rate: float,
                 max_period: int | None = None, scale: bool = True,
                 rng: np.random.Generator | None = None):
        if num_units <= 0:
            raise ValueError("num_units must be positive")
        super().__init__(drop_rate, num_units, max_period, rng)
        self.num_units = num_units
        self.scale = scale
        if self.drop_rate > 0.0:
            self.resample()

    def make_pattern(self, dp: int, bias: int) -> RowDropoutPattern:
        return row_pattern(self.num_units, dp, bias)

    def forward(self, x: Tensor) -> Tensor:
        if self.drop_rate == 0.0:
            return x
        if not self.training:
            # Non-inverted dropout semantics: the expected train-time output of
            # a unit is (1 - p) times its full value, so evaluation rescales.
            return x * (1.0 - self.drop_rate) if self.scale else x
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


class ApproxBlockDropout(PatternSite):
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
        if num_units <= 0:
            raise ValueError("num_units must be positive")
        if block <= 0:
            raise ValueError("block must be positive")
        # A 16-unit activation cannot drop half of its 32-wide blocks: the
        # block shrinks like a tile until the rate is expressible.
        block, num_blocks = _tile_grid(1, num_units, drop_rate, block)
        super().__init__(drop_rate, num_blocks, max_period, rng)
        self.num_units = num_units
        self.scale = scale
        self.block = block
        self.num_blocks = num_blocks
        if self.drop_rate > 0.0:
            self.resample()

    def make_pattern(self, dp: int, bias: int) -> RowDropoutPattern:
        """A row pattern over the block indices."""
        return row_pattern(self.num_blocks, dp, bias)

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
        mask = self.unit_mask(dtype=x.data.dtype)
        return F.apply_mask(x, mask)

    def __repr__(self) -> str:
        return (f"ApproxBlockDropout(num_units={self.num_units}, "
                f"drop_rate={self.drop_rate}, block={self.block})")


class ApproxRandomDropoutLinear(PatternSite):
    """Linear layer with Row-based Dropout Pattern on its output neurons.

    During training the forward pass gathers only the surviving weight rows
    into a compact matrix, runs the small GEMM and scatters the result into a
    zero-filled full-width output — the software analogue of the modified
    Caffe kernel in Fig. 3(a).  When the caller passes ``input_pattern`` (the
    previous layer's RDP pattern, as :class:`~repro.models.MLPClassifier`
    does), the weight columns of dropped inputs are skipped too.

    In eval mode the layer is an ordinary dense linear layer.
    """

    def __init__(self, in_features: int, out_features: int, drop_rate: float,
                 bias: bool = True, max_period: int | None = None,
                 scale: bool = True, init: str = "xavier_uniform",
                 rng: np.random.Generator | None = None):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        super().__init__(drop_rate, out_features, max_period, rng)
        self.in_features = in_features
        self.out_features = out_features
        self.scale = scale
        init_fn = initializers.get(init)
        self.weight = Parameter(init_fn((out_features, in_features), self.rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        if self.drop_rate > 0.0:
            self.resample()

    def make_pattern(self, dp: int, bias: int) -> RowDropoutPattern:
        return row_pattern(self.out_features, dp, bias)

    def forward(self, x: Tensor,
                input_pattern: RowDropoutPattern | None = None) -> Tensor:
        if self.drop_rate == 0.0:
            return F.linear(x, self.weight, self.bias)
        if not self.training:
            # Non-inverted dropout: train-time outputs are unscaled, so the
            # evaluation-time output is rescaled by the expected keep fraction.
            out = F.linear(x, self.weight, self.bias)
            return out * (1.0 - self.drop_rate) if self.scale else out
        if self.execution_mode == "masked":
            # Fig. 1(a) baseline: dense GEMM, then the per-step mask pass.
            out = F.linear(x, self.weight, self.bias)
            mask = row_pattern_mask(self.out_features, self.pattern.dp,
                                    self.pattern.bias, dtype=x.data.dtype)
            return F.apply_mask(out, mask[None, :])
        return row_compact_linear(x, self.weight, self.bias, self.pattern,
                                  input_pattern=input_pattern,
                                  backend=self.backend)

    def __repr__(self) -> str:
        return (f"ApproxRandomDropoutLinear(in_features={self.in_features}, "
                f"out_features={self.out_features}, drop_rate={self.drop_rate})")


class ApproxDropConnectLinear(PatternSite):
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
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        if tile <= 0:
            raise ValueError("tile must be positive")
        # Small layers have too few 32x32 tiles to express the rate; the
        # paper's choice of 32 targets large layers.
        tile, num_tiles = _tile_grid(out_features, in_features, drop_rate, tile)
        super().__init__(drop_rate, num_tiles, max_period, rng)
        self.in_features = in_features
        self.out_features = out_features
        self.scale = scale
        self.tile = tile
        init_fn = initializers.get(init)
        self.weight = Parameter(init_fn((out_features, in_features), self.rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        if self.drop_rate > 0.0:
            self.resample()

    def make_pattern(self, dp: int, bias: int) -> TileDropoutPattern:
        return tile_pattern(self.out_features, self.in_features, dp, bias,
                            self.tile)

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
        if self.execution_mode == "masked":
            # Fig. 1(a) baseline: mask the dense weight matrix every step.
            mask = tile_pattern_mask(self.out_features, self.in_features,
                                     self.pattern.dp, self.pattern.bias,
                                     self.tile, dtype=x.data.dtype)
            return F.linear(x, F.apply_mask(self.weight, mask), self.bias)
        return tile_compact_linear(x, self.weight, self.bias, self.pattern,
                                   backend=self.backend)

    def __repr__(self) -> str:
        return (f"ApproxDropConnectLinear(in_features={self.in_features}, "
                f"out_features={self.out_features}, drop_rate={self.drop_rate}, "
                f"tile={self.tile})")


class ApproxRecurrentDropConnect(PatternSite):
    """Gate-aligned structured DropConnect site for a recurrent projection.

    Unlike the other pattern layers this module owns no weights: it wraps the
    ``h @ weight_h.T`` step of an :class:`~repro.nn.recurrent.LSTMCell`, whose
    ``weight_h`` parameter stays on the cell.  Each training iteration the
    :class:`~repro.dropout.sampler.PatternSchedule` installs one
    :class:`~repro.dropout.patterns.RecurrentTilePattern` and
    :meth:`window_projection` builds the window's recurrent projection,
    touching only the surviving per-gate weight tiles — the recurrent half of
    the paper's DropConnect acceleration that the seed implementation left
    dense.

    The site is **gated**: it is constructed by the model's dropout strategy
    but stays inert (``enabled=False`` — the projection is a plain dense
    GEMM and :attr:`drop_rate` reads 0, so the pooled schedule skips it)
    until :meth:`repro.execution.EngineRuntime.bind` flips ``enabled`` for
    ``ExecutionConfig(recurrent="tiled")``.  ``execution_mode`` and
    ``backend`` behave as on the other pattern layers.  Its domain is the
    per-gate tile grid: every gate block replays the same ``(dp, bias)``.
    """

    def __init__(self, hidden_size: int, drop_rate: float, num_gates: int = 4,
                 tile: int = 32, max_period: int | None = None,
                 scale: bool = True, rng: np.random.Generator | None = None,
                 enabled: bool = False):
        if hidden_size <= 0:
            raise ValueError("hidden_size must be positive")
        if num_gates < 1:
            raise ValueError("num_gates must be >= 1")
        if tile <= 0:
            raise ValueError("tile must be positive")
        tile, num_tiles = _tile_grid(hidden_size, hidden_size, drop_rate, tile)
        super().__init__(drop_rate, num_tiles, max_period, rng)
        self.hidden_size = hidden_size
        self.num_gates = num_gates
        self.scale = scale
        self.enabled = bool(enabled)
        self.tile = tile

    @property
    def drop_rate(self) -> float:
        """The effective rate: 0 while the site is disabled, so the pooled
        schedule (:func:`~repro.dropout.sampler.is_pattern_site`) skips it."""
        return self.target_rate if self.enabled else 0.0

    def make_pattern(self, dp: int, bias: int) -> RecurrentTilePattern:
        return recurrent_tile_pattern(self.hidden_size, self.num_gates, dp,
                                      bias, self.tile)

    # ------------------------------------------------------------------
    # the recurrent projection
    # ------------------------------------------------------------------
    def window_projection(self, weight: Tensor) -> F.RecurrentProjection:
        """The projection ``h @ weight.T`` of one window under the current
        pattern — the site's single dispatch.

        Dense when disabled; rescaled by the expected keep fraction in eval
        mode (non-inverted DropConnect); the dense weight times a rebuilt
        tile mask under ``execution_mode == "masked"`` (the Fig. 1(a)
        baseline); otherwise the compact
        :class:`~repro.dropout.compact_ops.TileContext`, whose
        weight-tile gather is paid once per window.  The LSTM cell hands the
        result to :func:`~repro.tensor.functional.lstm_recurrence`.
        """
        if self.drop_rate == 0.0:
            return F.DenseProjection(weight)
        if not self.training:
            if not self.scale:
                return F.DenseProjection(weight)
            return F.DenseProjection(weight * (1.0 - self.drop_rate))
        if self.pattern is None:
            self.resample()
        if self.execution_mode == "masked":
            # The pattern's own tile, which set_pattern pins to the site's.
            mask = recurrent_tile_mask(self.hidden_size, self.num_gates,
                                       self.pattern.dp, self.pattern.bias,
                                       self.pattern.tile, dtype=weight.data.dtype)
            return F.DenseProjection(F.apply_mask(weight, mask))
        return recurrent_compact_context(weight, self.pattern,
                                         backend=self.backend)

    def project(self, h: Tensor, weight: Tensor) -> Tensor:
        """One step ``h @ weight.T`` of :meth:`window_projection`."""
        return self.window_projection(weight)(h)

    def forward(self, h: Tensor, weight: Tensor) -> Tensor:
        return self.project(h, weight)

    def __repr__(self) -> str:
        return (f"ApproxRecurrentDropConnect(hidden_size={self.hidden_size}, "
                f"num_gates={self.num_gates}, drop_rate={self.target_rate}, "
                f"tile={self.tile}, enabled={self.enabled})")

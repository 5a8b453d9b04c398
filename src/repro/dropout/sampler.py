"""Per-iteration dropout-pattern sampling (Section III-D of the paper).

Once Algorithm 1 has produced the distribution ``K`` over pattern periods, the
training loop draws one concrete pattern per iteration:

1. sample a period ``dp ~ K``;
2. sample a bias ``b`` uniformly from the ``dp`` possible phases;
3. instantiate the RDP/TDP pattern for the layer being dropped.

The search is a one-time effort ("SGD based search and data initialization
are an one-time effort" — Section IV-C): a seeded search's result is interned
process-wide by :meth:`PatternDistributionSearch.search`, so every
:class:`PatternSampler` asking for the same (target rate, max period) with the
same search settings shares one search, across sites and models, until
:func:`~repro.dropout.patterns.clear_pattern_caches`.  The
:class:`PatternSchedule` groups one sampler per dropout site so a whole model
can resample all of its patterns at the top of each iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.dropout.patterns import (
    RecurrentTilePattern,
    RowDropoutPattern,
    TileDropoutPattern,
    recurrent_tile_pattern,
    row_pattern,
    tile_pattern,
)
from repro.dropout.search import PatternDistributionSearch, SearchResult


class PatternSampler:
    """Samples ``(dp, bias)`` pairs from a searched pattern distribution.

    Parameters
    ----------
    target_rate:
        The global dropout rate ``p`` the pattern stream should realise.
    max_period:
        ``N`` (``dp_max``), the largest period available to the search.
    rng:
        Random generator for the per-iteration draws.
    search:
        Optional pre-configured :class:`PatternDistributionSearch`; a default
        one (seed 0) is built when omitted.

    The searched distribution is fetched on first use.  Samplers with equal
    rates, periods and search settings get the same interned, read-only
    :class:`SearchResult`, so a model's sites share one search.
    """

    def __init__(self, target_rate: float, max_period: int,
                 rng: np.random.Generator | None = None,
                 search: PatternDistributionSearch | None = None):
        if max_period < 1:
            raise ValueError("max_period must be >= 1")
        self.target_rate = float(target_rate)
        self.max_period = int(max_period)
        self.rng = rng or np.random.default_rng()
        self._search = search or PatternDistributionSearch(max_period=self.max_period)
        self._result: SearchResult | None = None

    @property
    def result(self) -> SearchResult:
        """The searched distribution (fetched lazily, once)."""
        if self._result is None:
            self._result = self._search.search(self.target_rate)
        return self._result

    @property
    def distribution(self) -> np.ndarray:
        return self.result.distribution

    def sample_period(self) -> int:
        """Draw a period ``dp ∈ {1..N}`` from the searched distribution."""
        return int(self.rng.choice(self.max_period, p=self.distribution) + 1)

    def sample_bias(self, period: int) -> int:
        """Draw a bias uniformly from ``{0, .., period-1}``."""
        if period < 1:
            raise ValueError("period must be >= 1")
        return int(self.rng.integers(0, period))

    def sample(self) -> tuple[int, int]:
        """Draw a full ``(dp, bias)`` pattern parameterisation."""
        period = self.sample_period()
        return period, self.sample_bias(period)

    def sample_row_pattern(self, num_units: int) -> RowDropoutPattern:
        """Draw an RDP pattern for a layer with ``num_units`` neurons."""
        period, bias = self.sample()
        period = min(period, num_units)
        bias = bias % period
        return row_pattern(num_units, period, bias)

    def sample_tile_pattern(self, rows: int, cols: int, tile: int = 32) -> TileDropoutPattern:
        """Draw a TDP pattern for a ``rows x cols`` weight matrix."""
        period, bias = self.sample()
        reference = TileDropoutPattern(rows=rows, cols=cols, dp=1, bias=0, tile=tile)
        period = min(period, reference.num_tiles)
        bias = bias % period
        return tile_pattern(rows, cols, period, bias, tile)

    def sample_recurrent_pattern(self, hidden_size: int, num_gates: int = 4,
                                 tile: int = 32) -> RecurrentTilePattern:
        """Draw a gate-aligned weight-tile (DropConnect) pattern for a
        ``(num_gates * hidden, hidden)`` recurrent weight matrix.

        The period domain is the per-gate tile grid — the same ``(dp, bias)``
        is replayed by every gate block.
        """
        period, bias = self.sample()
        reference = TileDropoutPattern(rows=hidden_size, cols=hidden_size,
                                       dp=1, bias=0, tile=tile)
        period = min(period, reference.num_tiles)
        bias = bias % period
        return recurrent_tile_pattern(hidden_size, num_gates, period, bias, tile)

    # ------------------------------------------------------------------
    # vectorized (batched) sampling — the pattern-pool fast path
    # ------------------------------------------------------------------
    def sample_many(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` ``(dp, bias)`` pairs in two vectorized RNG calls.

        Statistically identical to ``count`` repeated :meth:`sample` calls:
        periods come from the searched distribution, biases are uniform over
        ``{0, .., dp-1}`` conditional on the period.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        periods = self.rng.choice(self.max_period, size=count,
                                  p=self.distribution).astype(np.int64) + 1
        biases = np.floor(self.rng.random(count) * periods).astype(np.int64)
        return periods, biases

    def sample_row_patterns(self, num_units: int, count: int) -> list[RowDropoutPattern]:
        """Batched :meth:`sample_row_pattern`: one vectorized draw, interned patterns."""
        periods, biases = self.sample_many(count)
        periods = np.minimum(periods, num_units)
        biases = biases % periods
        return [row_pattern(num_units, int(dp), int(b))
                for dp, b in zip(periods, biases)]

    def sample_tile_patterns(self, rows: int, cols: int, count: int,
                             tile: int = 32) -> list[TileDropoutPattern]:
        """Batched :meth:`sample_tile_pattern`: one vectorized draw, interned patterns."""
        reference = TileDropoutPattern(rows=rows, cols=cols, dp=1, bias=0, tile=tile)
        periods, biases = self.sample_many(count)
        periods = np.minimum(periods, reference.num_tiles)
        biases = biases % periods
        return [tile_pattern(rows, cols, int(dp), int(b), tile)
                for dp, b in zip(periods, biases)]

    def sample_recurrent_patterns(self, hidden_size: int, num_gates: int,
                                  count: int, tile: int = 32,
                                  ) -> list[RecurrentTilePattern]:
        """Batched :meth:`sample_recurrent_pattern`: one vectorized draw,
        interned patterns."""
        reference = TileDropoutPattern(rows=hidden_size, cols=hidden_size,
                                       dp=1, bias=0, tile=tile)
        periods, biases = self.sample_many(count)
        periods = np.minimum(periods, reference.num_tiles)
        biases = biases % periods
        return [recurrent_tile_pattern(hidden_size, num_gates, int(dp), int(b), tile)
                for dp, b in zip(periods, biases)]

    def expected_drop_rate(self) -> float:
        """The expected global dropout rate of the sampled pattern stream."""
        return self.result.achieved_rate


def is_pattern_site(module) -> bool:
    """True when ``module`` is a live, poolable dropout site.

    The single definition shared by :meth:`PatternSchedule.from_model` and
    :meth:`repro.execution.EngineRuntime.bind`: the module must expose the
    pool protocol (``draw_pool``/``set_pattern``) and actually drop something.
    """
    return (callable(getattr(module, "draw_pool", None))
            and callable(getattr(module, "set_pattern", None))
            and getattr(module, "drop_rate", 0.0) > 0.0)


class PatternPool:
    """A pre-drawn pool of dropout patterns for one site.

    The pool is filled by a single vectorized draw (``draw(count)``) and then
    consumed one pattern per training step; when it runs dry it refills itself
    with another batched draw.  Because patterns are interned, a pool holds at
    most a few dozen distinct objects regardless of its length.
    """

    def __init__(self, draw: Callable[[int], Sequence],
                 pool_size: int = 1024):
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self._draw = draw
        self.pool_size = int(pool_size)
        self._patterns: Sequence = []
        self._cursor = 0
        self.refills = 0
        self.consumed = 0

    def refill(self, count: int | None = None) -> None:
        """Replace the remaining pool contents with a fresh batched draw."""
        self._patterns = self._draw(int(count or self.pool_size))
        self._cursor = 0
        self.refills += 1

    def next(self):
        """The next pooled pattern (refilling with a batched draw when dry)."""
        if self._cursor >= len(self._patterns):
            self.refill()
        pattern = self._patterns[self._cursor]
        self._cursor += 1
        self.consumed += 1
        return pattern

    @property
    def remaining(self) -> int:
        return len(self._patterns) - self._cursor

    def __len__(self) -> int:
        return len(self._patterns)


@dataclass
class _Site:
    """One dropout site (a layer) managed by a :class:`PatternSchedule`."""

    name: str
    sampler: PatternSampler
    kind: str  # "row" or "tile"
    num_units: int = 0
    rows: int = 0
    cols: int = 0
    tile: int = 32
    current: RowDropoutPattern | TileDropoutPattern | None = None


@dataclass
class _PooledSite:
    """A dropout site bound to a live layer module, fed from a pattern pool."""

    name: str
    module: object  # a layer exposing draw_pool(count) and set_pattern(pattern)
    pool: PatternPool
    current: RowDropoutPattern | TileDropoutPattern | None = None


class PatternSchedule:
    """Coordinates pattern sampling across all dropout sites of a model.

    The paper applies *one* pattern per layer per iteration (and the same
    pattern across the whole batch); :meth:`resample` is called once at the
    top of each training iteration and every registered site receives a fresh
    pattern drawn from its own searched distribution.

    Two kinds of sites coexist:

    * *descriptor sites* (:meth:`register_row_site` / :meth:`register_tile_site`)
      own their sampler and draw one pattern per :meth:`resample` call — the
      original scalar path, kept for ad-hoc use;
    * *pooled sites* (:meth:`attach_module` / :meth:`from_model`) wrap a live
      layer module and feed it from a :class:`PatternPool` that is filled by
      one batched numpy draw per epoch (:meth:`plan`); :meth:`step` installs
      the next pooled pattern into every attached module.
    """

    def __init__(self, rng: np.random.Generator | None = None,
                 pool_size: int = 1024):
        self.rng = rng or np.random.default_rng()
        self._sites: dict[str, _Site] = {}
        self._pooled: dict[str, _PooledSite] = {}
        self.pool_size = int(pool_size)
        self.iteration = 0

    # ------------------------------------------------------------------
    # pooled (module-bound) sites — the vectorized engine entry point
    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model, pool_size: int = 1024,
                   rng: np.random.Generator | None = None) -> "PatternSchedule":
        """Build a schedule with one pooled site per pattern layer of ``model``.

        A module qualifies as a site when it exposes both ``draw_pool`` and
        ``set_pattern`` (every approximate-dropout layer does) and actually
        drops something (``drop_rate > 0``).  Models whose strategy has no
        pattern layers (conventional dropout, no dropout) yield an empty
        schedule, for which :meth:`step` falls back to the model's own
        ``resample_patterns``.
        """
        schedule = cls(rng=rng, pool_size=pool_size)
        schedule._model = model
        for index, module in enumerate(model.modules()):
            if module is model or not is_pattern_site(module):
                continue
            name = f"site{index}:{type(module).__name__}"
            schedule.attach_module(name, module)
        return schedule

    @classmethod
    def scalar_for_model(cls, model,
                         rng: np.random.Generator | None = None) -> "PatternSchedule":
        """A schedule that resamples ``model`` per step without any pooling.

        This is the scalar (per-step, per-site RNG round-trip) sampling path of
        the seed implementation: :meth:`step` falls back to the model's own
        ``resample_patterns()``.  Used by the ``masked`` and ``compact``
        execution modes of :class:`repro.execution.EngineRuntime`.
        """
        schedule = cls(rng=rng)
        schedule._model = model
        return schedule

    def attach_module(self, name: str, module) -> PatternPool:
        """Bind a live pattern layer to this schedule as a pooled site."""
        if name in self._pooled or name in self._sites:
            raise ValueError(f"site {name!r} already registered")
        draw = getattr(module, "draw_pool", None)
        install = getattr(module, "set_pattern", None)
        if not (callable(draw) and callable(install)):
            raise TypeError(
                f"module {module!r} does not expose draw_pool/set_pattern")
        pool = PatternPool(draw, pool_size=self.pool_size)
        self._pooled[name] = _PooledSite(name=name, module=module, pool=pool)
        return pool

    def plan(self, steps: int) -> None:
        """Pre-draw every pooled site's pool for the next ``steps`` iterations.

        One vectorized draw per site covers the whole epoch; pools refill
        themselves automatically if ``steps`` underestimated the epoch length.
        """
        if steps < 1:
            return
        for site in self._pooled.values():
            site.pool.refill(max(steps, 1))

    def step(self) -> dict[str, RowDropoutPattern | TileDropoutPattern]:
        """Install the next pooled pattern into every attached module.

        Falls back to the bound model's ``resample_patterns()`` when the
        schedule has no pooled sites (conventional/no-dropout strategies), so
        trainers can call :meth:`step` unconditionally.
        """
        self.iteration += 1
        patterns: dict[str, RowDropoutPattern | TileDropoutPattern] = {}
        if not self._pooled:
            model = getattr(self, "_model", None)
            if model is not None:
                model.resample_patterns()
            return patterns
        for site in self._pooled.values():
            site.current = site.pool.next()
            site.module.set_pattern(site.current)
            patterns[site.name] = site.current
        return patterns

    def pooled_sites(self) -> list[str]:
        return list(self._pooled)

    def pool_stats(self) -> dict[str, dict[str, int]]:
        """Per-site pool counters (refills, consumed, remaining) for diagnostics."""
        return {name: {"refills": site.pool.refills,
                       "consumed": site.pool.consumed,
                       "remaining": site.pool.remaining}
                for name, site in self._pooled.items()}

    def register_row_site(self, name: str, num_units: int, target_rate: float,
                          max_period: int | None = None) -> PatternSampler:
        """Register a neuron-dropout (RDP) site for a layer of ``num_units``."""
        if name in self._sites or name in self._pooled:
            raise ValueError(f"site {name!r} already registered")
        if max_period is None:
            from repro.dropout.layers import default_max_period
            max_period = default_max_period(target_rate, num_units)
        sampler = PatternSampler(target_rate, max_period, rng=self.rng)
        self._sites[name] = _Site(name=name, sampler=sampler, kind="row",
                                  num_units=num_units)
        return sampler

    def register_tile_site(self, name: str, rows: int, cols: int, target_rate: float,
                           tile: int = 32, max_period: int | None = None) -> PatternSampler:
        """Register a weight-tile (TDP) site for a ``rows x cols`` weight matrix."""
        if name in self._sites or name in self._pooled:
            raise ValueError(f"site {name!r} already registered")
        reference = TileDropoutPattern(rows=rows, cols=cols, dp=1, bias=0, tile=tile)
        if max_period is None:
            from repro.dropout.layers import default_max_period
            max_period = default_max_period(target_rate, reference.num_tiles)
        sampler = PatternSampler(target_rate, max_period, rng=self.rng)
        self._sites[name] = _Site(name=name, sampler=sampler, kind="tile",
                                  rows=rows, cols=cols, tile=tile)
        return sampler

    def resample(self) -> dict[str, RowDropoutPattern | TileDropoutPattern]:
        """Draw a fresh pattern for every site; returns the new patterns by name."""
        self.iteration += 1
        patterns: dict[str, RowDropoutPattern | TileDropoutPattern] = {}
        for site in self._sites.values():
            if site.kind == "row":
                site.current = site.sampler.sample_row_pattern(site.num_units)
            else:
                site.current = site.sampler.sample_tile_pattern(site.rows, site.cols, site.tile)
            patterns[site.name] = site.current
        return patterns

    def current(self, name: str) -> RowDropoutPattern | TileDropoutPattern:
        """The pattern most recently sampled for ``name``."""
        site = self._sites.get(name) or self._pooled.get(name)
        if site is None:
            raise KeyError(f"unknown dropout site {name!r}")
        if site.current is None:
            raise RuntimeError(f"site {name!r} has no pattern yet; call resample() first")
        return site.current

    def sites(self) -> list[str]:
        return list(self._sites) + list(self._pooled)

    def __len__(self) -> int:
        return len(self._sites) + len(self._pooled)

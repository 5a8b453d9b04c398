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
:func:`~repro.dropout.patterns.clear_pattern_caches`.

:class:`PatternSite` is that rule for one layer: the base class of every
dropout site (the pattern layers of :mod:`repro.dropout.layers` and the
sampled loss head), which owns the site's sampler and current pattern.  The
:class:`PatternSchedule` steps every live site of a model once per iteration,
under either execution mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.dropout.patterns import RowDropoutPattern, TileDropoutPattern
from repro.dropout.search import PatternDistributionSearch, SearchResult
from repro.nn.module import Module

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

    def sample(self, limit: int) -> tuple[int, int]:
        """Draw one ``(dp, bias)`` for a domain of ``limit`` units, blocks,
        classes or tiles: a period above ``limit`` is clipped to it and the
        bias folded into the clipped period."""
        period = self.sample_period()
        bias = self.sample_bias(period)
        period = min(period, limit)
        return period, bias % period

    def sample_many(self, count: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
        """``count`` draws of :meth:`sample` in two vectorized RNG calls.

        Statistically identical to ``count`` repeated :meth:`sample` calls:
        periods come from the searched distribution, biases are uniform over
        ``{0, .., dp-1}`` conditional on the period, and both are clipped to
        ``limit`` the same way.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        periods = self.rng.choice(self.max_period, size=count,
                                  p=self.distribution).astype(np.int64) + 1
        biases = np.floor(self.rng.random(count) * periods).astype(np.int64)
        periods = np.minimum(periods, limit)
        return periods, biases % periods

    def expected_drop_rate(self) -> float:
        """The expected global dropout rate of the sampled pattern stream."""
        return self.result.achieved_rate


class PatternSite(Module):
    """A dropout site: one layer's pattern stream, drawn by Section III-D's rule.

    Every site samples the same way: ``dp ~ K`` from its searched
    distribution and a uniform bias in ``[0, dp)``, both clipped to the
    site's :attr:`domain` (the units, blocks, classes or tiles its pattern
    indexes), from which :meth:`make_pattern` builds the interned pattern.
    The base owns the rate, the generator, ``max_period`` (by default
    :func:`default_max_period` of the rate and the domain), the
    :class:`PatternSampler`, the current :attr:`pattern` and the two slots
    :meth:`~repro.execution.EngineRuntime.bind` configures:
    ``execution_mode`` (``"compact"`` until bound; ``"masked"`` runs the
    Fig. 1(a) dense baseline) and ``backend`` (the runtime's
    :class:`~repro.backends.ExecutionBackend`; ``None`` means the shared
    default).  A subclass passes its domain to ``__init__`` and defines
    :meth:`make_pattern` and its own forward or loss math.

    A :class:`PatternSchedule` drives a live site through :meth:`draw_pool`
    (many patterns in one vectorized draw), :meth:`set_pattern` and
    :meth:`reseed`, in both execution modes; :meth:`resample` draws the
    site's first pattern.
    """

    execution_mode = "compact"
    backend = None

    def __init__(self, drop_rate: float, domain: int,
                 max_period: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
        self.target_rate = float(drop_rate)
        self.domain = int(domain)
        self.rng = rng or np.random.default_rng()
        self.max_period = (default_max_period(self.target_rate, self.domain)
                           if max_period is None else max_period)
        self.sampler = PatternSampler(self.target_rate, self.max_period,
                                      rng=self.rng)
        self.pattern = None

    @property
    def drop_rate(self) -> float:
        """The rate the site drops at; a site at 0 is not pooled or reseeded."""
        return self.target_rate

    def make_pattern(self, dp: int, bias: int):
        """The site's interned pattern of period ``dp`` and phase ``bias``."""
        raise NotImplementedError

    def resample(self):
        """Draw one pattern and install it: a site's first pattern, drawn at
        construction or on first use without a schedule."""
        self.pattern = self.make_pattern(*self.sampler.sample(self.domain))
        return self.pattern

    def draw_pool(self, count: int) -> list:
        """``count`` patterns from one vectorized draw (a :class:`PatternPool`
        refill)."""
        periods, biases = self.sampler.sample_many(count, self.domain)
        return [self.make_pattern(int(dp), int(bias))
                for dp, bias in zip(periods, biases)]

    def set_pattern(self, pattern) -> None:
        """Install ``pattern``, which must be one this site could draw."""
        if pattern != self.make_pattern(pattern.dp, pattern.bias):
            raise ValueError(f"{pattern!r} is not a pattern of {self!r}")
        self.pattern = pattern

    def reseed(self, rng: np.random.Generator) -> None:
        """Draw every later pattern from ``rng``."""
        self.rng = self.sampler.rng = rng


def is_pattern_site(module) -> bool:
    """True when ``module`` is a :class:`PatternSite` that drops something.

    The single definition shared by :meth:`PatternSchedule.from_model` and
    :meth:`repro.execution.EngineRuntime.bind`, so the pooled sites and the
    reseeded sites are always the same modules.
    """
    return isinstance(module, PatternSite) and module.drop_rate > 0.0


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
class _PooledSite:
    """A dropout site bound to a live layer module, fed from a pattern pool."""

    name: str
    module: PatternSite
    pool: PatternPool
    current: RowDropoutPattern | TileDropoutPattern | None = None


class PatternSchedule:
    """Steps every dropout site of a model once per training iteration.

    The paper applies *one* pattern per layer per iteration (and the same
    pattern across the whole batch).  A schedule feeds each live
    :class:`PatternSite` from a :class:`PatternPool` that is filled by one
    batched numpy draw per epoch (:meth:`plan`); :meth:`step` installs the
    next pooled pattern into every site.  It is the only per-step draw of
    either execution mode, so a masked run and a pooled run of one seed
    install the same patterns.
    """

    def __init__(self, pool_size: int = 1024):
        self._pooled: dict[str, _PooledSite] = {}
        self.pool_size = int(pool_size)
        self.iteration = 0

    @classmethod
    def from_model(cls, model, pool_size: int = 1024) -> "PatternSchedule":
        """Build a schedule with one pooled site per live pattern site of ``model``.

        A module qualifies when :func:`is_pattern_site` holds: it is a
        :class:`PatternSite` and drops something (``drop_rate > 0``).  Models
        without one (conventional dropout, no dropout, every rate 0) yield an
        empty schedule, whose :meth:`step` only counts the iteration.
        """
        schedule = cls(pool_size=pool_size)
        for index, module in enumerate(model.modules()):
            if module is model or not is_pattern_site(module):
                continue
            name = f"site{index}:{type(module).__name__}"
            schedule.attach_module(name, module)
        return schedule

    def attach_module(self, name: str, module: PatternSite) -> PatternPool:
        """Bind a live :class:`PatternSite` to this schedule as a pooled site."""
        if name in self._pooled:
            raise ValueError(f"site {name!r} already registered")
        if not isinstance(module, PatternSite):
            raise TypeError(f"{module!r} is not a PatternSite")
        pool = PatternPool(module.draw_pool, pool_size=self.pool_size)
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

        Returns the installed patterns by site name; an empty schedule
        returns an empty dict, so trainers can call :meth:`step`
        unconditionally.
        """
        self.iteration += 1
        patterns: dict[str, RowDropoutPattern | TileDropoutPattern] = {}
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

    def current(self, name: str) -> RowDropoutPattern | TileDropoutPattern:
        """The pattern most recently installed into ``name``."""
        site = self._pooled.get(name)
        if site is None:
            raise KeyError(f"unknown dropout site {name!r}")
        if site.current is None:
            raise RuntimeError(f"site {name!r} has no pattern yet; call step() first")
        return site.current

    def __len__(self) -> int:
        return len(self._pooled)

"""The :class:`PatternSite` base: one sampling rule for all six dropout sites.

Every site draws its patterns through the base's ``resample``/``draw_pool``
and accepts only patterns it could have drawn.  The draws are pinned to the
per-kind sampler methods the sites used before they shared the base, copied
below, so a fixed seed keeps giving the same pattern stream.
"""

import numpy as np
import pytest

from repro.dropout import (
    ApproxBlockDropout,
    ApproxDropConnectLinear,
    ApproxRandomDropout,
    ApproxRandomDropoutLinear,
    PatternSampler,
    PatternSchedule,
    TileDropoutPattern,
    row_pattern,
    tile_pattern,
)
from repro.dropout.layers import ApproxRecurrentDropConnect
from repro.dropout.patterns import recurrent_tile_pattern
from repro.dropout.sampler import PatternSite, is_pattern_site
from repro.heads import CompactSoftmaxHead
from repro.nn.module import Module


# ----------------------------------------------------------------------
# the per-kind sampler methods, as the sites called them before the base
# ----------------------------------------------------------------------

def _sample(sampler):
    period = int(sampler.rng.choice(sampler.max_period, p=sampler.distribution) + 1)
    return period, int(sampler.rng.integers(0, period))


def _sample_many(sampler, count):
    periods = sampler.rng.choice(sampler.max_period, size=count,
                                 p=sampler.distribution).astype(np.int64) + 1
    biases = np.floor(sampler.rng.random(count) * periods).astype(np.int64)
    return periods, biases


def sample_row_pattern(sampler, num_units):
    period, bias = _sample(sampler)
    period = min(period, num_units)
    bias = bias % period
    return row_pattern(num_units, period, bias)


def sample_tile_pattern(sampler, rows, cols, tile=32):
    period, bias = _sample(sampler)
    reference = TileDropoutPattern(rows=rows, cols=cols, dp=1, bias=0, tile=tile)
    period = min(period, reference.num_tiles)
    bias = bias % period
    return tile_pattern(rows, cols, period, bias, tile)


def sample_recurrent_pattern(sampler, hidden_size, num_gates=4, tile=32):
    period, bias = _sample(sampler)
    reference = TileDropoutPattern(rows=hidden_size, cols=hidden_size,
                                   dp=1, bias=0, tile=tile)
    period = min(period, reference.num_tiles)
    bias = bias % period
    return recurrent_tile_pattern(hidden_size, num_gates, period, bias, tile)


def sample_row_patterns(sampler, num_units, count):
    periods, biases = _sample_many(sampler, count)
    periods = np.minimum(periods, num_units)
    biases = biases % periods
    return [row_pattern(num_units, int(dp), int(b))
            for dp, b in zip(periods, biases)]


def sample_tile_patterns(sampler, rows, cols, count, tile=32):
    reference = TileDropoutPattern(rows=rows, cols=cols, dp=1, bias=0, tile=tile)
    periods, biases = _sample_many(sampler, count)
    periods = np.minimum(periods, reference.num_tiles)
    biases = biases % periods
    return [tile_pattern(rows, cols, int(dp), int(b), tile)
            for dp, b in zip(periods, biases)]


def sample_recurrent_patterns(sampler, hidden_size, num_gates, count, tile=32):
    reference = TileDropoutPattern(rows=hidden_size, cols=hidden_size,
                                   dp=1, bias=0, tile=tile)
    periods, biases = _sample_many(sampler, count)
    periods = np.minimum(periods, reference.num_tiles)
    biases = biases % periods
    return [recurrent_tile_pattern(hidden_size, num_gates, int(dp), int(b), tile)
            for dp, b in zip(periods, biases)]


# ----------------------------------------------------------------------
# the six sites: how to build each, and its old scalar and batched draws
# ----------------------------------------------------------------------

MAX_PERIOD = 16  # above every domain below, so the clip runs

SITES = {
    # 6 units
    "activation": (
        lambda rate, rng: ApproxRandomDropout(6, rate, max_period=MAX_PERIOD,
                                              rng=rng),
        lambda s, site: sample_row_pattern(s, 6),
        lambda s, site, n: sample_row_patterns(s, 6, n)),
    # 40 units in five 8-wide blocks
    "block": (
        lambda rate, rng: ApproxBlockDropout(40, rate, block=8,
                                             max_period=MAX_PERIOD, rng=rng),
        lambda s, site: sample_row_pattern(s, site.num_blocks),
        lambda s, site, n: sample_row_patterns(s, site.num_blocks, n)),
    # 6 output neurons
    "row_linear": (
        lambda rate, rng: ApproxRandomDropoutLinear(4, 6, rate,
                                                    max_period=MAX_PERIOD,
                                                    rng=rng),
        lambda s, site: sample_row_pattern(s, 6),
        lambda s, site, n: sample_row_patterns(s, 6, n)),
    # a 12x8 weight in 4x4 tiles: 3x2 tiles
    "tile_linear": (
        lambda rate, rng: ApproxDropConnectLinear(8, 12, rate, tile=4,
                                                  max_period=MAX_PERIOD,
                                                  rng=rng),
        lambda s, site: sample_tile_pattern(s, 12, 8, tile=site.tile),
        lambda s, site, n: sample_tile_patterns(s, 12, 8, n, tile=site.tile)),
    # four 8x8 gate blocks in 4x4 tiles: 2x2 tiles per gate
    "recurrent": (
        lambda rate, rng: ApproxRecurrentDropConnect(8, rate, tile=4,
                                                     max_period=MAX_PERIOD,
                                                     enabled=True, rng=rng),
        lambda s, site: sample_recurrent_pattern(s, 8, 4, tile=site.tile),
        lambda s, site, n: sample_recurrent_patterns(s, 8, 4, n,
                                                     tile=site.tile)),
    # 7 classes
    "head": (
        lambda rate, rng: CompactSoftmaxHead(7, rate, max_period=MAX_PERIOD,
                                             rng=rng),
        lambda s, site: sample_row_pattern(s, 7),
        lambda s, site, n: sample_row_patterns(s, 7, n)),
}


@pytest.mark.parametrize("kind", sorted(SITES))
@pytest.mark.parametrize("rate", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_draws_match_the_per_kind_sampler_methods(kind, rate, seed):
    build, old_scalar, old_batched = SITES[kind]
    site = build(rate, np.random.default_rng(100 + seed))
    assert site.domain < MAX_PERIOD == site.max_period
    site.reseed(np.random.default_rng(seed))
    drawn = [site.resample() for _ in range(12)]
    drawn += site.draw_pool(40)
    drawn.append(site.resample())

    old = PatternSampler(rate, MAX_PERIOD, rng=np.random.default_rng(seed))
    expected = [old_scalar(old, site) for _ in range(12)]
    expected += old_batched(old, site, 40)
    expected.append(old_scalar(old, site))

    assert len(drawn) == len(expected)
    assert all(a is b for a, b in zip(drawn, expected))
    assert site.pattern is drawn[-1]
    assert max(pattern.dp for pattern in drawn) <= site.domain


#: kind -> the site built with an explicit ``max_period``
WITH_PERIOD = {
    "activation": lambda period: ApproxRandomDropout(64, 0.5, max_period=period),
    "block": lambda period: ApproxBlockDropout(64, 0.5, max_period=period),
    "row_linear": lambda period: ApproxRandomDropoutLinear(
        32, 64, 0.5, max_period=period),
    "tile_linear": lambda period: ApproxDropConnectLinear(
        64, 64, 0.5, max_period=period),
    "recurrent": lambda period: ApproxRecurrentDropConnect(
        64, 0.5, max_period=period),
    "head": lambda period: CompactSoftmaxHead(64, 0.5, max_period=period),
}


@pytest.mark.parametrize("kind", sorted(WITH_PERIOD))
def test_max_period_zero_is_rejected_not_defaulted(kind):
    """Only ``None`` asks for the default period; 0 fails like -2 does."""
    assert WITH_PERIOD[kind](None).max_period >= 1
    for period in (0, -2):
        with pytest.raises(ValueError, match="max_period"):
            WITH_PERIOD[kind](period)


# ----------------------------------------------------------------------
# set_pattern accepts exactly the site's own patterns
# ----------------------------------------------------------------------

#: kind -> (site, a pattern of the same kind and another shape, a pattern
#: of the site's shape with another tile edge, or None without a tile)
FOREIGN = {
    "activation": (lambda rng: ApproxRandomDropout(64, 0.5, rng=rng),
                   row_pattern(32, 2, 1), None),
    "block": (lambda rng: ApproxBlockDropout(64, 0.5, block=16, rng=rng),
              row_pattern(5, 2, 1), None),
    "row_linear": (lambda rng: ApproxRandomDropoutLinear(32, 64, 0.5, rng=rng),
                   row_pattern(32, 2, 1), None),
    "tile_linear": (lambda rng: ApproxDropConnectLinear(64, 64, 0.5, tile=32,
                                                        rng=rng),
                    tile_pattern(64, 32, 2, 1, 32),
                    tile_pattern(64, 64, 2, 1, 16)),
    "recurrent": (lambda rng: ApproxRecurrentDropConnect(64, 0.5, tile=32,
                                                         enabled=True, rng=rng),
                  recurrent_tile_pattern(32, 4, 2, 1, 32),
                  recurrent_tile_pattern(64, 4, 2, 1, 16)),
    "head": (lambda rng: CompactSoftmaxHead(64, 0.5, rng=rng),
             row_pattern(63, 2, 1), None),
}


@pytest.mark.parametrize("kind", sorted(FOREIGN))
def test_set_pattern_accepts_only_the_sites_own_patterns(kind, rng):
    build, other_shape, other_tile = FOREIGN[kind]
    site = build(rng)
    assert isinstance(site, PatternSite) and is_pattern_site(site)
    for pattern in site.draw_pool(20):
        site.set_pattern(pattern)
        assert site.pattern is pattern
    installed = site.pattern
    with pytest.raises(ValueError):
        site.set_pattern(other_shape)
    if other_tile is not None:
        # Same shape, another tile edge: the masked path would build the
        # mask with the site's tile and the compact path with the pattern's.
        with pytest.raises(ValueError):
            site.set_pattern(other_tile)
    assert site.pattern is installed


# ----------------------------------------------------------------------
# a site is a PatternSite, not anything that looks like one
# ----------------------------------------------------------------------

class LookAlike(Module):
    """Exposes the pool calls and a rate without subclassing PatternSite."""

    drop_rate = 0.5

    def draw_pool(self, count):
        return [row_pattern(8, 2, 0)] * count

    def set_pattern(self, pattern):
        self.pattern = pattern


def test_a_look_alike_module_is_not_a_site(rng):
    look_alike = LookAlike()
    assert not is_pattern_site(look_alike)

    model = Module()
    model.site = ApproxRandomDropout(8, 0.5, rng=rng)
    model.look_alike = look_alike
    schedule = PatternSchedule.from_model(model, pool_size=4)
    assert schedule.pooled_sites() == ["site1:ApproxRandomDropout"]

    with pytest.raises(TypeError):
        PatternSchedule().attach_module("look_alike", look_alike)

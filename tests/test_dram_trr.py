"""TRR sampler dynamics and pTRR."""

import numpy as np
import pytest

from repro.common.rng import RngStream
from repro.dram.trr import (
    VENDOR_TRR_PROFILES,
    PtrrShield,
    TrrConfig,
    TrrSampler,
)
from repro.obs.metrics import MetricsRegistry


def make_sampler(**kwargs) -> TrrSampler:
    config = TrrConfig(**{**dict(sample_prob=1.0), **kwargs})
    return TrrSampler(config=config, rng=RngStream(1, "trr"))


def test_top_count_rows_are_refreshed():
    sampler = make_sampler(capacity=6, refreshes_per_ref=2)
    stream = np.array([10] * 8 + [20] * 7 + [30] * 2 + [40] * 1)
    sampler.observe(stream)
    targets = sampler.on_ref()
    assert set(targets) == {10, 20}


def test_capacity_shields_late_rows():
    sampler = make_sampler(capacity=3, refreshes_per_ref=3)
    # Three early rows fill the table; the late row is never tracked.
    early = np.array([1, 2, 3] * 5)
    late = np.array([99] * 10)
    sampler.observe(np.concatenate([early, late]))
    assert 99 not in sampler._counts
    assert set(sampler.on_ref()) <= {1, 2, 3}


def test_refreshed_entries_are_cleared():
    sampler = make_sampler(capacity=4, refreshes_per_ref=1, flush_every_refs=100)
    sampler.observe(np.array([5] * 10 + [6] * 3))
    assert sampler.on_ref() == [5]
    assert 5 not in sampler._counts
    assert 6 in sampler._counts


def test_flush_clears_table_without_refreshing():
    sampler = make_sampler(capacity=6, refreshes_per_ref=1, flush_every_refs=2)
    sampler.observe(np.array([1] * 5 + [2] * 4 + [3] * 3))
    sampler.on_ref()  # pops row 1, counts 2 and 3 linger
    assert 3 in sampler._counts
    sampler.on_ref()  # second REF triggers the flush
    assert sampler._counts == {}


def test_sampling_probability_thins_observations():
    full = make_sampler(capacity=100, sample_prob=1.0)
    thinned = make_sampler(capacity=100, sample_prob=0.3)
    stream = np.arange(1000) % 50
    full.observe(stream)
    thinned.observe(stream)
    assert sum(thinned._counts.values()) < sum(full._counts.values())


def test_empty_observation_is_noop():
    sampler = make_sampler()
    sampler.observe(np.array([], dtype=np.int64))
    assert sampler.on_ref() == []


def test_reset():
    sampler = make_sampler()
    sampler.observe(np.array([1, 1, 2]))
    sampler.reset()
    assert sampler.on_ref() == []


def test_scaled_config():
    config = TrrConfig(capacity=6, sample_prob=0.8, refreshes_per_ref=2)
    strong = config.scaled(2.0)
    assert strong.capacity == 12
    assert strong.sample_prob == 1.0
    assert strong.refreshes_per_ref == 4
    weak = config.scaled(0.5)
    assert weak.capacity == 3


def test_ptrr_disabled_never_triggers():
    shield = PtrrShield(enabled=False)
    mask = shield.refresh_mask(1000, RngStream(2))
    assert not mask.any()


def test_ptrr_enabled_triggers_at_rate():
    shield = PtrrShield(enabled=True, para_prob=0.05)
    mask = shield.refresh_mask(20_000, RngStream(3))
    rate = mask.mean()
    assert 0.03 < rate < 0.07


# ----------------------------------------------------------------------
# Vendor profiles
# ----------------------------------------------------------------------
def test_vendor_profiles_cover_the_three_manufacturers():
    from repro.dram.trr import VENDOR_TRR_PROFILES

    assert set(VENDOR_TRR_PROFILES) == {"S", "H", "M"}
    for config in VENDOR_TRR_PROFILES.values():
        assert config.capacity >= 1
        assert 0 < config.sample_prob <= 1


def test_vendor_profiles_differ_in_overflow_resistance():
    """An H-style sampler (small table) is overflowed by many-sided
    patterns that an M-style sampler (large table) still tracks."""
    import numpy as np

    from repro.dram.trr import VENDOR_TRR_PROFILES, TrrSampler

    stream = np.tile(np.arange(10), 40)  # 10 distinct aggressors
    h_sampler = TrrSampler(VENDOR_TRR_PROFILES["H"], RngStream(71, "h"))
    m_sampler = TrrSampler(VENDOR_TRR_PROFILES["M"], RngStream(72, "m"))
    h_sampler.observe(stream)
    m_sampler.observe(stream)
    assert len(h_sampler._counts) <= 4
    assert len(m_sampler._counts) >= 9


# ----------------------------------------------------------------------
# The interval plan: one draw and one pass for a whole stream
# ----------------------------------------------------------------------
INTERVAL_SIZES = (
    (5, 0, 17, 0, 0, 3),
    (0, 0, 0),
    (1,),
    (40, 1, 0, 2, 300, 0, 7),
)


@pytest.mark.parametrize("sizes", INTERVAL_SIZES)
@pytest.mark.parametrize("stream", ("trr", "ptrr"))
def test_one_draw_equals_per_interval_draws(sizes, stream):
    """``random(sum(n_t))`` is the per-interval ``random(n_t)`` sequence.

    The loop drew once per non-empty interval (``observe`` returns before
    drawing on an empty one, ``refresh_mask`` draws nothing for zero
    ACTs); the plan draws once for the stream.  Both must consume the
    named stream identically, value for value.
    """
    hoisted = RngStream(9, "dimm").child(stream, 0)
    stepped = RngStream(9, "dimm").child(stream, 0)
    whole = hoisted.random(sum(sizes))
    parts = [stepped.random(n) for n in sizes if n]
    joined = np.concatenate(parts) if parts else np.empty(0)
    assert np.array_equal(whole, joined)
    assert hoisted.random(4).tolist() == stepped.random(4).tolist()
    shield = PtrrShield(enabled=True, para_prob=0.3)
    one = shield.refresh_mask(
        sum(sizes), RngStream(9, "dimm").child(stream, 1)
    )
    rng = RngStream(9, "dimm").child(stream, 1)
    per_interval = [shield.refresh_mask(n, rng) for n in sizes]
    assert np.array_equal(one, np.concatenate(per_interval))


def _interval_stream(sizes, seed, distinct=14):
    rng = np.random.default_rng(seed)
    rows = 1000 + rng.integers(0, distinct, sum(sizes)).astype(np.int64)
    bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    return rows, bounds


@pytest.mark.parametrize("sizes", INTERVAL_SIZES)
@pytest.mark.parametrize(
    "config",
    [
        *VENDOR_TRR_PROFILES.values(),
        TrrConfig(capacity=3, sample_prob=1.0, refreshes_per_ref=1),
        TrrConfig(capacity=1, sample_prob=0.2, flush_every_refs=3),
    ],
)
def test_plan_equals_per_interval_observe_and_on_ref(config, sizes):
    """A whole-stream plan: same targets, table and telemetry tallies."""
    rows, bounds = _interval_stream(sizes, seed=len(sizes))
    planned = TrrSampler(config, RngStream(4, "trr"))
    stepped = TrrSampler(config, RngStream(4, "trr"))
    planned.metrics = stepped.metrics = MetricsRegistry(enabled=True).batch()
    targets = planned.plan(rows, bounds, 1000, 14)
    expected = []
    for t in range(len(sizes)):
        stepped.observe(rows[bounds[t]:bounds[t + 1]])
        expected.append(stepped.on_ref())
    assert targets == expected
    assert list(planned._counts.items()) == list(stepped._counts.items())
    assert planned._refs_since_flush == stepped._refs_since_flush
    assert planned.capture_tallies() == stepped.capture_tallies()
    # Both consumed the sampling stream identically.
    assert planned.rng.random(3).tolist() == stepped.rng.random(3).tolist()


def test_plan_continues_a_sampler_across_calls():
    """Planning a stream in pieces equals planning it whole."""
    config = VENDOR_TRR_PROFILES["S"]
    sizes = (30, 0, 12, 45, 0, 9, 60, 2)
    rows, bounds = _interval_stream(sizes, seed=3)
    whole = TrrSampler(config, RngStream(6, "trr"))
    pieces = TrrSampler(config, RngStream(6, "trr"))
    expected = whole.plan(rows, bounds, 1000, 14)
    cut = 3
    got = pieces.plan(rows[:bounds[cut]], bounds[:cut + 1], 1000, 14)
    got += pieces.plan(
        rows[bounds[cut]:], bounds[cut:] - bounds[cut], 1000, 14
    )
    assert got == expected
    assert list(pieces._counts.items()) == list(whole._counts.items())


def test_plan_rejects_table_rows_outside_the_window():
    sampler = make_sampler()
    sampler.observe(np.array([5, 5, 6]))
    with pytest.raises(ValueError):
        sampler.plan(np.array([100, 101]), np.array([0, 2]), 100, 4)

"""Per-cell flip threshold population."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.cells import CellPopulation


def make_population(**kwargs) -> CellPopulation:
    defaults = dict(
        dimm_uid="TEST", median_threshold=50_000.0, weak_cell_density=0.5
    )
    defaults.update(kwargs)
    return CellPopulation(**defaults)


def test_profiles_are_deterministic():
    a = make_population().profile(3, 1000)
    b = make_population().profile(3, 1000)
    assert np.array_equal(a.thresholds, b.thresholds)
    assert np.array_equal(a.bit_indices, b.bit_indices)


def test_profiles_differ_across_rows():
    pop = make_population()
    a = pop.profile(3, 1000)
    b = pop.profile(3, 1001)
    assert not np.array_equal(a.bit_indices, b.bit_indices)


def test_profiles_differ_across_dimms():
    a = make_population(dimm_uid="A").profile(0, 5)
    b = make_population(dimm_uid="B").profile(0, 5)
    assert not np.array_equal(a.thresholds, b.thresholds)


def test_thresholds_sorted_ascending():
    prof = make_population().profile(0, 42)
    assert np.all(np.diff(prof.thresholds) >= 0)


def test_zero_density_is_invulnerable():
    pop = make_population(weak_cell_density=0.0)
    assert pop.flip_count_for(0, 7, 1e12) == 0
    assert pop.flips_for(0, 7, 1e12) == []


def test_no_flips_below_all_thresholds():
    pop = make_population()
    assert pop.flip_count_for(0, 9, 1.0) == 0


def test_all_cells_flip_at_huge_disturbance():
    pop = make_population()
    prof = pop.profile(0, 9)
    assert pop.flip_count_for(0, 9, 1e15) == prof.thresholds.size


def test_flip_events_match_count():
    pop = make_population()
    peak = 60_000.0
    events = pop.flips_for(2, 11, peak)
    assert len(events) == pop.flip_count_for(2, 11, peak)
    for event in events:
        assert event.bank == 2
        assert event.row == 11
        assert 0 <= event.bit_index < 65536
        assert event.direction in (0, 1)


def test_bit_indices_unique_within_row():
    prof = make_population(weak_cell_density=1.0).profile(0, 3)
    assert len(set(prof.bit_indices.tolist())) == prof.bit_indices.size


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        make_population(median_threshold=0.0)
    with pytest.raises(ValueError):
        make_population(weak_cell_density=1.5)


@settings(max_examples=40, deadline=None)
@given(
    peak_a=st.floats(min_value=0, max_value=1e7),
    peak_b=st.floats(min_value=0, max_value=1e7),
)
def test_flip_count_monotone_in_peak(peak_a, peak_b):
    pop = make_population()
    lo, hi = sorted((peak_a, peak_b))
    assert pop.flip_count_for(1, 77, lo) <= pop.flip_count_for(1, 77, hi)


def test_cache_reuses_profiles():
    pop = make_population()
    first = pop.profile(0, 1)
    assert pop.profile(0, 1) is first


def test_cache_is_lru_bounded():
    pop = make_population(max_cached_profiles=4)
    for row in range(6):
        pop.profile(0, row)
    assert pop.profiles_cached == 4
    assert pop.profile_evictions == 2


def test_cache_evicts_least_recently_used():
    pop = make_population(max_cached_profiles=2)
    a = pop.profile(0, 1)
    pop.profile(0, 2)
    assert pop.profile(0, 1) is a  # touch: row 1 becomes most recent
    pop.profile(0, 3)  # evicts row 2, not row 1
    assert pop.profile(0, 1) is a
    assert pop.profile_evictions == 1


def test_eviction_never_changes_profiles():
    bounded = make_population(max_cached_profiles=1)
    unbounded = make_population()
    for row in (5, 6, 5, 7, 5):
        got = bounded.profile(0, row)
        want = unbounded.profile(0, row)
        assert np.array_equal(got.thresholds, want.thresholds)
        assert np.array_equal(got.bit_indices, want.bit_indices)


def test_invalid_cache_bound_rejected():
    with pytest.raises(ValueError):
        make_population(max_cached_profiles=0)


def test_batched_flip_counts_match_scalar_path():
    pop = make_population()
    rng = np.random.default_rng(31)
    rows = rng.integers(0, 5000, size=200)
    peaks = np.where(
        rng.random(200) < 0.3, 0.0, rng.uniform(0.0, 2e5, size=200)
    )
    batched = pop.flip_counts_for(4, rows, peaks)
    scalar = [
        pop.flip_count_for(4, int(r), float(p))
        for r, p in zip(rows, peaks)
    ]
    assert batched.tolist() == scalar


def test_batched_flip_counts_empty_and_all_zero():
    pop = make_population()
    empty = pop.flip_counts_for(0, np.array([], dtype=np.int64), np.array([]))
    assert empty.size == 0
    zeros = pop.flip_counts_for(0, np.arange(5), np.zeros(5))
    assert zeros.tolist() == [0, 0, 0, 0, 0]


def test_flip_counting_draws_thresholds_only(monkeypatch):
    """Flip counting draws each row's thresholds (binomial, then
    lognormal) and no bit metadata; ``profile()`` later completes the
    entry in place to exactly what a fresh full draw gives."""
    draws = []
    real = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self._rng = real(seed)

        def __getattr__(self, name):
            draws.append(name)
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    pop = make_population()
    rows = np.arange(100, 140)
    counts = pop.flip_counts_for(2, rows, np.full(rows.size, 60_000.0))
    assert counts.any()
    assert set(draws) == {"binomial", "lognormal"}
    assert pop.flip_count_for(2, 500, 60_000.0) > 0
    assert set(draws) == {"binomial", "lognormal"}
    pop.profile(2, 100)
    assert {"choice", "random"} <= set(draws)
    monkeypatch.undo()

    fresh = make_population()
    for row in rows.tolist():
        got, want = pop.profile(2, row), fresh.profile(2, row)
        assert np.array_equal(got.thresholds, want.thresholds)
        assert np.array_equal(got.bit_indices, want.bit_indices)
        assert np.array_equal(got.directions, want.directions)
    assert pop.profiles_cached == rows.size + 1
    assert pop.profile(2, 120) is pop.profile(2, 120)


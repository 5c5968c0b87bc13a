"""Sweeping an effective pattern across locations (Figure 11)."""

import numpy as np
import pytest

from repro import (
    QUICK_SCALE,
    RunBudget,
    build_machine,
    rhohammer_config,
    sweep_pattern,
)
from repro.exploit.endtoend import canonical_compact_pattern


@pytest.fixture(scope="module")
def comet_sweep(comet_machine):
    return sweep_pattern(
        comet_machine,
        rhohammer_config(nop_count=60, num_banks=3),
        canonical_compact_pattern(),
        RunBudget.trials(12),
        scale=QUICK_SCALE,
    )


def test_sweep_needs_a_scale(comet_machine):
    """``scale`` sets each location's activation budget; it has no
    default, so omitting it fails at the call."""
    with pytest.raises(TypeError, match="scale"):
        sweep_pattern(
            comet_machine,
            rhohammer_config(nop_count=60, num_banks=3),
            canonical_compact_pattern(),
            RunBudget.trials(2),
        )


def test_sweep_visits_distinct_locations(comet_sweep):
    assert len(set(comet_sweep.base_rows)) == 12


def test_sweep_accumulates_flips(comet_sweep):
    assert comet_sweep.total_flips > 0
    cumulative = comet_sweep.cumulative_flips
    assert (np.diff(cumulative) >= 0).all()
    assert cumulative[-1] == comet_sweep.total_flips


def test_virtual_time_is_monotone(comet_sweep):
    assert (np.diff(comet_sweep.virtual_minutes) > 0).all()


def test_flip_rate_is_positive(comet_sweep):
    assert comet_sweep.flips_per_minute > 0


def test_flips_spread_across_locations(comet_sweep):
    """Figure 11's observation: flips progress smoothly — desired flips
    can be found at most positions, not just a lucky few."""
    assert comet_sweep.locations_with_flips >= 12 * 0.5


def test_sweep_report_consistency(comet_sweep):
    assert comet_sweep.flips_per_location.size == 12
    assert comet_sweep.virtual_minutes.size == 12


def _sweep_with(cache_size: int, workers: int):
    machine = build_machine("comet_lake", "S3", scale=QUICK_SCALE, seed=7)
    machine.executor.cache_size = cache_size
    report = sweep_pattern(
        machine,
        rhohammer_config(nop_count=60, num_banks=3),
        canonical_compact_pattern(),
        RunBudget.trials(8, workers=workers),
        scale=QUICK_SCALE,
    )
    return machine, report


def test_executor_memo_never_changes_sweep_results():
    """Memoisation is an optimisation only: cache on == cache off."""
    cached_machine, cached = _sweep_with(cache_size=64, workers=1)
    _, uncached = _sweep_with(cache_size=0, workers=1)
    assert cached.base_rows == uncached.base_rows
    assert (cached.flips_per_location == uncached.flips_per_location).all()
    assert (cached.virtual_minutes == uncached.virtual_minutes).all()
    # All locations replay one (stream, kernel) pair: the prewarm is the
    # only real execution, every trial afterwards hits the memo.
    assert cached_machine.executor.cache_misses == 1
    assert cached_machine.executor.cache_hits >= 8


def test_sweep_workers_bit_identical_with_memoisation():
    _, serial = _sweep_with(cache_size=64, workers=1)
    _, parallel = _sweep_with(cache_size=64, workers=2)
    assert serial.base_rows == parallel.base_rows
    assert (serial.flips_per_location == parallel.flips_per_location).all()
    assert (serial.virtual_minutes == parallel.virtual_minutes).all()

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
from repro.cli import main
from repro.common.errors import CalibrationError
from repro.exploit.endtoend import canonical_compact_pattern
from repro.hammer.session import HammerSession
from repro.patterns.sweep import SWEEP_MARGIN_ROWS, SWEEP_MIN_STRIDE


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


def _most_locations(machine) -> int:
    rows = machine.dimm.spec.geometry.rows
    return (rows - 2 * SWEEP_MARGIN_ROWS) // SWEEP_MIN_STRIDE + 1


def test_sweep_of_the_most_locations_visits_distinct_rows(comet_machine):
    """A 65,536-row DIMM holds 1,017 base rows 64 apart inside the
    margins; a sweep of that many visits each once."""
    most = _most_locations(comet_machine)
    assert most == 1017
    report = sweep_pattern(
        comet_machine,
        rhohammer_config(nop_count=60, num_banks=1),
        canonical_compact_pattern(),
        RunBudget.trials(most),
        scale=QUICK_SCALE,
    )
    assert len(set(report.base_rows)) == most
    top = comet_machine.dimm.spec.geometry.rows - SWEEP_MARGIN_ROWS
    assert SWEEP_MARGIN_ROWS <= min(report.base_rows)
    assert max(report.base_rows) <= top


def test_sweep_past_the_most_locations_is_rejected(comet_machine, monkeypatch):
    """One location more raises, naming the maximum, before anything is
    hammered; the CLI prints the error and exits 2."""

    def hammer(*args, **kwargs):
        raise AssertionError("a rejected sweep hammered")

    monkeypatch.setattr(HammerSession, "run_pattern_batch", hammer)
    with pytest.raises(CalibrationError, match="at most 1017 "):
        sweep_pattern(
            comet_machine,
            rhohammer_config(nop_count=60, num_banks=1),
            canonical_compact_pattern(),
            RunBudget.trials(_most_locations(comet_machine) + 1),
            scale=QUICK_SCALE,
        )
    assert main(["sweep", "--platform", "comet_lake", "--locations", "2000"]) == 2


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

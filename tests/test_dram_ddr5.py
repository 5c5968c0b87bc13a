"""DDR5 refresh management and the sub-channel mapping (Section 6)."""

import numpy as np
import pytest

from repro import BENCH_SCALE, QUICK_SCALE, rhohammer_config
from repro.dram.ddr5 import RaaCounter, RfmConfig, ddr5_timing
from repro.exploit.endtoend import canonical_compact_pattern
from repro.hammer.session import HammerSession
from repro.mapping.presets import mapping_for
from repro.reveng import RhoHammerRevEng, TimingOracle, compare_mappings
from repro.system.machine import build_ddr5_machine


# ----------------------------------------------------------------------
# RAA counter mechanics
# ----------------------------------------------------------------------
def test_raa_counter_trips_at_threshold():
    raa = RaaCounter(threshold=10, rows_refreshed_per_rfm=2)
    for _ in range(9):
        assert raa.observe(5) is None
    targets = raa.observe(5)
    assert targets == [5]
    assert raa.rfm_commands == 1


def test_raa_targets_hottest_rows():
    raa = RaaCounter(threshold=10, rows_refreshed_per_rfm=2)
    rows = [1] * 5 + [2] * 3 + [3] * 2
    targets = None
    for row in rows:
        targets = raa.observe(row) or targets
    assert targets is not None
    assert targets[:2] == [1, 2]


def test_raa_counter_resets_between_rfms():
    raa = RaaCounter(threshold=4, rows_refreshed_per_rfm=1)
    fired = sum(1 for _ in range(12) if raa.observe(7))
    assert fired == 3
    assert raa.rfm_commands == 3


@pytest.mark.parametrize("threshold, chunks", [
    (4, (3, 5, 4, 0, 9)),
    (7, (1, 13, 8)),
    (40, (25, 40, 17, 60)),
])
def test_observe_chunk_matches_per_act_observe(threshold, chunks):
    """Chunked RAA accounting: same targets, tripped at the same ACTs."""
    rows = np.random.default_rng(threshold).integers(0, 9, sum(chunks))
    per_act = RaaCounter(threshold=threshold, rows_refreshed_per_rfm=2)
    expected = [
        (i, target)
        for i, row in enumerate(rows.tolist())
        for target in per_act.observe(row) or ()
    ]
    chunked = RaaCounter(threshold=threshold, rows_refreshed_per_rfm=2)
    got = []
    start = 0
    for size in chunks:
        targets, trips = chunked.observe_chunk(rows[start:start + size])
        got += zip((trips + start).tolist(), targets.tolist())
        start += size
    assert got == expected
    assert chunked.rfm_commands == per_act.rfm_commands


def test_rfm_threshold_scales_with_compression():
    config = RfmConfig(raa_initial_threshold=64)
    assert config.scaled_threshold(1.0) == 64
    assert config.scaled_threshold(24.0) == 3
    assert config.scaled_threshold(1000.0) == 1


def test_ddr5_timing_doubles_refresh_cadence():
    ddr4_refs = ddr5_timing().refs_per_window
    from repro.dram.timing import DdrTiming
    assert ddr4_refs == pytest.approx(2 * DdrTiming().refs_per_window, rel=0.05)


# ----------------------------------------------------------------------
# System-level negative result
# ----------------------------------------------------------------------
def _hammer_total(machine) -> int:
    session = HammerSession(
        machine=machine,
        config=rhohammer_config(nop_count=220, num_banks=3),
        disturbance_gain=QUICK_SCALE.disturbance_gain,
    )
    return sum(
        session.run_pattern(
            canonical_compact_pattern(), row,
            activations=QUICK_SCALE.acts_per_pattern,
        ).flip_count
        for row in (5000, 21000)
    )


def test_rfm_eliminates_rhohammer_flips():
    """The paper's negative result: no effective patterns on DDR5."""
    protected = build_ddr5_machine("raptor_lake", scale=QUICK_SCALE)
    unprotected = build_ddr5_machine(
        "raptor_lake", scale=QUICK_SCALE, rfm_enabled=False
    )
    assert _hammer_total(unprotected) > 0
    assert _hammer_total(protected) == 0


def test_ddr5_build_rejects_old_platforms():
    from repro.common.errors import CalibrationError
    with pytest.raises(CalibrationError):
        build_ddr5_machine("comet_lake")


def test_ddr5_mapping_has_subchannel_function():
    mapping = mapping_for("ddr5_alder_raptor", 16)
    assert (8, 12) in mapping.canonical_functions()
    assert mapping.num_banks == 64


def test_reveng_recovers_ddr5_mapping():
    """Our extension: Algorithm 1 also resolves the sub-channel function
    (the paper notes further effort is needed for its tool; the structured
    deduction handles the extra function like any other non-row split)."""
    machine = build_ddr5_machine("alder_lake", seed=2026)
    oracle = TimingOracle.allocate(machine, fraction=0.4)
    result = RhoHammerRevEng(oracle, collect_heatmap=False).run()
    assert compare_mappings(result.mapping, machine.mapping).fully_correct

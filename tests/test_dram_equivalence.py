"""Vectorised DRAM hot path vs the sequential reference (bit-identical).

The contract under test (see ``src/repro/dram/equivalence.py``): for any
workload, the vectorised :class:`~repro.dram.device.Dimm` and the
preserved :class:`~repro.dram.reference.ReferenceDimm` produce identical
flip-event multisets, counts, TRR refresh totals, durations *and* OBS
metric snapshots — across patterns, TRR vendor profiles, pTRR and RFM.
"""

import numpy as np
import pytest

from repro.common.rng import RngStream
from repro.dram import device as device_mod
from repro.dram.ddr5 import RfmConfig
from repro.dram.device import Dimm, DimmSpec
from repro.dram.equivalence import (
    batch_cross_check,
    cross_check,
    synthetic_workload,
    vector_twin,
)
from repro.dram.geometry import DramGeometry
from repro.dram.reference import reference_twin
from repro.dram.timing import DdrTiming
from repro.dram.trr import VENDOR_TRR_PROFILES, PtrrShield, TrrConfig
from repro.obs import telemetry_session
from repro.obs.trace import WALL_KEY


def make_dimm(
    trr: TrrConfig | None = None,
    ptrr: PtrrShield | None = None,
    rfm: RfmConfig | None = None,
    rfm_threshold: int | None = None,
    density: float = 0.25,
    median: float = 30_000.0,
    seed: int = 11,
    timing: DdrTiming | None = None,
) -> Dimm:
    spec = DimmSpec(
        dimm_id="EQV",
        vendor="T",
        production_week="W01-2026",
        freq_mhz=3200,
        size_gib=16,
        geometry=DramGeometry(ranks=1, banks=16, rows=1 << 16),
        median_flip_threshold=median,
        weak_cell_density=density,
    )
    return Dimm(
        spec=spec,
        timing=timing,
        trr_config=trr or TrrConfig(),
        ptrr=ptrr,
        rng=RngStream(seed, "equivalence-test"),
        rfm=rfm,
        rfm_threshold_acts=rfm_threshold,
    )


#: Streams at the interval plan's edges: intervals without ACTs, and a
#: window wider than one plan block.
PLAN_EDGE_KINDS = ("gappy", "scattered")
KINDS = ("double_sided", "many_sided", "random", "mixed") + PLAN_EDGE_KINDS


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("profile", sorted(VENDOR_TRR_PROFILES))
def test_vendor_profiles_bit_identical(kind, profile):
    dimm = make_dimm(trr=VENDOR_TRR_PROFILES[profile])
    workload = synthetic_workload(
        dimm, acts_per_bank=4000, banks=2, seed=5, kind=kind
    )
    check = cross_check(dimm, workload, disturbance_gain=24.0)
    assert check.identical, check.mismatches[:5]
    # The workload must actually exercise the paths being compared.
    assert check.vectorised.acts_executed == 8000


@pytest.mark.parametrize("kind", ("double_sided", "mixed") + PLAN_EDGE_KINDS)
def test_ptrr_and_rfm_bit_identical(kind):
    dimm = make_dimm(
        ptrr=PtrrShield(enabled=True, para_prob=0.02),
        rfm=RfmConfig(enabled=True),
        rfm_threshold=40,
    )
    workload = synthetic_workload(
        dimm, acts_per_bank=4000, banks=2, seed=7, kind=kind
    )
    check = cross_check(dimm, workload, disturbance_gain=24.0)
    assert check.identical, check.mismatches[:5]
    assert check.vectorised.trr_refreshes > 0


@pytest.mark.parametrize("kind", PLAN_EDGE_KINDS)
def test_plan_edge_streams_flip_bit_identically(kind):
    """The plan's edges, on a vulnerable DIMM so peaks turn into flips."""
    dimm = make_dimm(median=3_000.0)
    workload = synthetic_workload(
        dimm, acts_per_bank=4000, banks=2, seed=5, kind=kind
    )
    t_refi = dimm.timing.t_refi
    for times, rows in workload.values():
        n = int(times[-1] // t_refi) + 1
        per_interval = np.diff(
            np.searchsorted(times, np.arange(n + 1) * t_refi)
        )
        if kind == "gappy":
            assert (per_interval == 0).any()
        else:
            span = int(rows.max()) - int(rows.min()) + 5
            assert span > device_mod.PLAN_BLOCK_CELLS
    check = cross_check(dimm, workload, disturbance_gain=24.0)
    assert check.identical, check.mismatches[:5]
    assert check.vectorised.flip_count > 0


@pytest.mark.parametrize("cells, acts", [(64, 1 << 14), (1 << 15, 97), (7, 1)])
def test_small_plan_blocks_bit_identical(monkeypatch, cells, acts):
    """Sampler, RAA and pTRR state carries exactly across plan blocks.

    A 20-REF refresh window makes each periodic-refresh slot 3,276 rows
    wide, so the slots sweep every location's window within the stream;
    sparse ACTs and a low median make victims accumulate over several
    intervals, so every pTRR and periodic refresh shows in the flips.
    """
    monkeypatch.setattr(device_mod, "PLAN_BLOCK_CELLS", cells)
    monkeypatch.setattr(device_mod, "PLAN_BLOCK_ACTS", acts)
    timing = DdrTiming()
    dimm = make_dimm(
        ptrr=PtrrShield(enabled=True, para_prob=0.01),
        rfm=RfmConfig(enabled=True),
        rfm_threshold=40,
        median=1_000.0,
        timing=DdrTiming(refresh_window=20 * timing.t_refi),
    )
    workload = synthetic_workload(
        dimm, acts_per_bank=6000, banks=1, seed=4, kind="gappy",
        act_spacing_ns=40.0,
    )
    check = cross_check(dimm, workload, disturbance_gain=24.0)
    assert check.identical, check.mismatches[:5]
    assert check.vectorised.flip_count > 0
    batched = batch_cross_check(
        dimm, workload, BATCH_DELTAS, disturbance_gain=24.0
    )
    assert batched.batch_supported, batched.batch_unsupported_reason
    assert batched.identical, batched.mismatches[:5]


def _window_points(device, workload):
    with telemetry_session(
        trace_memory=True, trace_detail="window", metrics=True
    ) as obs:
        device.hammer(workload, disturbance_gain=24.0)
        events = obs.tracer.memory_events
    return [
        {k: v for k, v in event.items() if k != WALL_KEY}
        for event in events
        if event.get("name") == "dram.window"
    ]


@pytest.mark.parametrize("kind", ("mixed",) + PLAN_EDGE_KINDS)
def test_window_trace_points_match_reference(kind):
    """``--trace-detail window`` points: one per interval, as the oracle's."""
    dimm = make_dimm(
        ptrr=PtrrShield(enabled=True, para_prob=0.02),
        rfm=RfmConfig(enabled=True),
        rfm_threshold=40,
    )
    workload = synthetic_workload(
        dimm, acts_per_bank=3000, banks=2, seed=6, kind=kind
    )
    vectorised = _window_points(vector_twin(dimm), workload)
    reference = _window_points(reference_twin(dimm), workload)
    assert vectorised == reference
    t_refi = dimm.timing.t_refi
    assert len(vectorised) == sum(
        int(times[-1] // t_refi) + 1 for times, _ in workload.values()
    )
    assert any(p["attrs"]["trr_refreshes"] for p in vectorised)


def test_randomized_streams_bit_identical():
    """Property-style fuzz: random configs x random raw streams."""
    master = np.random.default_rng(0xF00D)
    for trial in range(6):
        dimm = make_dimm(
            trr=TrrConfig(
                capacity=int(master.integers(1, 9)),
                sample_prob=float(master.choice([0.3, 0.7, 1.0])),
            ),
            ptrr=PtrrShield(
                enabled=bool(master.integers(0, 2)), para_prob=0.03
            ),
            rfm=RfmConfig(enabled=bool(master.integers(0, 2))),
            rfm_threshold=int(master.integers(20, 90)),
            density=float(master.choice([0.0, 0.2, 0.6])),
            seed=int(master.integers(0, 2**31)),
        )
        streams = {}
        for bank in range(int(master.integers(1, 4))):
            n = int(master.integers(500, 5000))
            rows = master.integers(100, 60_000, size=n).astype(np.int64)
            times = np.cumsum(master.uniform(2.0, 20.0, size=n))
            streams[bank] = (times, rows)
        check = cross_check(dimm, streams, disturbance_gain=48.0)
        assert check.identical, (trial, check.mismatches[:5])


def test_flip_events_match_when_collected():
    """collect_events=True events agree as multisets (order documented)."""
    dimm = make_dimm(trr=TrrConfig(capacity=1, sample_prob=1e-9))
    workload = synthetic_workload(
        dimm, acts_per_bank=6000, banks=1, seed=3, kind="double_sided"
    )
    check = cross_check(
        dimm, workload, disturbance_gain=24.0, collect_events=True
    )
    assert check.identical, check.mismatches[:5]
    assert check.vectorised.flip_count > 0
    assert len(check.vectorised.flip_keys) == check.vectorised.flip_count


def test_metric_snapshots_compared_not_just_counts():
    """A cross-check must cover OBS telemetry, not only end results."""
    dimm = make_dimm()
    workload = synthetic_workload(
        dimm, acts_per_bank=2000, banks=1, seed=1, kind="mixed"
    )
    check = cross_check(dimm, workload, disturbance_gain=24.0)
    assert check.identical
    counters = check.vectorised.metrics["counters"]
    assert counters["dram.trr.acts_observed"] > 0
    # Satellite regression guard: tracked_hits counts *activations* that
    # bumped an existing entry, so inserted + hits + escaped == observed.
    assert (
        counters["dram.trr.rows_inserted"]
        + counters["dram.trr.tracked_hits"]
        + counters["dram.trr.acts_escaped"]
        == counters["dram.trr.acts_observed"]
    )


# ----------------------------------------------------------------------
# Batched multi-location execution: batched == per-trial == reference.

BATCH_DELTAS = (0, 96, 4096, -48)


@pytest.mark.parametrize("kind", ("double_sided", "mixed", "gappy"))
@pytest.mark.parametrize("profile", sorted(VENDOR_TRR_PROFILES))
def test_batch_vendor_profiles_bit_identical(kind, profile):
    dimm = make_dimm(trr=VENDOR_TRR_PROFILES[profile])
    workload = synthetic_workload(
        dimm, acts_per_bank=4000, banks=2, seed=5, kind=kind
    )
    check = batch_cross_check(
        dimm, workload, BATCH_DELTAS, disturbance_gain=24.0
    )
    assert check.batch_supported, check.batch_unsupported_reason
    assert check.identical, check.mismatches[:5]
    # Every location must have executed the full stream.
    for trace in check.batched.per_location:
        assert trace.acts_executed == 8000


@pytest.mark.parametrize("kind", ("double_sided", "mixed", "gappy"))
def test_batch_ptrr_and_rfm_bit_identical(kind):
    dimm = make_dimm(
        ptrr=PtrrShield(enabled=True, para_prob=0.02),
        rfm=RfmConfig(enabled=True),
        rfm_threshold=40,
    )
    workload = synthetic_workload(
        dimm, acts_per_bank=4000, banks=2, seed=7, kind=kind
    )
    check = batch_cross_check(
        dimm, workload, BATCH_DELTAS, disturbance_gain=24.0
    )
    assert check.batch_supported, check.batch_unsupported_reason
    assert check.identical, check.mismatches[:5]
    assert all(t.trr_refreshes > 0 for t in check.batched.per_location)


def test_batch_flip_events_ordered_identically():
    """Batched flip events match the serial loop in emission *order*."""
    dimm = make_dimm(trr=TrrConfig(capacity=1, sample_prob=1e-9))
    workload = synthetic_workload(
        dimm, acts_per_bank=6000, banks=1, seed=3, kind="double_sided"
    )
    check = batch_cross_check(
        dimm,
        workload,
        BATCH_DELTAS,
        disturbance_gain=24.0,
        collect_events=True,
    )
    assert check.batch_supported, check.batch_unsupported_reason
    assert check.identical, check.mismatches[:5]
    assert sum(t.flip_count for t in check.batched.per_location) > 0
    for bat, ser in zip(
        check.batched.per_location, check.serial.per_location
    ):
        assert bat.flip_keys == ser.flip_keys  # exact order, not multiset


def test_batch_without_events_matches_counts():
    dimm = make_dimm(trr=TrrConfig(capacity=1, sample_prob=1e-9))
    workload = synthetic_workload(
        dimm, acts_per_bank=6000, banks=1, seed=3, kind="double_sided"
    )
    check = batch_cross_check(
        dimm,
        workload,
        BATCH_DELTAS,
        disturbance_gain=24.0,
        collect_events=False,
    )
    assert check.batch_supported, check.batch_unsupported_reason
    assert check.identical, check.mismatches[:5]


def test_batch_edge_clamped_falls_back_and_still_matches():
    """Windows clamped at the device edge force (correct) fallback."""
    dimm = make_dimm()
    workload = synthetic_workload(
        dimm, acts_per_bank=2000, banks=1, seed=9, kind="double_sided"
    )
    rows_total = dimm.spec.geometry.rows
    # Shift one location so its window would clamp at the top edge.
    top = rows_total - int(max(workload[0][1].max(), 0)) - 1
    check = batch_cross_check(
        dimm, workload, (0, top), disturbance_gain=24.0
    )
    assert not check.batch_supported
    assert "edge" in check.batch_unsupported_reason
    assert check.identical, check.mismatches[:5]


def test_batch_supported_rejects_oversized_matrices():
    dimm = make_dimm()
    workload = synthetic_workload(
        dimm, acts_per_bank=2000, banks=1, seed=9, kind="random"
    )
    many = tuple(range(0, 4096, 8))
    cap = device_mod.BATCH_MATRIX_BYTES_MAX
    try:
        device_mod.BATCH_MATRIX_BYTES_MAX = 1024
        ok, reason = dimm.batch_supported(
            workload, np.asarray(many, dtype=np.int64)
        )
    finally:
        device_mod.BATCH_MATRIX_BYTES_MAX = cap
    assert not ok
    assert "bytes" in reason or "matri" in reason


def test_invulnerable_dimm_yields_zero_flips_both_paths():
    dimm = make_dimm(density=0.0)
    workload = synthetic_workload(
        dimm, acts_per_bank=3000, banks=1, seed=2, kind="double_sided"
    )
    check = cross_check(dimm, workload, disturbance_gain=48.0)
    assert check.identical
    assert check.vectorised.flip_count == 0

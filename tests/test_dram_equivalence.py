"""Vectorised DRAM hot path vs the sequential reference (bit-identical).

The contract under test (see ``src/repro/dram/equivalence.py``): for any
workload, at one location or many, the batched and per-location
vectorised :class:`~repro.dram.device.Dimm` calls and the preserved
:class:`~repro.dram.reference.ReferenceDimm` produce identical flip
events, counts, TRR refresh totals, durations *and* OBS metric snapshots
— across patterns, TRR vendor profiles, pTRR, RFM, device edges and
telemetry on or off, and when a batched workload is played again at
other base rows through the plan of its first play.
"""

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.common.rng import RngStream
from repro.dram import device as device_mod
from repro.dram.ddr5 import RfmConfig
from repro.dram.device import Dimm, DimmSpec, StreamPlan
from repro.dram.equivalence import (
    cross_check,
    synthetic_workload,
    vector_twin,
)
from repro.dram.geometry import DramGeometry
from repro.dram.reference import ReferenceDimm, reference_twin
from repro.dram.timing import DdrTiming
from repro.dram.trr import VENDOR_TRR_PROFILES, PtrrShield, TrrConfig
from repro.obs import metric_key, telemetry_session
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
    assert check.batched.locations[0].acts_executed == 8000


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
    assert check.batched.locations[0].trr_refreshes > 0


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
    assert check.batched.locations[0].flip_count > 0


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
    assert check.batched.locations[0].flip_count > 0
    batched = cross_check(
        dimm, workload, BATCH_DELTAS, disturbance_gain=24.0,
        replay_deltas=REPLAY_DELTAS,
    )
    assert batched.identical, batched.mismatches[:5]


def _window_points(device, plays):
    """The ``dram.window`` points of one ``hammer`` call per stream, all
    through one plan (which the reference ignores)."""
    plan = StreamPlan()
    with telemetry_session(
        trace_memory=True, trace_detail="window", metrics=True
    ) as obs:
        for workload in plays:
            device.hammer(workload, disturbance_gain=24.0, plan=plan)
        events = obs.tracer.memory_events
    return [
        {k: v for k, v in event.items() if k != WALL_KEY}
        for event in events
        if event.get("name") == "dram.window"
    ]


@pytest.mark.parametrize("kind", ("mixed",) + PLAN_EDGE_KINDS)
def test_window_trace_points_match_reference(kind):
    """``--trace-detail window`` points: one per interval, as the oracle's,
    also when the stream is replayed 64 rows up through its first plan."""
    dimm = make_dimm(
        ptrr=PtrrShield(enabled=True, para_prob=0.02),
        rfm=RfmConfig(enabled=True),
        rfm_threshold=40,
    )
    workload = synthetic_workload(
        dimm, acts_per_bank=3000, banks=2, seed=6, kind=kind
    )
    shifted = {
        bank: (times, rows + 64) for bank, (times, rows) in workload.items()
    }
    plays = [workload, shifted]
    vectorised = _window_points(vector_twin(dimm), plays)
    reference = _window_points(reference_twin(dimm), plays)
    assert vectorised == reference
    t_refi = dimm.timing.t_refi
    assert len(vectorised) == 2 * sum(
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
    location = check.batched.locations[0]
    assert location.flip_count > 0
    assert len(location.flips) == location.flip_count


def test_metric_snapshots_compared_not_just_counts():
    """A cross-check must cover OBS telemetry, not only end results."""
    dimm = make_dimm()
    workload = synthetic_workload(
        dimm, acts_per_bank=2000, banks=1, seed=1, kind="mixed"
    )
    check = cross_check(dimm, workload, disturbance_gain=24.0)
    assert check.identical
    counters = check.batched.metrics["counters"]
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
# Many locations: batched == per-location == reference.

BATCH_DELTAS = (0, 96, 4096, -48)

#: Where a batched workload is played a second time, through the plan of
#: its first play: other base rows, and another location count.
REPLAY_DELTAS = (2048, 7, -300)


#: Batched workload kinds, each with telemetry on, plus one with it off.
BATCH_KINDS = [
    pytest.param(kind, True, id=kind)
    for kind in ("double_sided", "mixed", "gappy")
] + [pytest.param("mixed", False, id="mixed-no-obs")]


@pytest.mark.parametrize("kind, telemetry", BATCH_KINDS)
@pytest.mark.parametrize("profile", sorted(VENDOR_TRR_PROFILES))
def test_batch_vendor_profiles_bit_identical(kind, profile, telemetry):
    dimm = make_dimm(trr=VENDOR_TRR_PROFILES[profile])
    workload = synthetic_workload(
        dimm, acts_per_bank=4000, banks=2, seed=5, kind=kind
    )
    check = cross_check(
        dimm, workload, BATCH_DELTAS, disturbance_gain=24.0,
        replay_deltas=REPLAY_DELTAS, telemetry=telemetry,
    )
    assert check.identical, check.mismatches[:5]
    # Every location, replayed ones included, executed the full stream.
    locations = check.batched.locations
    assert len(locations) == len(BATCH_DELTAS) + len(REPLAY_DELTAS)
    for trace in locations:
        assert trace.acts_executed == 8000
    assert bool(check.batched.metrics.get("counters")) == telemetry


#: Two locations per play: the smallest batch that is not one location.
PAIR_DELTAS = (0, 96)
PAIR_REPLAY_DELTAS = (7, -300)


@pytest.mark.parametrize("profile", sorted(VENDOR_TRR_PROFILES))
def test_two_location_batches_bit_identical(profile):
    dimm = make_dimm(trr=VENDOR_TRR_PROFILES[profile])
    workload = synthetic_workload(
        dimm, acts_per_bank=4000, banks=2, seed=5, kind="mixed"
    )
    check = cross_check(
        dimm, workload, PAIR_DELTAS, disturbance_gain=24.0,
        replay_deltas=PAIR_REPLAY_DELTAS,
    )
    assert check.identical, check.mismatches[:5]
    assert len(check.batched.locations) == 4


def test_two_location_batch_with_ptrr_and_rfm_bit_identical():
    dimm = make_dimm(
        ptrr=PtrrShield(enabled=True, para_prob=0.02),
        rfm=RfmConfig(enabled=True),
        rfm_threshold=40,
        median=3_000.0,
    )
    workload = synthetic_workload(
        dimm, acts_per_bank=4000, banks=2, seed=7, kind="gappy"
    )
    check = cross_check(
        dimm, workload, PAIR_DELTAS, disturbance_gain=24.0,
        replay_deltas=PAIR_REPLAY_DELTAS,
    )
    assert check.identical, check.mismatches[:5]
    assert sum(t.flip_count for t in check.batched.locations) > 0


@pytest.mark.parametrize("kind, telemetry", BATCH_KINDS)
def test_batch_ptrr_and_rfm_bit_identical(kind, telemetry):
    dimm = make_dimm(
        ptrr=PtrrShield(enabled=True, para_prob=0.02),
        rfm=RfmConfig(enabled=True),
        rfm_threshold=40,
    )
    workload = synthetic_workload(
        dimm, acts_per_bank=4000, banks=2, seed=7, kind=kind
    )
    check = cross_check(
        dimm, workload, BATCH_DELTAS, disturbance_gain=24.0,
        replay_deltas=REPLAY_DELTAS, telemetry=telemetry,
    )
    assert check.identical, check.mismatches[:5]
    assert all(t.trr_refreshes > 0 for t in check.batched.locations)


def test_batch_flip_events_ordered_identically():
    """Batched flip events match the serial loop in emission *order*."""
    dimm = make_dimm(trr=TrrConfig(capacity=1, sample_prob=1e-9))
    workload = synthetic_workload(
        dimm, acts_per_bank=6000, banks=1, seed=3, kind="double_sided"
    )
    check = cross_check(
        dimm,
        workload,
        BATCH_DELTAS,
        disturbance_gain=24.0,
        collect_events=True,
        replay_deltas=REPLAY_DELTAS,
    )
    assert check.identical, check.mismatches[:5]
    assert sum(t.flip_count for t in check.batched.locations) > 0
    for bat, ser in zip(check.batched.locations, check.serial.locations):
        assert bat.flips == ser.flips  # exact order, not multiset


def test_batch_without_events_matches_counts():
    dimm = make_dimm(trr=TrrConfig(capacity=1, sample_prob=1e-9))
    workload = synthetic_workload(
        dimm, acts_per_bank=6000, banks=1, seed=3, kind="double_sided"
    )
    check = cross_check(
        dimm,
        workload,
        BATCH_DELTAS,
        disturbance_gain=24.0,
        collect_events=False,
        replay_deltas=REPLAY_DELTAS,
    )
    assert check.identical, check.mismatches[:5]


def _edge_deltas(dimm, workload, edge):
    """Shifts putting the aggressors 0 and 1 rows from a device edge.

    The window then reaches two and one rows past the edge.
    """
    rows = workload[0][1]
    if edge == "bottom":
        return (0, -int(rows.min()), 1 - int(rows.min()))
    top = dimm.spec.geometry.rows - 1
    return (0, top - int(rows.max()), top - 1 - int(rows.max()))


@pytest.mark.parametrize("edge", ("bottom", "top"))
def test_batch_at_device_edge_bit_identical(edge):
    """A window past a device edge is padded, not a per-trial fallback.

    The replay plays the plan made at one edge at the other edge.
    """
    dimm = make_dimm(
        trr=TrrConfig(capacity=1, sample_prob=1e-9), median=3_000.0
    )
    workload = synthetic_workload(
        dimm, acts_per_bank=4000, banks=1, seed=9, kind="double_sided"
    )
    deltas = _edge_deltas(dimm, workload, edge)
    other = _edge_deltas(dimm, workload, "top" if edge == "bottom" else "bottom")
    assert dimm.batch_supported(workload, np.asarray(deltas))[0]
    check = cross_check(
        dimm, workload, deltas, disturbance_gain=24.0, replay_deltas=other
    )
    assert check.identical, check.mismatches[:5]
    rows_total = dimm.spec.geometry.rows
    edge_locations = check.batched.locations[1:3] + check.batched.locations[4:]
    for trace in edge_locations:
        assert trace.flip_count > 0
        assert all(0 <= flip.row < rows_total for flip in trace.flips)
    # The flips sit at both edges, not only in the stream's interior.
    flipped = {flip.row for trace in edge_locations for flip in trace.flips}
    assert {1, rows_total - 2} <= flipped


def test_batch_over_memory_cap_runs_in_passes(monkeypatch):
    """A batch over the matrix cap runs as passes of as many as fit."""
    dimm = make_dimm(
        trr=TrrConfig(capacity=1, sample_prob=1e-9), median=3_000.0
    )
    workload = synthetic_workload(
        dimm, acts_per_bank=3000, banks=2, seed=9, kind="mixed"
    )
    deltas = np.arange(0, 64, 8, dtype=np.int64)
    timing = dimm.timing
    per_location = max(
        device_mod._location_bytes(
            int(rows.max()) - int(rows.min()) + 5,
            int(times[-1] // timing.t_refi) + 1,
            timing.refs_per_window,
        )
        for times, rows in workload.values()
    )
    monkeypatch.setattr(
        device_mod, "BATCH_MATRIX_BYTES_MAX", 3 * per_location + 1
    )
    assert dimm.batch_supported(workload, deltas)[0]
    passes: list[int] = []
    play = Dimm._hammer_locations

    def spy(self, banks, pass_deltas, *args):
        passes.append(int(pass_deltas.size))
        return play(self, banks, pass_deltas, *args)

    monkeypatch.setattr(Dimm, "_hammer_locations", spy)
    vector_twin(dimm).hammer_batch(workload, deltas)
    assert passes == [3, 3, 2]
    check = cross_check(
        dimm, workload, deltas, disturbance_gain=24.0,
        replay_deltas=deltas[::-1] + 5,
    )
    assert check.identical, check.mismatches[:5]
    assert sum(t.flip_count for t in check.batched.locations) > 0


def test_tied_peaks_name_the_earlier_window():
    """Equal periodic-refresh pieces: the flip goes to the earliest one.

    Every interval holds the same ACT mix (20 ACTs to each aggressor of a
    double-sided pair) and TRR tracks nothing, so a victim's level is
    reset only by the periodic refresh, every 20 intervals.  Its full
    pieces fold the same values in the same order to the same float, and
    the walk's strict ``level > peak`` names the first of them: interval
    20, the end of the first full piece, never 40 or 60.
    """
    timing = DdrTiming()
    refs = 20
    dimm = make_dimm(
        trr=TrrConfig(capacity=1, sample_prob=1e-9),
        median=3_000.0,
        density=0.6,
        timing=DdrTiming(refresh_window=refs * timing.t_refi),
    )
    per_interval = 40
    n = 3 * refs + 10
    times = (np.arange(n * per_interval) + 0.5) * (
        timing.t_refi / per_interval
    )
    # Rows 100-104 lie in periodic-refresh slot 0 (3,276 rows per slot),
    # refreshed at intervals 0, 20, 40 and 60.
    rows = np.where(np.arange(times.size) % 2 == 0, 100, 102)
    stream = {0: (times, rows.astype(np.int64))}
    check = cross_check(
        dimm, stream, (0, 40), disturbance_gain=24.0, replay_deltas=(7,)
    )
    assert check.identical, check.mismatches[:5]
    flips = sum(t.flip_count for t in check.batched.locations)
    assert flips > 0
    counters = check.batched.metrics["counters"]
    key = metric_key("dram.flips_by_window", {"window": refs})
    assert counters[key] == flips


def test_segment_folds_match_a_python_left_fold():
    """The play sums every segment left to right, as the walk did.

    Mixed magnitudes make the sum depend on the order of the additions,
    and NumPy's pairwise ``add.reduce`` differs from the left fold on
    these inputs; the segment folds must not.  Covered: a bucket that
    holds a single segment (a one-column block) and many segments of 9
    or more terms.
    """
    rng = np.random.default_rng(21)
    values = rng.choice([1.0, 0.18, 1e-3, 7.5e5], size=4000) * rng.integers(
        1, 300, size=4000
    )
    gain = 24.0
    # One 300-term segment alone in its bucket, then many of 9-60 terms.
    lengths = np.concatenate(([300], rng.integers(9, 61, size=80)))
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))

    def left_fold(i):
        level, running = 0.0, []
        for value in values[starts[i]:starts[i] + lengths[i]]:
            level += value * gain
            running.append(level)
        return running

    expected = [left_fold(i) for i in range(lengths.size)]
    pairwise = [
        np.add.reduce(values[s:s + n] * gain) for s, n in zip(starts, lengths)
    ]
    assert sum(p != e[-1] for p, e in zip(pairwise, expected)) > 10
    running = device_mod._running_sums(values, gain, starts, lengths)
    assert running.tolist() == [v for fold in expected for v in fold]
    ends = device_mod._fold_ends(values, gain, starts, lengths)
    assert ends.tolist() == [fold[-1] for fold in expected]
    reach = device_mod._first_reach(values, gain, starts, lengths, ends)
    assert reach.tolist() == [fold.index(fold[-1]) for fold in expected]


@pytest.mark.parametrize("twin", (vector_twin, reference_twin))
@pytest.mark.parametrize("row", (-1, 1 << 16))
def test_off_device_rows_rejected(twin, row):
    """Both twins refuse ACTs on rows outside ``[0, rows)``."""
    device = twin(make_dimm())
    times = np.arange(1.0, 201.0)
    odd = np.arange(200) % 2 == 1
    sandwich = np.where(odd, row + 2 if row < 0 else row - 2, row)
    with pytest.raises(SimulationError, match="outside the device"):
        device.hammer({0: (times, sandwich)})
    inside = {0: (times, np.where(odd, 100, 102))}
    with pytest.raises(SimulationError, match="outside the device"):
        device.hammer_batch(inside, np.array([0, row - 100]))


def test_reference_twin_never_runs_the_vectorised_loop(monkeypatch):
    """The oracle overrides the driver hook, for one location or many."""

    def vectorised(*args, **kwargs):
        raise AssertionError("the reference ran the vectorised loop")

    monkeypatch.setattr(Dimm, "_play_bank", vectorised)
    dimm = make_dimm()
    workload = synthetic_workload(
        dimm, acts_per_bank=2000, banks=2, seed=2, kind="mixed"
    )
    ref = reference_twin(dimm)
    assert isinstance(ref, ReferenceDimm)
    ref.hammer(workload, disturbance_gain=24.0)
    ref.hammer_batch(workload, BATCH_DELTAS, disturbance_gain=24.0)
    with pytest.raises(AssertionError, match="vectorised loop"):
        vector_twin(dimm).hammer(workload)


def test_invulnerable_dimm_yields_zero_flips_both_paths():
    dimm = make_dimm(density=0.0)
    workload = synthetic_workload(
        dimm, acts_per_bank=3000, banks=1, seed=2, kind="double_sided"
    )
    check = cross_check(dimm, workload, disturbance_gain=48.0)
    assert check.identical
    assert check.batched.locations[0].flip_count == 0

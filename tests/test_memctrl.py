"""Memory controller translation, dispatch and the SBDR side channel."""

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.common.rng import RngStream
from repro.dram.device import Dimm, DimmSpec
from repro.dram.geometry import DramGeometry
from repro.dram.mitigations import RandomizedRowSwap, ScrambledMapping
from repro.dram.timing import AccessLatency
from repro.dram.trr import TrrConfig
from repro.mapping.presets import mapping_for
from repro.memctrl.controller import MemoryController
from repro.memctrl.sidechannel import AccessKind, PairTimer


def make_controller(remapper=None) -> MemoryController:
    mapping = mapping_for("comet_lake", 16)
    spec = DimmSpec(
        dimm_id="T2",
        vendor="T",
        production_week="W01-2025",
        freq_mhz=3200,
        size_gib=16,
        geometry=DramGeometry(ranks=2, banks=16, rows=1 << 16),
        median_flip_threshold=5_000.0,
        weak_cell_density=0.5,
    )
    dimm = Dimm(spec=spec, trr_config=TrrConfig(sample_prob=1e-12),
                rng=RngStream(9, "mc-test"))
    return MemoryController(mapping, dimm, remapper=remapper)


def test_bank_count_mismatch_rejected():
    mapping = mapping_for("comet_lake", 8)  # 16 banks
    controller = make_controller()
    with pytest.raises(SimulationError):
        MemoryController(mapping, controller.dimm)


def test_translate_matches_mapping():
    controller = make_controller()
    addr = controller.mapping.addresses_in_bank(7, [1234])[0]
    geo = controller.translate(addr)
    assert geo.bank == 7
    assert geo.row == 1234


def test_execute_acts_splits_streams_per_bank():
    controller = make_controller()
    mapping = controller.mapping
    a = mapping.addresses_in_bank(2, [100, 102] * 8000)
    b = mapping.addresses_in_bank(9, [200, 202] * 8000)
    phys = np.array(a + b, dtype=np.uint64)
    times = (np.arange(phys.size, dtype=np.float64) + 1) * 50.0
    result = controller.execute_acts(times, phys, collect_events=True)
    assert result.acts_executed == phys.size
    assert {f.bank for f in result.flips} <= {2, 9}
    assert result.flip_count > 0


def test_execute_acts_applies_remapper():
    geometry = DramGeometry(ranks=2, banks=16, rows=1 << 16)
    scramble = ScrambledMapping(geometry=geometry, boot_key=77)
    controller = make_controller(remapper=scramble)
    mapping = controller.mapping
    phys = np.array(mapping.addresses_in_bank(2, [100, 102] * 8000),
                    dtype=np.uint64)
    times = (np.arange(phys.size, dtype=np.float64) + 1) * 50.0
    result = controller.execute_acts(times, phys, collect_events=True)
    flipped_rows = {f.row for f in result.flips}
    # Flips land at the scrambled locations, not around rows 100-102.
    assert 101 not in flipped_rows


def test_execute_acts_validates_shapes():
    controller = make_controller()
    with pytest.raises(SimulationError):
        controller.execute_acts(np.array([1.0]), np.array([1, 2], dtype=np.uint64))


_GEOMETRY = DramGeometry(ranks=2, banks=16, rows=1 << 16)
_REMAPPERS = {
    "identity": lambda: None,
    "scramble": lambda: ScrambledMapping(geometry=_GEOMETRY, boot_key=77),
    "row-swap": lambda: RandomizedRowSwap(
        geometry=_GEOMETRY, rng=RngStream(5, "rrs"), swap_threshold=8
    ),
}


@pytest.mark.parametrize("remapper", sorted(_REMAPPERS))
@pytest.mark.parametrize(
    "deltas",
    ([0, -5000], [0, 65536], [-101, 0]),
    ids=("second-below", "second-above", "first-below"),
)
def test_execute_acts_batch_rejects_off_device_locations(remapper, deltas):
    """A location shifted off the device raises before any location runs.

    Remappers must not see such rows: scrambling folds them back onto
    the device and the row-swap table wraps negative ones.
    """
    controller = make_controller(remapper=_REMAPPERS[remapper]())
    phys = np.array(
        controller.mapping.addresses_in_bank(2, [100, 102] * 500),
        dtype=np.uint64,
    )
    times = (np.arange(phys.size, dtype=np.float64) + 1) * 50.0
    with pytest.raises(SimulationError, match="outside the device"):
        controller.execute_acts_batch(times, phys, deltas)


# ----------------------------------------------------------------------
# SBDR side channel
# ----------------------------------------------------------------------
@pytest.fixture()
def timer() -> PairTimer:
    controller = make_controller()
    return PairTimer(
        controller=controller,
        latency=AccessLatency(),
        rng=RngStream(11, "timer"),
    )


def test_classify_kinds(timer):
    mapping = timer.controller.mapping
    a = mapping.addresses_in_bank(3, [500])[0]
    b = mapping.addresses_in_bank(3, [900])[0]
    c = mapping.addresses_in_bank(8, [500])[0]
    assert timer.classify(a, b) is AccessKind.SBDR
    # Bit 7 is a pure column bit on this mapping (bit 6 belongs to the
    # (6, 13) bank function, so it would change the bank instead).
    assert timer.classify(a, a ^ 0x80) is AccessKind.SAME_ROW
    assert timer.classify(a, c) is AccessKind.DIFF_BANK


def test_sbdr_pairs_measure_slower(timer):
    mapping = timer.controller.mapping
    a = mapping.addresses_in_bank(3, [500])[0]
    b = mapping.addresses_in_bank(3, [900])[0]
    c = mapping.addresses_in_bank(8, [500])[0]
    slow = timer.measure(a, b, reps=100)
    fast = timer.measure(a, c, reps=100)
    assert slow > fast + 50.0


def test_measure_counts_measurements(timer):
    before = timer.measurements_taken
    timer.measure(0x1000, 0x2000, reps=25)
    assert timer.measurements_taken == before + 25


def test_measure_many_agrees_with_classification(timer):
    mapping = timer.controller.mapping
    sbdr = [mapping.addresses_in_bank(3, [i])[0] for i in (10, 20)]
    db = [mapping.addresses_in_bank(3, [10])[0],
          mapping.addresses_in_bank(4, [10])[0]]
    pairs = np.array([sbdr, db], dtype=np.uint64)
    latencies = timer.measure_many(pairs, reps=60)
    assert latencies[0] > latencies[1] + 50.0

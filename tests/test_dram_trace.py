"""Activation-trace recording, persistence and replay."""

import numpy as np
import pytest

from repro import QUICK_SCALE, build_machine, rhohammer_config
from repro.dram.device import Dimm
from repro.dram.trace import ActivationTrace, record_trace, replay_trace
from repro.dram.trr import TrrConfig
from repro.exploit.endtoend import canonical_compact_pattern
from repro.hammer.session import HammerSession


def _record(machine):
    return record_trace(
        machine,
        rhohammer_config(nop_count=60, num_banks=3),
        canonical_compact_pattern(),
        base_row=6000,
        activations=QUICK_SCALE.acts_per_pattern,
        disturbance_gain=QUICK_SCALE.disturbance_gain,
    )


@pytest.fixture(scope="module")
def trace(comet_machine):
    return _record(comet_machine)


def test_trace_covers_the_target_banks(trace):
    assert trace.banks == (0, 1, 2)
    assert trace.total_acts > 0
    assert trace.duration_ns > 0


def test_trace_rows_are_pattern_rows(trace):
    rows = np.concatenate([r for _, r in trace.bank_streams.values()])
    offsets = set(int(r) - 6000 for r in np.unique(rows))
    expected = {off for p in canonical_compact_pattern().pairs for off in p.rows}
    assert offsets == expected


def _assert_same_flips(a, b):
    """Equal flip counts, executed ACTs and flip events (order-free)."""
    def key(event):
        return (event.bank, event.row, event.bit_index, event.direction)

    assert a.flip_count == b.flip_count
    assert a.acts_executed == b.acts_executed
    assert sorted(a.flips, key=key) == sorted(b.flips, key=key)


def test_replay_reproduces_the_original_flips(trace, comet_machine):
    direct = replay_trace(trace, comet_machine.dimm, collect_events=True)
    again = replay_trace(trace, comet_machine.dimm, collect_events=True)
    assert direct.flip_count > 0
    _assert_same_flips(direct, again)


def test_replay_against_stronger_trr(trace, comet_machine):
    """One recorded campaign, two TRR strengths — the record/replay
    use-case."""
    spec = comet_machine.dimm.spec
    tight = Dimm(
        spec=spec,
        timing=comet_machine.dimm.timing,
        trr_config=TrrConfig(capacity=2, refreshes_per_ref=2),
    )
    baseline = replay_trace(trace, comet_machine.dimm)
    protected = replay_trace(trace, tight)
    assert protected.flip_count < baseline.flip_count


def test_save_load_roundtrip(trace, tmp_path):
    path = tmp_path / "trace.npz"
    trace.save(path)
    loaded = ActivationTrace.load(path)
    assert loaded.banks == trace.banks
    assert loaded.total_acts == trace.total_acts
    assert loaded.disturbance_gain == trace.disturbance_gain
    assert loaded.description == trace.description
    for bank in trace.banks:
        times_a, rows_a = trace.bank_streams[bank]
        times_b, rows_b = loaded.bank_streams[bank]
        assert np.array_equal(times_a, times_b)
        assert np.array_equal(rows_a, rows_b)


def test_load_rejects_empty_archive(tmp_path):
    import numpy as np
    path = tmp_path / "empty.npz"
    np.savez_compressed(path, meta=np.array([1.0]),
                        description=np.array(["x"]))
    from repro.common.errors import SimulationError
    with pytest.raises(SimulationError):
        ActivationTrace.load(path)


def _live(machine):
    session = HammerSession(
        machine=machine,
        config=rhohammer_config(nop_count=60, num_banks=3),
        disturbance_gain=QUICK_SCALE.disturbance_gain,
    )
    return session.run_pattern(
        canonical_compact_pattern(), 6000,
        activations=QUICK_SCALE.acts_per_pattern,
        collect_events=True,
    )


def test_replayed_flips_match_live_session(comet_machine, trace):
    """Trace replay and the live session produce the same flips for the
    same kernel/pattern/location."""
    replayed = replay_trace(trace, comet_machine.dimm, collect_events=True)
    assert replayed.flip_count > 0
    _assert_same_flips(_live(comet_machine), replayed)


def test_replayed_flips_match_live_session_on_raptor_lake(raptor_machine):
    """The same under the Alder/Raptor address mapping."""
    replayed = replay_trace(
        _record(raptor_machine), raptor_machine.dimm, collect_events=True
    )
    assert replayed.flip_count > 0
    _assert_same_flips(_live(raptor_machine), replayed)

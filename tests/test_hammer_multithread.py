"""Multi-threaded hammering (Section 4.5's negative result)."""

import pytest

from repro import QUICK_SCALE, rhohammer_config
from repro.exploit.endtoend import canonical_compact_pattern
from repro.hammer import session as session_module
from repro.hammer.multithread import MultiThreadSession, ThreadPolicy
from repro.hammer.session import HammerSession


@pytest.fixture(scope="module")
def single_thread_flips(comet_machine):
    session = HammerSession(
        machine=comet_machine,
        config=rhohammer_config(nop_count=60, num_banks=3),
        disturbance_gain=QUICK_SCALE.disturbance_gain,
    )
    return sum(
        session.run_pattern(
            canonical_compact_pattern(), row,
            activations=QUICK_SCALE.acts_per_pattern,
        ).flip_count
        for row in (6000, 22000)
    )


def multi_flips(machine, threads, policy):
    session = MultiThreadSession(
        machine=machine,
        config=rhohammer_config(nop_count=60, num_banks=3),
        num_threads=threads,
        policy=policy,
        disturbance_gain=QUICK_SCALE.disturbance_gain,
    )
    return sum(
        session.run_pattern(
            canonical_compact_pattern(), row,
            activations=QUICK_SCALE.acts_per_pattern,
        ).flip_count
        for row in (6000, 22000)
    )


def test_one_thread_matches_the_single_threaded_path(
    comet_machine, single_thread_flips
):
    one = multi_flips(comet_machine, 1, ThreadPolicy.FREE_RUNNING)
    assert single_thread_flips > 0
    # Same kernel, same pattern: within noise of the plain session.
    assert one > single_thread_flips * 0.3


def test_free_running_threads_scramble_the_pattern(
    comet_machine, single_thread_flips
):
    """He et al. / Section 4.5: concurrent requests collide in the MC
    queue and disturb the non-uniform order."""
    four = multi_flips(comet_machine, 4, ThreadPolicy.FREE_RUNNING)
    assert four < single_thread_flips


def test_degradation_grows_with_thread_count(comet_machine):
    two = multi_flips(comet_machine, 2, ThreadPolicy.FREE_RUNNING)
    eight = multi_flips(comet_machine, 8, ThreadPolicy.FREE_RUNNING)
    assert eight <= two


def test_multithreading_collapses_on_raptor(raptor_machine):
    """Where peaks sit near the flip threshold, the queue-collision rate
    loss kills the attack outright — the strongest form of the paper's
    "single-threaded is preferable" conclusion."""
    session = MultiThreadSession(
        machine=raptor_machine,
        config=rhohammer_config(nop_count=220, num_banks=3),
        num_threads=4,
        policy=ThreadPolicy.FREE_RUNNING,
        disturbance_gain=QUICK_SCALE.disturbance_gain,
    )
    flips = sum(
        session.run_pattern(
            canonical_compact_pattern(), row,
            activations=QUICK_SCALE.acts_per_pattern,
        ).flip_count
        for row in (6000, 22000)
    )
    assert flips <= 2


def test_lock_step_preserves_order_but_starves_the_rate(
    comet_machine, single_thread_flips
):
    """Serialising with a lock keeps the pattern intact yet pays the
    hand-off on every access: still worse than one thread."""
    locked = multi_flips(comet_machine, 4, ThreadPolicy.LOCK_STEP)
    assert locked < single_thread_flips


def test_one_thread_covers_the_session_horizon(comet_machine, monkeypatch):
    """A small budget is stretched to the sessions' one refresh-window
    horizon: change it, and one thread still issues what the plain
    session issues."""
    config = rhohammer_config(nop_count=60, num_banks=3)
    pattern = canonical_compact_pattern()

    def issued(session):
        return session.run_pattern(pattern, 6000, activations=1).acts_issued

    single = HammerSession(machine=comet_machine, config=config)
    threaded = MultiThreadSession(
        machine=comet_machine,
        config=config,
        num_threads=1,
        policy=ThreadPolicy.LOCK_STEP,
    )
    default = issued(single)
    assert issued(threaded) == default
    monkeypatch.setattr(session_module, "MIN_REFRESH_WINDOWS", 3.5)
    longer = issued(single)
    assert longer > default
    assert issued(threaded) == longer


def test_thread_count_validation(comet_machine):
    with pytest.raises(ValueError):
        MultiThreadSession(
            machine=comet_machine,
            config=rhohammer_config(nop_count=60, num_banks=3),
            num_threads=0,
        )

"""Shared-memory state packs for the persistent executor backend.

The parent publishes derived caches (executor memo results, DRAM cell
threshold profiles) into one ``multiprocessing.shared_memory`` segment;
workers attach read-only views and seed their caches from them.  These
tests pin the round trip, the read-only contract, and segment hygiene.
"""

import glob
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import QUICK_SCALE, build_machine, rhohammer_config
from repro.engine.executor import SEGMENT_PREFIX, SharedArrayPack
from repro.engine.executor.sharedmem import (
    adopt_machine_state,
    export_machine_state,
)


def _segments():
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


def test_pack_round_trip_and_read_only_views():
    arrays = {
        "a": np.arange(7, dtype=np.float64),
        "b": np.arange(12, dtype=np.int64).reshape(3, 4),
        "empty": np.empty(0, dtype=np.int8),
    }
    pack = SharedArrayPack.publish(arrays)
    try:
        attached = SharedArrayPack.attach(pack.handle())
        try:
            for name, src in arrays.items():
                got = attached.view(name)
                assert got.dtype == src.dtype
                assert got.shape == src.shape
                assert np.array_equal(got, src)
                with pytest.raises(ValueError):
                    got[...] = 0  # views are read-only
        finally:
            attached.close()
    finally:
        pack.close()
        pack.unlink()
    assert f"/dev/shm/{pack.name}" not in _segments()


def test_unlink_is_idempotent_and_owner_only():
    pack = SharedArrayPack.publish({"x": np.ones(3)})
    attached = SharedArrayPack.attach(pack.handle())
    attached.close()
    attached.unlink()  # non-owner: must be a no-op
    assert f"/dev/shm/{pack.name}" in _segments()
    pack.close()
    pack.unlink()
    pack.unlink()  # second unlink must not raise
    assert f"/dev/shm/{pack.name}" not in _segments()


def test_machine_state_export_adopt_seeds_worker_caches():
    scale = QUICK_SCALE
    config = rhohammer_config(nop_count=60, num_banks=2)
    warm = build_machine("comet_lake", "S3", scale=scale, seed=77)
    # Populate both caches: one kernel execution memoises an
    # ExecutionResult, and hammering a row materialises cell profiles.
    from repro.hammer.session import HammerSession
    from repro.exploit.endtoend import canonical_compact_pattern

    session = HammerSession(warm, config)
    session.run_pattern(
        canonical_compact_pattern(), 5000, activations=scale.acts_per_pattern
    )

    exported = export_machine_state(warm)
    assert exported is not None
    control, pack = exported
    try:
        assert control["executor"] or control["cells"] is not None

        cold = build_machine("comet_lake", "S3", scale=scale, seed=77)
        worker_pack = adopt_machine_state(cold, control)
        assert worker_pack is not None
        try:
            if control["executor"]:
                hits = cold.executor._cache
                assert len(hits) == len(control["executor"])
            if control["cells"] is not None:
                assert len(cold.dimm.cells._cache) == len(control["cells"])
                # Flip counting cached thresholds only, and only they are
                # shipped; a seeded entry completes to the full profile
                # of the warm machine and of a fresh draw alike.
                assert set(pack.handle()["entries"]) >= {"cells.thresholds"}
                assert not {"cells.bits", "cells.dirs"} & set(
                    pack.handle()["entries"]
                )
                fresh = build_machine("comet_lake", "S3", scale=scale, seed=77)
                for bank, row, _, _ in control["cells"][:8]:
                    a = warm.dimm.cells.profile(bank, row)
                    b = cold.dimm.cells.profile(bank, row)
                    c = fresh.dimm.cells.profile(bank, row)
                    for prof in (a, b):
                        assert np.array_equal(prof.thresholds, c.thresholds)
                        assert np.array_equal(prof.bit_indices, c.bit_indices)
                        assert np.array_equal(prof.directions, c.directions)
        finally:
            worker_pack.close()
    finally:
        pack.close()
        pack.unlink()


def test_export_returns_none_for_pristine_machine():
    machine = build_machine("comet_lake", "S3", scale=QUICK_SCALE, seed=78)
    assert export_machine_state(machine) is None


_TWO_POOLS = textwrap.dedent(
    """
    import os

    from repro import QUICK_SCALE, RunBudget, build_machine, rhohammer_config
    from repro.exploit.endtoend import canonical_compact_pattern
    from repro.patterns.sweep import sweep_pattern

    machine = build_machine("comet_lake", "S3", scale=QUICK_SCALE)
    config = rhohammer_config(nop_count=60, num_banks=3)
    for name in ("first", "second"):
        budget = RunBudget(
            max_trials=8, workers=2, backend="persistent", batch_locations=2
        )
        sweep_pattern(
            machine, config, canonical_compact_pattern(), budget,
            QUICK_SCALE, seed_name=name,
        )
    print(os.getpid())
    """
)


def test_consecutive_state_exporting_pools_keep_tracker_quiet():
    """A second pool's workers share the parent's resource tracker.

    From a process's second state-exporting pool on, workers fork with
    the parent's tracker running; a worker that unregistered the segment
    it attached removed the parent's entry, and the parent's unlink then
    made the tracker print a ``KeyError`` traceback.
    """
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", _TWO_POOLS],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "KeyError" not in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    # Every segment the child published (named after its pid) is gone.
    pid = int(proc.stdout.split()[-1])
    assert not glob.glob(f"/dev/shm/{SEGMENT_PREFIX}_{pid}_*")

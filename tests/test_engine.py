"""The deterministic parallel experiment engine (repro.engine).

The engine's contract is strong: for a fixed seed, every backend at any
worker count must be *bit-identical* to :class:`SerialBackend` for every
consumer (fuzzing, sweeping, repeated reverse engineering) — in results
AND in merged metric snapshots — failures of individual tasks must not
take down the batch, and a broken pool must degrade to serial execution
rather than lose results.
"""

import pytest

from repro import QUICK_SCALE, RunBudget, build_machine, rhohammer_config
from repro.common.errors import CalibrationError
from repro.engine import (
    ExperimentSpec,
    PersistentPoolBackend,
    SerialBackend,
    create_backend,
)
from repro.engine.executor import factory as factory_module
from repro.engine.executor import persistent as persistent_module
from repro.engine.executor.base import ExecutorBackend
from repro.exploit.endtoend import canonical_compact_pattern
from repro.hammer.session import HammerSession
from repro.obs import OBS
from repro.patterns.fuzzer import FuzzingCampaign
from repro.patterns.sweep import sweep_pattern
from repro.reveng import repeated_reveng

CONFIG = rhohammer_config(nop_count=60, num_banks=3)


# ----------------------------------------------------------------------
# RunBudget / ExperimentSpec
# ----------------------------------------------------------------------
def test_budget_resolves_hours_capped_and_trials():
    assert RunBudget(hours=1.0).resolve_trials(QUICK_SCALE) == \
        QUICK_SCALE.patterns_for_hours(1.0)
    assert RunBudget(hours=1.0, max_trials=5).resolve_trials(QUICK_SCALE) == 5
    assert RunBudget.trials(7).resolve_trials(QUICK_SCALE) == 7
    assert RunBudget().resolve_trials(QUICK_SCALE, default_hours=2.0) == \
        QUICK_SCALE.patterns_for_hours(2.0)


def test_budget_validates_inputs():
    with pytest.raises(CalibrationError):
        RunBudget(hours=0)
    with pytest.raises(CalibrationError):
        RunBudget(max_trials=0)
    with pytest.raises(CalibrationError):
        RunBudget(workers=0)
    with pytest.raises(CalibrationError):
        RunBudget(backend="threads")
    with pytest.raises(CalibrationError):
        RunBudget(backend="fork")
    with pytest.raises(CalibrationError):
        RunBudget().resolve_trials(QUICK_SCALE)
    for batch_locations in (0, "auto", "off"):
        with pytest.raises(CalibrationError):
            RunBudget(batch_locations=batch_locations)


def test_spec_derives_stable_task_streams(comet_machine):
    spec = ExperimentSpec(comet_machine, CONFIG, QUICK_SCALE, "unit")
    a = spec.rng("rows").spawn("task", 3)
    b = spec.rng("rows").spawn("task", 3)
    assert [s.seed for s in a] == [s.seed for s in b]
    assert len({s.seed for s in a}) == 3


# ----------------------------------------------------------------------
# Backend mechanics
# ----------------------------------------------------------------------
def _square(ctx, task):
    return task * task


def _backends():
    return (SerialBackend(), PersistentPoolBackend(workers=4))


def test_backends_satisfy_protocol_and_order_results():
    tasks = list(range(20))
    expected = [t * t for t in tasks]
    for backend in _backends():
        assert isinstance(backend, ExecutorBackend)
        with backend:
            report = backend.map(_square, tasks)
        assert report.results == expected, backend.name
        assert report.ok and not report.degraded, backend.name
        assert report.backend == backend.name


def _explode_on_two(ctx, task):
    if task == 2:
        raise RuntimeError("injected failure")
    return task


def test_backends_capture_task_errors_and_keep_partial_results():
    for backend in _backends():
        with backend:
            report = backend.map(_explode_on_two, range(5))
        assert report.results == [0, 1, None, 3, 4], backend.name
        assert [err.index for err in report.errors] == [2], backend.name
        assert "RuntimeError" in report.errors[0].detail
        assert any("injected failure" in note for note in report.notes())


def test_persistent_pool_reuses_workers_across_batches():
    with PersistentPoolBackend(workers=3) as backend:
        first = backend.map(_square, range(9))
        pids = backend.worker_pids()
        second = backend.map(_square, range(9, 18))
        assert backend.worker_pids() == pids
    assert first.results == [t * t for t in range(9)]
    assert second.results == [t * t for t in range(9, 18)]


def test_persistent_pool_degrades_when_fork_machinery_breaks(monkeypatch):
    def broken_context(method):
        raise OSError("no fork for you")

    monkeypatch.setattr(
        persistent_module.multiprocessing, "get_context", broken_context
    )
    with PersistentPoolBackend(workers=4) as backend:
        report = backend.map(_square, range(6))
    assert report.degraded
    assert report.results == [t * t for t in range(6)]
    assert any("degraded" in note for note in report.notes())


def test_create_backend_caps_auto_workers_to_host_cpus(monkeypatch):
    monkeypatch.setattr(factory_module, "default_workers", lambda: 1)

    def no_fork(method):  # the cap must route serial before any fork
        raise AssertionError("single-core host must not fork")

    monkeypatch.setattr(
        persistent_module.multiprocessing, "get_context", no_fork
    )
    with create_backend(budget=RunBudget.trials(6, workers=16)) as backend:
        assert isinstance(backend, SerialBackend)
        report = backend.map(_square, range(6))
    assert not report.degraded
    assert report.workers == 1
    assert report.results == [t * t for t in range(6)]


def test_create_backend_honours_explicit_choices(monkeypatch):
    monkeypatch.setattr(factory_module, "default_workers", lambda: 8)
    auto = create_backend(budget=RunBudget.trials(4, workers=4))
    assert isinstance(auto, PersistentPoolBackend)
    auto.close()
    serial = create_backend(
        budget=RunBudget.trials(4, workers=4, backend="serial")
    )
    assert isinstance(serial, SerialBackend)
    with pytest.raises(ValueError):
        create_backend(workers=2, backend="threads")


def test_backend_init_builds_context_once_per_process():
    calls = []

    def init():
        calls.append(1)
        return "ctx"

    def use(ctx, task):
        assert ctx == "ctx"
        return task

    with SerialBackend() as backend:
        report = backend.map(use, range(4), init=init)
    assert report.ok and len(calls) == 1


# ----------------------------------------------------------------------
# Parallel determinism: the acceptance criterion
# ----------------------------------------------------------------------
def _fuzz_report(machine, workers, backend="auto"):
    campaign = FuzzingCampaign(
        machine=machine,
        config=CONFIG,
        scale=QUICK_SCALE,
        trials_per_pattern=1,
        seed_name="det",
    )
    return campaign.execute(
        RunBudget(max_trials=6, workers=workers, backend=backend)
    )


def test_fuzzing_is_bit_identical_across_backends(comet_machine):
    serial = _fuzz_report(comet_machine, workers=1, backend="serial")
    parallel = _fuzz_report(comet_machine, workers=4, backend="persistent")
    assert serial.total_flips == parallel.total_flips
    assert serial.best_pattern_flips == parallel.best_pattern_flips
    assert serial.effective_patterns == parallel.effective_patterns
    assert serial.patterns_tried == parallel.patterns_tried
    assert serial.mean_miss_rate == parallel.mean_miss_rate
    assert serial.notes == parallel.notes == ()
    assert (serial.best_pattern is None) == (parallel.best_pattern is None)
    if serial.best_pattern is not None:
        assert serial.best_pattern.describe() == \
            parallel.best_pattern.describe()
        assert (serial.best_pattern.slots == parallel.best_pattern.slots).all()


def _sweep_report(machine, workers, backend="auto", batch_locations=16):
    return sweep_pattern(
        machine,
        CONFIG,
        canonical_compact_pattern(),
        RunBudget(
            max_trials=8,
            workers=workers,
            backend=backend,
            batch_locations=batch_locations,
        ),
        QUICK_SCALE,
        seed_name="det-sweep",
    )


def test_sweep_is_bit_identical_across_backends(comet_machine):
    serial = _sweep_report(
        comet_machine, workers=1, backend="serial", batch_locations=2
    )
    parallel = _sweep_report(
        comet_machine, workers=4, backend="persistent", batch_locations=2
    )
    assert serial.base_rows == parallel.base_rows
    assert (serial.flips_per_location == parallel.flips_per_location).all()
    assert (serial.virtual_minutes == parallel.virtual_minutes).all()
    assert serial.notes == parallel.notes == ()


def test_repeated_reveng_is_bit_identical_across_backends():
    serial = repeated_reveng(
        "comet_lake", budget=RunBudget.trials(2, workers=1), base_seed=42
    )
    parallel = repeated_reveng(
        "comet_lake",
        budget=RunBudget.trials(2, workers=2, backend="persistent"),
        base_seed=42,
    )
    assert serial.outcomes == parallel.outcomes
    assert serial.all_correct
    assert serial.mean_runtime_seconds == parallel.mean_runtime_seconds


def _no_wall(section):
    """Drop wall-clock, pool-bookkeeping and fleet-health keys; they
    vary by schedule and worker topology."""
    return {
        k: v for k, v in section.items()
        if "wall" not in k
        and not k.startswith("pool.")
        and not k.startswith("health.")
    }


def test_persistent_metric_snapshots_match_serial():
    """The merged OBS snapshot — counters, gauges AND float histogram
    sums — must be bit-identical between serial and the persistent pool
    at every worker count, for fuzzing and sweeping alike (journal replay
    reproduces the exact serial accumulation order, phase-batched hot
    paths flush within task boundaries so chunking never splits a batch,
    and instruments a worker creates at zero still ship).  Every leg
    hammers a fresh machine, so no leg inherits another's warm caches."""

    def sweep(machine, workers, backend):
        _sweep_report(machine, workers, backend, batch_locations=2)

    for run in (_fuzz_report, sweep):
        snapshots = []
        for backend, workers in (
            ("serial", 1), ("persistent", 2), ("persistent", 3)
        ):
            machine = build_machine("comet_lake", "S3", scale=QUICK_SCALE)
            OBS.configure(metrics=True)
            try:
                run(machine, workers=workers, backend=backend)
                snapshots.append(OBS.metrics.snapshot())
            finally:
                OBS.shutdown()
        serial = snapshots[0]
        for parallel in snapshots[1:]:
            for section in ("counters", "gauges", "histograms"):
                assert _no_wall(serial[section]) == \
                    _no_wall(parallel[section])


# ----------------------------------------------------------------------
# Failure injection through a real consumer
# ----------------------------------------------------------------------
def test_sweep_worker_failure_keeps_partial_results(
    fresh_comet, monkeypatch
):
    """Per-location dispatch (chunks of one): only the poisoned location
    is lost."""
    clean = _sweep_report(fresh_comet, workers=1, batch_locations=1)
    poisoned_row = clean.base_rows[2]
    original = HammerSession.run_pattern_batch

    def poisoned(self, pattern, base_rows, *args, **kwargs):
        if poisoned_row in [int(r) for r in base_rows]:
            raise RuntimeError("injected mid-batch failure")
        return original(self, pattern, base_rows, *args, **kwargs)

    monkeypatch.setattr(HammerSession, "run_pattern_batch", poisoned)
    report = _sweep_report(
        fresh_comet, workers=3, backend="persistent", batch_locations=1
    )
    assert report.base_rows == clean.base_rows
    assert report.flips_per_location[2] == 0
    for i in (0, 1, 3, 4, 5, 6, 7):
        assert report.flips_per_location[i] == clean.flips_per_location[i]
    assert any(
        "location 2" in note and "injected" in note for note in report.notes
    )


def test_sweep_chunk_failure_loses_only_that_chunk(
    fresh_comet, monkeypatch
):
    """Batched dispatch: a failing location costs its chunk, no more."""
    clean = _sweep_report(fresh_comet, workers=1, batch_locations=1)
    poisoned_row = clean.base_rows[2]
    original = HammerSession.run_pattern_batch

    def poisoned(self, pattern, base_rows, *args, **kwargs):
        if poisoned_row in [int(r) for r in base_rows]:
            raise RuntimeError("injected mid-chunk failure")
        return original(self, pattern, base_rows, *args, **kwargs)

    monkeypatch.setattr(HammerSession, "run_pattern_batch", poisoned)
    report = _sweep_report(
        fresh_comet, workers=3, backend="persistent", batch_locations=4
    )
    assert report.base_rows == clean.base_rows
    # Locations 0-3 share the poisoned chunk and are all lost ...
    assert (report.flips_per_location[:4] == 0).all()
    # ... while the other chunk's locations survive untouched.
    for i in (4, 5, 6, 7):
        assert report.flips_per_location[i] == clean.flips_per_location[i]
    assert any(
        "chunk 0" in note and "injected" in note for note in report.notes
    )

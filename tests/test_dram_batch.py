"""Batched multi-location hammering: session and backend contracts.

The tentpole claim under test: chunking a sweep's locations through
``HammerSession.run_pattern_batch`` is bit-identical — outcomes, flip
events in emission order, and merged OBS metric snapshots — to the
per-location ``run_pattern`` loop, on every executor backend and worker
count, and a mid-batch worker SIGKILL costs one bounded retry without
perturbing the merged result.
"""

import os
import signal

import numpy as np
import pytest

from repro import (
    QUICK_SCALE,
    RunBudget,
    build_machine,
    rhohammer_config,
    sweep_pattern,
)
from repro.common.errors import ReproError
from repro.cpu import executor as executor_module
from repro.dram import device as device_module
from repro.dram.mitigations import RowRemapper, ScrambledMapping
from repro.engine import ExperimentSpec, PersistentPoolBackend
from repro.exploit.endtoend import canonical_compact_pattern, find_compact_pattern
from repro.hammer import session as session_module
from repro.hammer.barriers import compare_barriers
from repro.hammer.nops import tune_nop_count
from repro.hammer.session import HammerSession
from repro.obs import telemetry_session
from repro.obs.trace import WALL_KEY
from repro.patterns.fuzzer import FuzzingCampaign
from repro.patterns.refine import refine_pattern

#: Includes both device edges: row 65,525 is the top one for the compact
#: pattern's aggressor offsets 0-10, so those windows reach past an edge.
BASE_ROWS = [
    4096, 4288, 9000, 4096 + 64, 30000, 512, 15000, 15001, 0, 65525,
]


def _machine(seed: int = 31):
    return build_machine("comet_lake", "S3", scale=QUICK_SCALE, seed=seed)


def _config():
    return rhohammer_config(nop_count=60, num_banks=3)


def _session(machine):
    return HammerSession(
        machine=machine,
        config=_config(),
        disturbance_gain=QUICK_SCALE.disturbance_gain,
    )


def _outcome_key(outcome):
    return (
        outcome.flips,
        outcome.flip_count,
        outcome.cache_miss_rate,
        outcome.duration_ns,
        outcome.acts_issued,
        outcome.acts_executed,
        outcome.disorder_window,
    )


@pytest.mark.parametrize("collect_events", (False, True))
def test_run_pattern_batch_matches_serial_loop(collect_events):
    """Outcomes — flip events in emission order included — are equal."""
    pattern = canonical_compact_pattern()
    acts = QUICK_SCALE.acts_per_pattern

    session = _session(_machine())
    serial = [
        session.run_pattern(
            pattern, row, activations=acts, collect_events=collect_events
        )
        for row in BASE_ROWS
    ]
    batched = _session(_machine()).run_pattern_batch(
        pattern, BASE_ROWS, activations=acts, collect_events=collect_events
    )
    assert len(batched) == len(serial)
    for ser, bat in zip(serial, batched):
        assert _outcome_key(bat) == _outcome_key(ser)
    assert any(o.flip_count > 0 for o in batched)


def test_run_pattern_batch_metrics_match_serial_loop():
    """The merged OBS metric snapshot is bit-identical too."""
    pattern = canonical_compact_pattern()
    acts = QUICK_SCALE.acts_per_pattern

    with telemetry_session(metrics=True) as obs:
        session = _session(_machine())
        for row in BASE_ROWS:
            session.run_pattern(pattern, row, activations=acts)
        serial_snap = obs.metrics.snapshot()
    with telemetry_session(metrics=True) as obs:
        _session(_machine()).run_pattern_batch(
            pattern, BASE_ROWS, activations=acts
        )
        batched_snap = obs.metrics.snapshot()
    assert batched_snap == serial_snap


def test_run_pattern_batch_metrics_match_serial_loop_without_memo():
    """With the executor memo off one execution serves the whole batch,
    and the stream memo still counts one lookup per row."""
    pattern = canonical_compact_pattern()
    acts = QUICK_SCALE.acts_per_pattern
    rows = BASE_ROWS[:3]

    def run(hammer):
        machine = _machine()
        machine.executor.cache_size = 0
        with telemetry_session(metrics=True) as obs:
            flips = [o.flip_count for o in hammer(_session(machine))]
            return flips, obs.metrics.snapshot()

    serial = run(
        lambda s: [s.run_pattern(pattern, r, activations=acts) for r in rows]
    )
    batched = run(lambda s: s.run_pattern_batch(pattern, rows, activations=acts))
    assert batched == serial
    assert serial[1]["counters"]["hammer.stream_cache.hits"] == 2


def test_run_pattern_batch_fingerprints_each_new_stream_once(monkeypatch):
    """The stream memo fingerprints each expanded stream once and hands
    the fingerprint to every executor lookup: a cold batch hashes its new
    stream once, a warm batch hashes nothing, whatever its row count."""
    hashed = []
    real = executor_module.stream_fingerprint

    def counting(ids):
        hashed.append(ids.size)
        return real(ids)

    monkeypatch.setattr(executor_module, "stream_fingerprint", counting)
    monkeypatch.setattr(session_module, "stream_fingerprint", counting)
    pattern = canonical_compact_pattern()
    acts = QUICK_SCALE.acts_per_pattern
    rows = BASE_ROWS[:4]
    session = _session(_machine())
    executor = session.machine.executor

    session.run_pattern_batch(pattern, rows, activations=acts)
    assert len(hashed) == 1
    assert (executor.cache_hits, executor.cache_misses) == (3, 1)
    session.run_pattern_batch(pattern, rows, activations=acts)
    assert len(hashed) == 1
    assert (executor.cache_hits, executor.cache_misses) == (7, 1)
    # Twice the budget expands to a longer, new stream: one more digest.
    session.run_pattern_batch(pattern, rows[:2], activations=2 * acts)
    assert len(hashed) == 2 and hashed[1] > hashed[0]
    assert (executor.cache_hits, executor.cache_misses) == (8, 2)


def _replay_step(machine, rows, acts, gain, detail, scrambled):
    """One ``run_pattern_batch`` call: outcomes, metric snapshot and
    trace records (wall times dropped), telemetry off if ``detail`` is
    None.  The stream and executor memos are warmed first, so every
    lookup of the call is a hit."""
    combined, _, fingerprint = _session(machine).prepare_stream(
        canonical_compact_pattern(), acts
    )
    machine.executor.execute(combined, _config(), fingerprint)
    machine.controller.remapper = (
        ScrambledMapping(geometry=machine.dimm.spec.geometry, boot_key=0xBEEF)
        if scrambled
        else RowRemapper()
    )
    session = _session(machine)
    session.disturbance_gain = gain
    pattern = canonical_compact_pattern()
    if detail is None:
        outcomes = session.run_pattern_batch(pattern, rows, activations=acts)
        return [_outcome_key(o) for o in outcomes], None, None
    with telemetry_session(
        trace_memory=True, trace_detail=detail, metrics=True
    ) as obs:
        outcomes = session.run_pattern_batch(pattern, rows, activations=acts)
        snapshot = obs.metrics.snapshot()
        records = [
            {k: v for k, v in event.items() if k != WALL_KEY}
            for event in obs.tracer.memory_events
        ]
    return [_outcome_key(o) for o in outcomes], snapshot, records


def test_replayed_streams_match_fresh_machines(monkeypatch):
    """The memory controller replays a stream's bank split and plan
    exactly when it may.  Each step runs on one machine after the steps
    before it, and on a fresh machine: outcomes, metric snapshots and
    trace records (``dram.window`` points included) are equal, while the
    first machine plans only the banks listed."""
    acts = QUICK_SCALE.acts_per_pattern
    gain = QUICK_SCALE.disturbance_gain
    steps = [
        # rows, activation budget, gain, trace detail, scrambled, planned
        (BASE_ROWS[:4], acts, gain, None, False, 3),
        (BASE_ROWS[4:8], acts, gain, None, False, 0),
        (BASE_ROWS[1:5], acts, 2 * gain, None, False, 0),
        # Planned once more: the sampler tallies were not kept.
        (BASE_ROWS[6:], acts, gain, "phase", False, 3),
        (BASE_ROWS[:3], acts, gain, "phase", False, 0),
        (BASE_ROWS[3:6], acts, gain, "window", False, 0),
        (BASE_ROWS[:2], 2 * acts, gain, "phase", False, 3),
        # A remapper plans every location and leaves the slot alone.
        (BASE_ROWS[2:5], 2 * acts, gain, "phase", True, 9),
        (BASE_ROWS[5:8], 2 * acts, gain, "phase", False, 0),
        (BASE_ROWS[:3], acts, gain, None, False, 3),
    ]
    planned = []
    real = device_module._BankPlan

    class Counting(real):
        def __init__(self, *args, **kwargs):
            planned.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(device_module, "_BankPlan", Counting)
    machine = _machine()
    for rows, budget, step_gain, detail, scrambled, banks in steps:
        step = (rows, budget, step_gain, detail, scrambled)
        want = _replay_step(_machine(), *step)
        planned.clear()
        got = _replay_step(machine, *step)
        assert len(planned) == banks, (rows, detail)
        assert got == want, (rows, detail)
    assert any(o[1] for o in got[0])


def test_run_pattern_batch_trivial_inputs():
    pattern = canonical_compact_pattern()
    acts = QUICK_SCALE.acts_per_pattern
    assert _session(_machine()).run_pattern_batch(
        pattern, [], activations=acts
    ) == []
    single = _session(_machine()).run_pattern_batch(
        pattern, [4096], activations=acts
    )
    lone = _session(_machine()).run_pattern(pattern, 4096, acts)
    assert len(single) == 1
    assert _outcome_key(single[0]) == _outcome_key(lone)


@pytest.mark.parametrize("off_row", (-5000, 65546))
@pytest.mark.parametrize(
    "position", (0, 1, 2), ids=("first", "middle", "last")
)
def test_run_pattern_batch_rejects_off_device_rows(position, off_row):
    """An off-device row raises wherever it sits in the batch, also behind
    a remapper that would fold it back onto the device."""
    machine = _machine()
    machine.controller.remapper = ScrambledMapping(
        geometry=machine.dimm.spec.geometry, boot_key=0xBEEF
    )
    rows = [4096, 9000, 30000]
    rows[position] = off_row
    with pytest.raises(ReproError):
        _session(machine).run_pattern_batch(
            canonical_compact_pattern(), rows,
            activations=QUICK_SCALE.acts_per_pattern,
        )


def _run_fuzzer(machine):
    report = FuzzingCampaign(
        machine=machine, config=_config(), scale=QUICK_SCALE
    ).execute(RunBudget.trials(2, backend="serial"))
    return (
        report.total_flips,
        report.best_pattern_flips,
        report.best_pattern.describe() if report.best_pattern else None,
        report.effective_patterns,
        report.mean_miss_rate,
        report.notes,
    )


def _run_refine(machine):
    result = refine_pattern(
        machine, _config(), canonical_compact_pattern(), QUICK_SCALE,
        max_rounds=1, neighbours_per_round=3,
    )
    return (
        result.seed_flips,
        result.best_flips,
        result.best_pattern.slots.tolist(),
        result.rounds,
        result.evaluations,
    )


def _run_nops(machine):
    return tune_nop_count(
        machine, _config(), canonical_compact_pattern(), [5000, 21000],
        QUICK_SCALE.acts_per_pattern, nop_grid=(0, 60, 220),
        scale=QUICK_SCALE,
    )


def _run_barriers(machine):
    return compare_barriers(
        machine, canonical_compact_pattern(), [4096, 9000],
        QUICK_SCALE.acts_per_pattern, nop_count=60, num_banks=3,
        scale=QUICK_SCALE,
    )


def _run_compact(machine):
    pattern, flips = find_compact_pattern(
        machine, _config(), QUICK_SCALE, tries=5
    )
    return (pattern.slots.tolist() if pattern else None), flips


@pytest.mark.parametrize(
    "caller",
    (_run_fuzzer, _run_refine, _run_nops, _run_barriers, _run_compact),
    ids=("fuzzer", "refine", "nops", "barriers", "compact"),
)
def test_callers_match_per_row_loop(caller, monkeypatch):
    """Every caller of ``run_pattern_batch`` gets the result and merged
    metric snapshot a loop of one-row ``run_pattern`` calls gives."""
    with telemetry_session(metrics=True) as obs:
        batched = caller(_machine())
        batched_snap = _simulation_metrics(obs.metrics.snapshot())

    def per_row(self, pattern, base_rows, *args, **kwargs):
        return [
            self.run_pattern(pattern, row, *args, **kwargs)
            for row in base_rows
        ]

    monkeypatch.setattr(HammerSession, "run_pattern_batch", per_row)
    with telemetry_session(metrics=True) as obs:
        looped = caller(_machine())
        looped_snap = _simulation_metrics(obs.metrics.snapshot())
    assert batched == looped
    assert batched_snap == looped_snap


def _sweep(batch_locations, workers=1, backend="serial", seed=31):
    report = sweep_pattern(
        _machine(seed),
        _config(),
        canonical_compact_pattern(),
        RunBudget.trials(
            8,
            workers=workers,
            backend=backend,
            batch_locations=batch_locations,
        ),
        scale=QUICK_SCALE,
    )
    return report


BACKENDS = ("serial", "persistent")


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_sweep_bit_identical_across_backends(backend, workers):
    baseline = _sweep(1)
    batched = _sweep(4, workers=workers, backend=backend)
    assert batched.base_rows == baseline.base_rows
    assert (batched.flips_per_location == baseline.flips_per_location).all()
    assert (batched.virtual_minutes == baseline.virtual_minutes).all()


def _simulation_metrics(snapshot):
    """Strip executor-infrastructure instruments before comparing.

    Batching intentionally changes pool task granularity (``pool.*``) and
    pool/host health accounting (``health.*``) measures nondeterministic
    wall time; every *simulation* instrument — ``dram.*``, ``hammer.*``,
    ``sweep.*``, ``cpu.*`` — must stay bit-identical.
    """
    return {
        section: {
            key: value
            for key, value in values.items()
            if not key.startswith(("pool.", "health."))
        }
        for section, values in snapshot.items()
    }


@pytest.mark.parametrize(
    "workers,backend", ((1, "serial"), (2, "persistent"))
)
def test_batched_sweep_metrics_match_unbatched(workers, backend):
    """Chunked dispatch leaves the merged simulation telemetry unchanged."""
    with telemetry_session(metrics=True) as obs:
        _sweep(1, workers=workers, backend=backend)
        unbatched_snap = _simulation_metrics(obs.metrics.snapshot())
    with telemetry_session(metrics=True) as obs:
        _sweep(4, workers=workers, backend=backend)
        batched_snap = _simulation_metrics(obs.metrics.snapshot())
    assert unbatched_snap["counters"]["hammer.dispatches"] == 8
    assert batched_snap == unbatched_snap


def test_batched_chunk_survives_worker_sigkill(tmp_path):
    """A worker SIGKILLed mid-chunk costs one retry, not the results.

    Reuses the failure-injection harness: the first worker that picks up
    the poisoned chunk dies; the pool respawns and replays it, and the
    batched flip counts stay bit-identical to an undisturbed serial run.
    """
    pattern = canonical_compact_pattern()
    acts = QUICK_SCALE.acts_per_pattern
    chunks = [tuple(BASE_ROWS[i:i + 2]) for i in range(0, len(BASE_ROWS), 2)]

    serial_session = _session(_machine())
    expected = [
        [
            o.flip_count
            for o in serial_session.run_pattern_batch(
                pattern, rows, activations=acts
            )
        ]
        for rows in chunks
    ]

    flag = tmp_path / "crashed-once"

    def run_chunk(session, rows):
        if rows == chunks[1] and not flag.exists():
            flag.write_text("x")
            os.kill(os.getpid(), signal.SIGKILL)
        outcomes = session.run_pattern_batch(pattern, rows, activations=acts)
        return [o.flip_count for o in outcomes]

    spec = ExperimentSpec(
        machine=_machine(), config=_config(), scale=QUICK_SCALE
    )
    with PersistentPoolBackend(workers=3, chunk_size=1) as backend:
        report = backend.map(run_chunk, chunks, init=spec.session)
        pids = backend.worker_pids()
    assert report.results == expected
    assert report.errors == []
    assert report.retries >= 1
    assert not report.degraded
    for pid in pids:
        stat = f"/proc/{pid}/stat"
        if os.path.exists(stat):
            with open(stat) as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
            assert state != "Z", f"worker {pid} left as a zombie"

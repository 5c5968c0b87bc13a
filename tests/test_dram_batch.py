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
from repro.engine import ExperimentSpec, PersistentPoolBackend
from repro.exploit.endtoend import canonical_compact_pattern
from repro.hammer.session import HammerSession
from repro.obs import telemetry_session

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
    baseline = _sweep("off")
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
    """Chunked dispatch leaves the merged simulation telemetry unchanged.

    Compared at matching worker counts: how worker merging treats
    per-process cache gauges and zero-valued counters is a (pre-existing)
    property of the pool, not of batching.
    """
    with telemetry_session(metrics=True) as obs:
        _sweep("off", workers=workers, backend=backend)
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

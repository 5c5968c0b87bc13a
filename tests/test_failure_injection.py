"""Failure injection: the attack stack must degrade loudly, not wrongly.

Each test breaks one environmental assumption (noisy timer, undersized
pool, dropped privileges, hostile measurement conditions) and checks that
the affected stage either raises its documented error or reports the
failure — never silently returns a wrong mapping or phantom flips.
"""

import pytest

from repro import build_machine
from repro.common.errors import RevEngFailure
from repro.dram.timing import AccessLatency
from repro.reveng import RhoHammerRevEng, TimingOracle, compare_mappings
from repro.reveng.threshold import find_sbdr_threshold
from repro.reveng.validation import cross_validate


def test_hopeless_noise_fails_threshold_detection():
    """With noise drowning the SBDR gap, Step 0 must refuse to proceed."""
    machine = build_machine("comet_lake", "S3", seed=616)
    drowned = AccessLatency(noise_sigma=80.0)
    oracle = TimingOracle.allocate(machine, fraction=0.3, latency=drowned)
    with pytest.raises(RevEngFailure):
        find_sbdr_threshold(oracle, num_pairs=1200)


def test_moderate_noise_still_recovers_or_fails_detectably():
    """Tripled noise: the averaging protocol should still succeed; if it
    does not, cross-validation must flag the recovered mapping."""
    machine = build_machine("comet_lake", "S3", seed=617)
    noisy = AccessLatency(noise_sigma=27.0)
    oracle = TimingOracle.allocate(machine, fraction=0.4, latency=noisy)
    result = RhoHammerRevEng(oracle, collect_heatmap=False).run()
    score = compare_mappings(result.mapping, machine.mapping)
    if not score.fully_correct:
        report = cross_validate(result.mapping, oracle, probes=64,
                                seed_name="noisy-validate")
        assert not report.validated
    else:
        assert score.fully_correct


def test_dropped_privileges_block_pagemap():
    machine = build_machine("raptor_lake", "S3", seed=618)
    space = machine.pagemap.allocate_pool(0.1)
    machine.pagemap.drop_privileges()
    with pytest.raises(PermissionError):
        machine.pagemap.read(space, space.va_of_page(0))


def test_tiny_pool_cannot_find_high_bit_partners():
    """A pool too small to cover the address space makes high-bit pairs
    unfindable; the oracle reports it instead of fabricating timings."""
    machine = build_machine("comet_lake", "S2", seed=619)
    oracle = TimingOracle.allocate(machine, fraction=0.002)
    top_bit = machine.memory.phys_bits - 1
    with pytest.raises(RevEngFailure):
        # With 0.2 % coverage the partner-present probability per draw is
        # ~0.2 %, well under the retry budget's break-even point.
        for _ in range(5):
            oracle.sample_pairs((top_bit,), count=32)


def test_outlier_storm_does_not_create_phantom_bank_functions():
    """Heavy refresh-interference outliers inflate some measurements; the
    16x50 averaging protocol must keep verdicts stable enough that no
    spurious function appears."""
    machine = build_machine("raptor_lake", "S3", seed=620)
    stormy = AccessLatency(outlier_prob=0.05)
    oracle = TimingOracle.allocate(machine, fraction=0.4, latency=stormy)
    result = RhoHammerRevEng(oracle, collect_heatmap=False).run()
    score = compare_mappings(result.mapping, machine.mapping)
    assert score.spurious_functions == ()


# ----------------------------------------------------------------------
# Worker-pool crash robustness (persistent executor backend)
# ----------------------------------------------------------------------
import os
import signal
import subprocess
import sys
import textwrap

from repro.engine import PersistentPoolBackend, SerialBackend


def _assert_reaped(pids):
    """No worker may survive as a live process or an unreaped zombie."""
    for pid in pids:
        stat = f"/proc/{pid}/stat"
        if os.path.exists(stat):
            with open(stat) as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
            assert state == "Z" or not os.path.exists(stat), (
                f"worker {pid} still alive in state {state}"
            )
            assert state != "Z", f"worker {pid} left as a zombie"


def test_worker_sigkill_once_is_retried_and_completes(tmp_path):
    """A worker dying mid-batch costs one bounded retry, not the batch."""
    flag = tmp_path / "crashed-once"

    def crash_once(ctx, task):
        if task == 5 and not flag.exists():
            flag.write_text("x")
            os.kill(os.getpid(), signal.SIGKILL)
        return task * 10

    with PersistentPoolBackend(workers=3, chunk_size=2) as backend:
        report = backend.map(crash_once, range(12))
        pids = backend.worker_pids()
    assert report.results == [t * 10 for t in range(12)]
    assert report.errors == []
    assert report.retries >= 1
    assert not report.degraded
    _assert_reaped(pids)


def test_worker_sigkill_always_degrades_to_serial(tmp_path):
    """A chunk that kills every worker it lands on exhausts its retry
    budget; the pool stops feeding and the parent finishes serially."""
    parent = os.getpid()

    def crash_always(ctx, task):
        if task == 5 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return task * 10

    with PersistentPoolBackend(workers=3, chunk_size=2) as backend:
        report = backend.map(crash_always, range(12))
        pids = backend.worker_pids()
    assert report.results == [t * 10 for t in range(12)]
    assert report.degraded
    assert any("degraded" in note for note in report.notes())
    _assert_reaped(pids)


def test_worker_sigkill_keeps_trace_file_uncorrupted(tmp_path):
    """A worker SIGKILL mid-batch must not corrupt the buffered trace.

    Spans are buffered and written as whole-line chunks by the parent
    only, so the file must stay *strictly* parseable, every opened span
    must close, and the batch plus all replayed task spans must be
    present — a crash can cost at most one unflushed buffer, and pool
    teardown flushes that buffer before this test reads the file.
    """
    from repro.obs import telemetry_session
    from repro.obs.trace import read_trace

    flag = tmp_path / "crashed-once"
    trace_path = tmp_path / "trace.jsonl"

    def crash_once(ctx, task):
        if task == 5 and not flag.exists():
            flag.write_text("x")
            os.kill(os.getpid(), signal.SIGKILL)
        return task * 10

    with telemetry_session(trace_path=str(trace_path)):
        with PersistentPoolBackend(workers=3, chunk_size=2) as backend:
            report = backend.map(crash_once, range(12))
    assert report.results == [t * 10 for t in range(12)]
    assert report.retries >= 1
    records = list(read_trace(trace_path))  # strict: no torn lines
    begins = sorted(r["id"] for r in records if r.get("ph") == "B")
    ends = sorted(r["id"] for r in records if r.get("ph") == "E")
    assert begins == ends  # every opened span closed
    names = [r.get("name") for r in records]
    assert "pool.batch" in names
    assert names.count("pool.task") == 12  # one replayed span per task


def test_worker_sigkill_emits_health_events_and_keeps_determinism(tmp_path):
    """A SIGKILLed worker must surface as structured fleet telemetry —
    a ``worker_death`` health event plus a ``chunk_retry`` — while the
    merged result stays bit-identical to an undisturbed serial run."""
    from repro.obs import OBS, telemetry_session
    from repro.obs.trace import read_trace

    with SerialBackend() as backend:
        serial = backend.map(lambda ctx, task: task * 10, range(12))

    flag = tmp_path / "crashed-once"
    trace_path = tmp_path / "trace.jsonl"

    def crash_once(ctx, task):
        if task == 5 and not flag.exists():
            flag.write_text("x")
            os.kill(os.getpid(), signal.SIGKILL)
        return task * 10

    with telemetry_session(trace_path=str(trace_path), metrics=True) as obs:
        with PersistentPoolBackend(workers=3, chunk_size=2) as backend:
            report = backend.map(crash_once, range(12))
        counters = obs.metrics.snapshot()["counters"]
    assert report.results == serial.results
    assert report.retries >= 1 and not report.degraded

    events = [
        (r.get("wall") or {}).get("kind")
        for r in read_trace(trace_path)
        if r.get("ev") == "health"
    ]
    assert events.count("worker_spawn") >= 3  # 3 initial + respawn(s)
    assert "worker_death" in events
    assert "chunk_retry" in events
    assert counters["health.worker_death"] >= 1
    assert counters["health.chunk_retry"] >= 1
    assert counters["health.worker_spawn"] >= 3
    assert not OBS.enabled


def test_raising_task_is_captured_not_fatal():
    def explode(ctx, task):
        if task == 3:
            raise ValueError("poisoned task")
        return task

    with PersistentPoolBackend(workers=2, chunk_size=2) as backend:
        report = backend.map(explode, range(6))
    assert report.results == [0, 1, 2, None, 4, 5]
    assert [err.index for err in report.errors] == [3]
    assert "ValueError" in report.errors[0].detail
    assert not report.degraded


def test_interrupt_mid_batch_tears_down_pool():
    """KeyboardInterrupt while a batch is in flight must still reap every
    worker."""
    def interrupting_progress(done, total):
        if done >= 2:
            raise KeyboardInterrupt

    def slow(ctx, task):
        return task

    backend = PersistentPoolBackend(
        workers=3, chunk_size=1, progress=interrupting_progress
    )
    with pytest.raises(KeyboardInterrupt):
        backend.map(slow, range(30))
    pids = backend.worker_pids()
    assert pids == []  # close() already ran via the BaseException guard


_TWO_POOLS = textwrap.dedent(
    """
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
    """
)


def test_consecutive_pooled_sweeps_exit_cleanly():
    """Two pooled sweeps on one machine in one process.

    The second pool forks from a parent whose caches the first sweep
    warmed; the process must still exit 0 and print no traceback, from
    the workers or at interpreter exit.
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
    assert "Traceback" not in proc.stderr, proc.stderr

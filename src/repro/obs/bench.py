"""The unified benchmark suite behind ``rhohammer bench`` / ``bench_all.py``.

Runs every subsystem the repo makes perf promises about — the parallel
engine, the telemetry layer, fuzzing, reverse engineering, and the
end-to-end exploit — and writes one schema'd ``BENCH_all.json``.  A
committed baseline (``benchmarks/baselines/BENCH_all.json``) turns that
file into a regression gate: ``--check`` compares the fresh run against
the baseline and exits nonzero on regressions beyond threshold.

Two kinds of numbers, gated differently:

* ``checks`` — deterministic outcomes (flip counts, probe volume,
  virtual seconds, bit-identical parallelism).  For a fixed seed these
  are host-independent, so they are gated tightly (default ±5%) on every
  CI run.
* ``timings`` — wall-clock seconds.  Host-dependent, therefore
  **informational by default**; pass ``--wall-threshold`` to gate them
  on a machine you trust (only slowdowns fail, speedups never do).

Run:  PYTHONPATH=src python scripts/bench_all.py [--quick] [--check]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform as _platform
import time
from typing import Any, Callable

from repro import (
    BENCH_SCALE,
    QUICK_SCALE,
    FuzzingCampaign,
    RhoHammerRevEng,
    RunBudget,
    TimingOracle,
    build_machine,
)
from repro.dram.equivalence import (
    cross_check,
    reference_twin,
    synthetic_workload,
    vector_twin,
)
from repro.engine import default_workers
from repro.exploit import EndToEndAttack
from repro.exploit.endtoend import canonical_compact_pattern
from repro.hammer.nops import tuned_config_for
from repro.obs import OBS, telemetry_session
from repro.obs.manifest import git_describe
from repro.reveng import compare_mappings

SCHEMA = "rhohammer-bench-all/v1"
TRAJECTORY_SCHEMA = "rhohammer-bench-trajectory/v1"

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_RESULTS = _REPO_ROOT / "benchmarks" / "results" / "BENCH_all.json"
DEFAULT_BASELINE = _REPO_ROOT / "benchmarks" / "baselines" / "BENCH_all.json"
#: The repo-root perf trajectory (``scripts/bench_all.py`` appends here;
#: plain ``rhohammer bench`` leaves it alone unless ``--trajectory``).
DEFAULT_TRAJECTORY = _REPO_ROOT / "BENCH_trajectory.json"

#: Default relative tolerance on deterministic ``checks``.
DEFAULT_REL_THRESHOLD = 0.05

#: Telemetry perf budgets, surfaced as boolean ``checks`` by ``bench_obs``
#: so ``--check`` gates them against the committed baseline.
OVERHEAD_BUDGET = 0.05
GUARD_BUDGET_NS = 10.0
#: Enabled-path budget for the fleet health sampler: a traced run with
#: ``--health`` may cost at most 2% more CPU than the same traced run
#: without it.
HEALTH_OVERHEAD_BUDGET = 0.02
#: Sampling interval the health leg runs at — deliberately aggressive
#: (20 Hz) so the gated cost bounds any realistic operator setting.
HEALTH_BENCH_INTERVAL_S = 0.05

#: Interleaved disabled/enabled repeats; ``bench_obs`` takes each leg's
#: best-of-N (scheduler contention only ever adds time, so the minima
#: converge on the uncontended cost a shared CI host can't otherwise
#: show).  After OBS_REPEATS base rounds, bench_obs keeps adding
#: rounds up to OBS_MAX_REPEATS while the measured overhead still
#: exceeds budget: extra rounds can only sharpen the minima, so a
#: contention artifact (one leg never landed a clean slot) dissolves
#: while a genuine regression still fails at the cap.
OBS_REPEATS = 7
OBS_MAX_REPEATS = 15


def _suite_params(suite: str) -> dict[str, Any]:
    if suite == "quick":
        return {
            "scale": QUICK_SCALE,
            "scale_name": "QUICK",
            "fuzz_patterns": 6,
            "engine_patterns": 16,
            "workers": 4,
            "reveng_fraction": 0.4,
            "dram_acts": 90_000,
            "dram_banks": 2,
        }
    return {
        "scale": BENCH_SCALE,
        "scale_name": "BENCH",
        "fuzz_patterns": 24,
        "engine_patterns": 24,
        "workers": 4,
        "reveng_fraction": 0.5,
        "dram_acts": 150_000,
        "dram_banks": 4,
    }


# ----------------------------------------------------------------------
# Individual benches: each returns {"checks": {...}, "timings": {...}}
# ----------------------------------------------------------------------
def _timed_fuzz(params, patterns: int, workers: int, seed_name: str,
                backend: str = "auto"):
    machine = build_machine(
        "raptor_lake", "S3", scale=params["scale"], seed=606
    )
    campaign = FuzzingCampaign(
        machine=machine,
        config=tuned_config_for("raptor_lake"),
        scale=params["scale"],
        trials_per_pattern=1,
        seed_name=seed_name,
    )
    start = time.perf_counter()
    report = campaign.execute(
        RunBudget(max_trials=patterns, workers=workers, backend=backend)
    )
    return time.perf_counter() - start, report


def bench_engine(params) -> dict[str, Any]:
    """Serial vs persistent-pool fuzzing: bit-identical, speedup gated.

    The parallel leg always forces the persistent backend — even on a
    single-core host — so ``bit_identical`` exercises the worker-pool
    delta/merge path everywhere.  The ``meets_speedup_floor`` gate is
    only demanding where it can be: on hosts with >= 2 cores the pool
    must hit 0.75x of its ideal linear speedup; on one core the floor
    is 0 (the check still records the measured speedup in timings).
    """
    patterns, workers = params["engine_patterns"], params["workers"]
    cores = default_workers()
    pool_workers = 2 if cores == 1 else min(workers, cores)
    serial_s, serial = _timed_fuzz(params, patterns, 1, "bench-all-engine")
    parallel_s, parallel = _timed_fuzz(
        params, patterns, pool_workers, "bench-all-engine",
        backend="persistent",
    )
    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    floor = 0.75 * min(workers, cores) if cores >= 2 else 0.0
    return {
        "checks": {
            "total_flips": serial.total_flips,
            "effective_patterns": serial.effective_patterns,
            "best_pattern_flips": serial.best_pattern_flips,
            "bit_identical": bool(
                serial.total_flips == parallel.total_flips
                and serial.best_pattern_flips == parallel.best_pattern_flips
                and serial.effective_patterns == parallel.effective_patterns
            ),
            "meets_speedup_floor": bool(speedup >= floor),
        },
        "timings": {
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "pool_workers": pool_workers,
            "speedup_floor": round(floor, 3),
            "speedup": round(speedup, 3) if parallel_s > 0 else None,
        },
    }


def _median_of(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _guard_ns(repeats: int = 5, iterations: int = 1_000_000) -> float:
    """Marginal cost of one disabled ``if obs.enabled:`` check, in ns.

    Measured differentially: an N-iteration loop around the guard minus
    an identical empty loop, so loop bookkeeping (range iteration, the
    back-jump) is subtracted out and only the attribute check itself is
    billed — that is the cost an instrumented call site actually adds.
    Median of ``repeats`` interleaved passes, clamped at zero (on a
    noisy host the difference can dip below the timer floor).
    """
    obs = OBS
    samples: list[float] = []
    for _ in range(repeats):
        hits = 0
        start = time.perf_counter()
        for _ in range(iterations):
            if obs.enabled:
                hits += 1
        guarded = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(iterations):
            pass
        bare = time.perf_counter() - start
        assert hits == 0
        samples.append((guarded - bare) / iterations * 1e9)
    return max(0.0, _median_of(samples))


def bench_obs(params) -> dict[str, Any]:
    """Telemetry overhead: disabled vs metrics-enabled, plus guard cost.

    The fuzz workload runs per-leg rounds, interleaved (disabled then
    enabled each round), timed in **process CPU time**, and overhead
    compares each leg's **best-of-N**.  Both choices target the same
    enemy — scheduler contention on a shared host: wall-clock
    per-round ratios swing ±15% while the true overhead is ~2%,
    but time slices spent preempted never bill to ``process_time``,
    and what contention residue remains (cache pollution, thermal) is
    strictly additive, so the minima converge on the uncontended cost
    (single-shot wall ratios have recorded negative overheads; even
    wall medians drown in sustained contention).  :data:`OBS_REPEATS`
    base rounds run always; while the overhead still exceeds
    :data:`OVERHEAD_BUDGET`, more rounds are added up to
    :data:`OBS_MAX_REPEATS` — the adaptive tail only ever *lowers* the
    minima, so it dissolves measurement artifacts without letting a
    genuine regression pass.  The clamped overhead and the
    differential guard cost are then judged against the budgets; the
    verdicts are booleans in ``checks`` so every ``--check`` run gates
    them against the committed baseline.
    """
    assert not OBS.enabled, "telemetry must start disabled"
    patterns = params["fuzz_patterns"]
    disabled_times: list[float] = []
    enabled_times: list[float] = []
    disabled = enabled = None
    overhead: float | None = None
    while True:
        cpu0 = time.process_time()
        _, disabled = _timed_fuzz(params, patterns, 1, "bench-all-obs")
        disabled_times.append(time.process_time() - cpu0)
        with telemetry_session(metrics=True):
            cpu0 = time.process_time()
            _, enabled = _timed_fuzz(
                params, patterns, 1, "bench-all-obs"
            )
            enabled_times.append(time.process_time() - cpu0)
        if len(disabled_times) < OBS_REPEATS:
            continue
        disabled_s = min(disabled_times)
        enabled_s = min(enabled_times)
        overhead = (
            max(0.0, enabled_s / disabled_s - 1.0)
            if disabled_s > 0 else None
        )
        if overhead is not None and overhead <= OVERHEAD_BUDGET:
            break
        if len(disabled_times) >= OBS_MAX_REPEATS:
            break
    guard_ns = _guard_ns()

    # Fleet health sampler enabled-path cost (PR 8): the same fuzz
    # workload traced to memory with and without --health-style resource
    # sampling, interleaved best-of-N exactly like the metrics legs.
    trace_times: list[float] = []
    health_times: list[float] = []
    traced = sampled = None
    health_overhead: float | None = None
    while True:
        with telemetry_session(trace_memory=True):
            cpu0 = time.process_time()
            _, traced = _timed_fuzz(params, patterns, 1, "bench-all-obs")
            trace_times.append(time.process_time() - cpu0)
        with telemetry_session(
            trace_memory=True, health_s=HEALTH_BENCH_INTERVAL_S
        ):
            cpu0 = time.process_time()
            _, sampled = _timed_fuzz(params, patterns, 1, "bench-all-obs")
            health_times.append(time.process_time() - cpu0)
        if len(trace_times) < OBS_REPEATS:
            continue
        trace_s = min(trace_times)
        health_leg_s = min(health_times)
        health_overhead = (
            max(0.0, health_leg_s / trace_s - 1.0) if trace_s > 0 else None
        )
        if (
            health_overhead is not None
            and health_overhead <= HEALTH_OVERHEAD_BUDGET
        ):
            break
        if len(trace_times) >= OBS_MAX_REPEATS:
            break
    return {
        "checks": {
            "total_flips": disabled.total_flips,
            "telemetry_neutral": bool(
                disabled.total_flips == enabled.total_flips
            ),
            "health_neutral": bool(
                traced.total_flips == sampled.total_flips
            ),
            "meets_overhead_budget": bool(
                overhead is not None and overhead <= OVERHEAD_BUDGET
            ),
            "meets_health_budget": bool(
                health_overhead is not None
                and health_overhead <= HEALTH_OVERHEAD_BUDGET
            ),
            "guard_within_budget": bool(guard_ns <= GUARD_BUDGET_NS),
        },
        "timings": {
            "repeats": len(disabled_times),
            "disabled_s": round(disabled_s, 3),
            "metrics_s": round(enabled_s, 3),
            "metrics_overhead": round(overhead, 4)
            if overhead is not None
            else None,
            "health_repeats": len(trace_times),
            "trace_s": round(trace_s, 3),
            "trace_health_s": round(health_leg_s, 3),
            "health_overhead": round(health_overhead, 4)
            if health_overhead is not None
            else None,
            "guard_ns": round(guard_ns, 2),
        },
    }


def bench_fuzz(params) -> dict[str, Any]:
    """The tuned fuzzing workload itself (Table 6's engine)."""
    wall_s, report = _timed_fuzz(
        params, params["fuzz_patterns"], 1, "bench-all-fuzz"
    )
    return {
        "checks": {
            "total_flips": report.total_flips,
            "effective_patterns": report.effective_patterns,
            "best_pattern_flips": report.best_pattern_flips,
            "mean_miss_rate": round(report.mean_miss_rate, 6),
        },
        "timings": {"wall_s": round(wall_s, 3)},
    }


def bench_reveng(params) -> dict[str, Any]:
    """Algorithm 1 mapping recovery: probe volume and virtual runtime."""
    machine = build_machine(
        "raptor_lake", "S3", scale=params["scale"], seed=606
    )
    oracle = TimingOracle.allocate(
        machine, fraction=params["reveng_fraction"]
    )
    start = time.perf_counter()
    result = RhoHammerRevEng(oracle, collect_heatmap=False).run()
    wall_s = time.perf_counter() - start
    score = compare_mappings(result.mapping, machine.mapping)
    return {
        "checks": {
            "fully_correct": bool(score.fully_correct),
            "measurements": result.measurements,
            "virtual_s": round(result.runtime_seconds, 6),
        },
        "timings": {"wall_s": round(wall_s, 3)},
    }


def bench_exploit(params) -> dict[str, Any]:
    """The end-to-end PTE-corruption attack on the default target."""
    machine = build_machine(
        "raptor_lake", "S3", scale=params["scale"], seed=606
    )
    attack = EndToEndAttack(
        machine=machine,
        config=tuned_config_for("raptor_lake"),
        pattern=canonical_compact_pattern(),
        scale=params["scale"],
    )
    start = time.perf_counter()
    outcome = attack.run()
    wall_s = time.perf_counter() - start
    return {
        "checks": {
            "succeeded": bool(outcome.succeeded),
            "total_flips": outcome.total_flips,
            "exploitable_flips": outcome.exploitable_flips,
            "virtual_s": round(outcome.total_seconds, 6),
        },
        "timings": {"wall_s": round(wall_s, 3)},
    }


def bench_dram(params) -> dict[str, Any]:
    """Vectorised DRAM hammer loop vs the sequential reference path.

    The cold first run on each fresh twin doubles as the bit-identity
    check (flips, TRR refreshes *and* OBS metric snapshots, via
    :func:`~repro.dram.equivalence.cross_check`).  The timed runs then
    repeat the identical workload on the now-warm twins — cell profiles
    are deterministic and cached, so the second pass isolates the hammer
    loop itself, which is the code the vectorisation targets (in sweeps
    and fuzzing the profile cache is warm for the same reason).
    """
    machine = build_machine(
        "raptor_lake", "S3", scale=params["scale"], seed=606
    )
    dimm = machine.dimm
    gain = params["scale"].disturbance_gain
    # The region is sized so every touched row's cell profile fits the
    # LRU cache at once: the timed warm runs then measure the hammer
    # loop, not (deterministic, path-independent) profile generation.
    workload = synthetic_workload(
        dimm,
        acts_per_bank=params["dram_acts"],
        banks=params["dram_banks"],
        seed=606,
        kind="mixed",
        region_rows=1024,
        act_spacing_ns=3.0,
    )
    check = cross_check(dimm, workload, disturbance_gain=gain)

    # Timed runs use collect_events=False — the fuzzing hot
    # configuration — so both sides time flip *counting*, not event
    # materialisation.
    def best_of(device, repeats: int = 3):
        best, result = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            result = device.hammer(
                workload, collect_events=False, disturbance_gain=gain
            )
            best = min(best, time.perf_counter() - start)
        return best, result

    vec, ref = vector_twin(dimm), reference_twin(dimm)
    vec_warm = vec.hammer(workload, disturbance_gain=gain)  # warm caches
    ref_warm = ref.hammer(workload, disturbance_gain=gain)
    vectorised_s, vec_result = best_of(vec)
    reference_s, ref_result = best_of(ref)
    repeat_stable = bool(
        vec_result.flip_count
        == ref_result.flip_count
        == vec_warm.flip_count
        == ref_warm.flip_count
        == check.batched.locations[0].flip_count
    )
    return {
        "checks": {
            "total_flips": vec_result.flip_count,
            "trr_refreshes": vec_result.trr_refreshes,
            "acts_executed": vec_result.acts_executed,
            "bit_identical_to_reference": check.identical,
            "repeat_stable": repeat_stable,
        },
        "timings": {
            "vectorised_s": round(vectorised_s, 4),
            "reference_s": round(reference_s, 4),
            "speedup": round(reference_s / vectorised_s, 2)
            if vectorised_s > 0
            else None,
        },
    }


#: The batched multi-location pass must beat the per-location loop by at
#: least this factor on the bench workload (same process, warm caches).
BATCH_SPEEDUP_FLOOR = 3.0
#: Locations per batched pass in the ``dram_batch`` leg — the
#: ``batch_locations="auto"`` production chunk size.
BATCH_BENCH_LOCATIONS = 16


def bench_dram_batch(params) -> dict[str, Any]:
    """Batched multi-location hammering vs the per-location loop.

    The tentpole workload of a sweep chunk: one pattern hammered at
    :data:`BATCH_BENCH_LOCATIONS` base rows, once through
    ``HammerSession.run_pattern_batch`` (a single vectorised interval
    pass per bank) and once through the equivalent ``run_pattern`` loop.
    Both sides run in this process on fresh machines, take one warm-up
    pass (stream memo, executor memo, cell profiles — warm in any real
    sweep) and then the best of three timed passes.  Bit-identity of the
    per-location flip counts is a ``check``, and so is clearing
    :data:`BATCH_SPEEDUP_FLOOR`.
    """
    from repro.hammer.session import HammerSession

    scale = params["scale"]

    def fresh_session():
        machine = build_machine(
            "raptor_lake", "S3", scale=scale, seed=606
        )
        return HammerSession(
            machine=machine,
            config=tuned_config_for("raptor_lake"),
            disturbance_gain=scale.disturbance_gain,
        )

    pattern = canonical_compact_pattern()
    acts = scale.acts_per_pattern
    rows = [4096 + 192 * i for i in range(BATCH_BENCH_LOCATIONS)]

    serial_session = fresh_session()

    def serial_pass():
        return [
            serial_session.run_pattern(pattern, row, activations=acts)
            for row in rows
        ]

    batch_session = fresh_session()

    def batched_pass():
        return batch_session.run_pattern_batch(
            pattern, rows, activations=acts
        )

    def best_of(fn, repeats: int = 3):
        best, result = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return best, result

    serial_warm = serial_pass()
    batched_warm = batched_pass()
    serial_s, serial_out = best_of(serial_pass)
    batched_s, batched_out = best_of(batched_pass)
    serial_flips = [o.flip_count for o in serial_out]
    batched_flips = [o.flip_count for o in batched_out]
    speedup = serial_s / batched_s if batched_s > 0 else 0.0
    return {
        "checks": {
            "total_flips": sum(batched_flips),
            "locations": len(rows),
            "bit_identical": bool(serial_flips == batched_flips),
            "repeat_stable": bool(
                batched_flips == [o.flip_count for o in batched_warm]
                and serial_flips == [o.flip_count for o in serial_warm]
            ),
            "meets_batch_speedup": bool(speedup >= BATCH_SPEEDUP_FLOOR),
        },
        "timings": {
            "serial_s": round(serial_s, 4),
            "batched_s": round(batched_s, 4),
            "speedup": round(speedup, 2) if batched_s > 0 else None,
            "speedup_floor": BATCH_SPEEDUP_FLOOR,
        },
    }


BENCHES: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
    "dram": bench_dram,
    "dram_batch": bench_dram_batch,
    "engine": bench_engine,
    "obs": bench_obs,
    "fuzz": bench_fuzz,
    "reveng": bench_reveng,
    "exploit": bench_exploit,
}


# ----------------------------------------------------------------------
# Suite runner and regression gate
# ----------------------------------------------------------------------
def run_suite(
    suite: str = "quick",
    only: list[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run the (sub)suite and return the ``BENCH_all.json`` payload."""
    params = _suite_params(suite)
    names = list(only) if only else list(BENCHES)
    unknown = [n for n in names if n not in BENCHES]
    if unknown:
        raise ValueError(f"unknown bench(es): {', '.join(unknown)}")
    benches: dict[str, Any] = {}
    for name in names:
        if progress is not None:
            progress(name)
        benches[name] = BENCHES[name](params)
    return {
        "schema": SCHEMA,
        "suite": suite,
        "scale": params["scale_name"],
        "git": git_describe(),
        "benches": benches,
        "wall": {
            "python": _platform.python_version(),
            "host": _platform.node(),
            "cpu_count": default_workers(),
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
    }


def check_payload(
    current: dict[str, Any],
    baseline: dict[str, Any],
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    wall_threshold: float | None = None,
) -> list[str]:
    """Regression failures of ``current`` against ``baseline`` (empty = ok)."""
    failures: list[str] = []
    if baseline.get("schema") != SCHEMA:
        failures.append(
            f"baseline schema {baseline.get('schema')!r} != {SCHEMA!r}"
        )
        return failures
    if baseline.get("suite") != current.get("suite"):
        failures.append(
            f"suite mismatch: baseline {baseline.get('suite')!r} vs "
            f"current {current.get('suite')!r} — rerun with the matching "
            "--suite"
        )
        return failures
    for name, base in baseline.get("benches", {}).items():
        cur = current.get("benches", {}).get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        for key, base_v in base.get("checks", {}).items():
            cur_v = cur.get("checks", {}).get(key)
            label = f"{name}.checks.{key}"
            if isinstance(base_v, bool) or base_v is None:
                if cur_v != base_v:
                    failures.append(f"{label}: {base_v!r} -> {cur_v!r}")
            elif not isinstance(cur_v, (int, float)):
                failures.append(f"{label}: {base_v!r} -> {cur_v!r}")
            else:
                if base_v == 0:
                    ok = cur_v == 0
                else:
                    ok = abs(cur_v - base_v) / abs(base_v) <= rel_threshold
                if not ok:
                    failures.append(
                        f"{label}: {base_v} -> {cur_v} "
                        f"(beyond ±{rel_threshold:.0%})"
                    )
        if wall_threshold is None:
            continue
        for key, base_v in base.get("timings", {}).items():
            cur_v = cur.get("timings", {}).get(key)
            if not isinstance(base_v, (int, float)) or not isinstance(
                cur_v, (int, float)
            ):
                continue
            # Only slowdowns regress; _s keys are seconds, bigger = worse.
            if key.endswith("_s") and base_v > 0:
                if (cur_v - base_v) / base_v > wall_threshold:
                    failures.append(
                        f"{name}.timings.{key}: {base_v}s -> {cur_v}s "
                        f"(slower than +{wall_threshold:.0%})"
                    )
    return failures


# ----------------------------------------------------------------------
# Cross-PR perf trajectory (repo-root BENCH_trajectory.json)
# ----------------------------------------------------------------------
def trajectory_entry(payload: dict[str, Any]) -> dict[str, Any]:
    """One compact per-run summary line: identity + headline timings."""
    timings: dict[str, Any] = {}
    for name, bench in payload.get("benches", {}).items():
        for key, value in bench.get("timings", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                timings[f"{name}.{key}"] = value
    wall = payload.get("wall", {})
    return {
        "git": payload.get("git"),
        "recorded": wall.get("recorded"),
        "suite": payload.get("suite"),
        "scale": payload.get("scale"),
        "host": wall.get("host"),
        "timings": timings,
    }


def append_trajectory(
    payload: dict[str, Any], path: str | os.PathLike[str]
) -> dict[str, Any]:
    """Append one run's summary to the trajectory file; returns the entry.

    The file is valid JSON but formatted one entry per line, so each
    bench run is one added line in a diff and the perf trajectory across
    PRs reads straight off ``git log -p BENCH_trajectory.json``.  An
    unreadable or foreign-schema file is restarted rather than corrupted
    further (the old content only mattered if it matched the schema).
    """
    p = pathlib.Path(path)
    entries: list[dict[str, Any]] = []
    if p.is_file():
        try:
            loaded = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            loaded = None
        if (
            isinstance(loaded, dict)
            and loaded.get("schema") == TRAJECTORY_SCHEMA
            and isinstance(loaded.get("entries"), list)
        ):
            entries = [e for e in loaded["entries"] if isinstance(e, dict)]
    entry = trajectory_entry(payload)
    entries.append(entry)
    lines = ["{", f'  "schema": {json.dumps(TRAJECTORY_SCHEMA)},', '  "entries": [']
    for i, e in enumerate(entries):
        comma = "," if i < len(entries) - 1 else ""
        lines.append("    " + json.dumps(e, separators=(", ", ": ")) + comma)
    lines += ["  ]", "}", ""]
    p.write_text("\n".join(lines), encoding="utf-8")
    return entry


# ----------------------------------------------------------------------
# Shared argparse surface (scripts/bench_all.py and `rhohammer bench`)
# ----------------------------------------------------------------------
def add_bench_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--suite", choices=("quick", "full"), default="full",
        help="workload size (full: BENCH scale; quick: QUICK scale for CI)",
    )
    parser.add_argument(
        "--quick", action="store_const", dest="suite", const="quick",
        help="shorthand for --suite quick",
    )
    parser.add_argument(
        "--only", action="append", metavar="BENCH", default=None,
        help=f"run a subset (choices: {', '.join(BENCHES)})",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=str(DEFAULT_RESULTS),
        help="where to write BENCH_all.json",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="gate the run against the committed baseline (nonzero exit "
             "on regression)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=str(DEFAULT_BASELINE),
        help="baseline BENCH_all.json to gate against",
    )
    parser.add_argument(
        "--rel-threshold", type=float, default=DEFAULT_REL_THRESHOLD,
        help="relative tolerance on deterministic checks (default 0.05)",
    )
    parser.add_argument(
        "--wall-threshold", type=float, default=None, metavar="FRAC",
        help="also gate wall timings at +FRAC slowdown (off by default: "
             "wall clocks are host-dependent)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the payload as JSON instead of the summary",
    )
    parser.add_argument(
        "--registry", metavar="PATH", default=None,
        help="run registry database to record the suite into (default: "
             "registry.sqlite next to the results file; 'none' disables; "
             "the RHOHAMMER_REGISTRY env var overrides the default)",
    )
    parser.add_argument(
        "--trajectory", metavar="PATH", default=None,
        help="append a one-line summary entry to this trajectory JSON "
             "(default: off; scripts/bench_all.py targets the repo-root "
             "BENCH_trajectory.json; 'none' disables explicitly)",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Execute the suite per parsed args; the shared CLI/script body."""
    payload = run_suite(
        suite=args.suite,
        only=args.only,
        progress=None if args.json else lambda name: print(f"bench: {name} ..."),
    )
    out_path = pathlib.Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    registry_note = _record_into_registry(payload, args.registry, out_path)
    trajectory = getattr(args, "trajectory", None)
    if trajectory and trajectory.lower() != "none":
        append_trajectory(payload, trajectory)
        registry_note.append(f"trajectory: appended entry to {trajectory}")

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for name, bench in payload["benches"].items():
            checks = " ".join(
                f"{k}={v}" for k, v in bench["checks"].items()
            )
            timings = " ".join(
                f"{k}={v}" for k, v in bench["timings"].items()
            )
            print(f"  {name:<8} {checks}")
            print(f"  {'':<8} {timings}")
        print(f"wrote {out_path}")
        for note in registry_note:
            print(note)

    if not args.check:
        return 0
    baseline_path = pathlib.Path(args.baseline)
    if not baseline_path.is_file():
        print(f"error: no baseline at {baseline_path} — run the suite and "
              f"commit its output there to seed the gate")
        return 2
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    failures = check_payload(
        payload,
        baseline,
        rel_threshold=args.rel_threshold,
        wall_threshold=args.wall_threshold,
    )
    if failures:
        print(f"bench gate FAILED against {baseline_path}:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"bench gate ok against {baseline_path} "
          f"(±{args.rel_threshold:.0%} on checks)")
    return 0


def _record_into_registry(
    payload: dict[str, Any],
    registry_arg: str | None,
    out_path: pathlib.Path,
) -> list[str]:
    """Record the suite into the run registry; never fails the bench.

    Returns human-readable notes for the summary output.  Resolution:
    an explicit ``--registry`` wins (``none`` disables), else the shared
    :func:`~repro.obs.registry.default_registry_path` rules apply with
    the results file's directory as the anchor.
    """
    from repro.obs.registry import RunRegistry, default_registry_path

    if registry_arg is not None:
        registry_arg = registry_arg.strip()
        if not registry_arg or registry_arg.lower() == "none":
            return []
        db_path = registry_arg
    else:
        db_path = default_registry_path(out_path)
    if db_path is None:
        return []
    try:
        with RunRegistry(db_path) as registry:
            run_id = registry.record_bench(payload)
    except Exception as exc:  # registry trouble must not fail the bench
        return [f"warning: could not record into registry {db_path}: {exc}"]
    return [f"registry: recorded run #{run_id} into {db_path}"]


def legacy_main(
    bench: str,
    results_path: str | os.PathLike[str],
    argv: list[str] | None = None,
) -> int:
    """Body of the superseded single-bench scripts (bench_engine/bench_obs).

    Runs exactly one bench of the unified suite at full scale and writes
    its payload to the script's historical output path, so pre-existing
    tooling keeps finding a file there while the implementation cannot
    drift from ``rhohammer bench`` anymore.
    """
    parser = argparse.ArgumentParser(
        description=f"[deprecated] single-bench wrapper for '{bench}'"
    )
    parser.add_argument(
        "--suite", choices=("quick", "full"), default="full",
        help="workload size (default: full)",
    )
    parser.add_argument("--quick", action="store_const", dest="suite",
                        const="quick", help="shorthand for --suite quick")
    args = parser.parse_args(argv)

    print(
        f"note: this script is superseded by "
        f"'PYTHONPATH=src python scripts/bench_all.py --only {bench}' "
        f"(or 'rhohammer bench --only {bench}') and now delegates to it"
    )
    payload = run_suite(
        suite=args.suite,
        only=[bench],
        progress=lambda name: print(f"bench: {name} ..."),
    )
    result = payload["benches"][bench]
    if bench == "obs" and "guard_ns" in result.get("timings", {}):
        # The historical BENCH_obs.json schema named this key
        # guard_ns_per_check; keep the alias in the legacy file so
        # tooling reading the old path still finds it.  The canonical
        # key everywhere else (BENCH_all.json, registry samples) is
        # guard_ns.
        result["timings"]["guard_ns_per_check"] = (
            result["timings"]["guard_ns"]
        )
    out = pathlib.Path(results_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    for section in ("checks", "timings"):
        line = " ".join(f"{k}={v}" for k, v in result[section].items())
        print(f"  {section}: {line}")
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    add_bench_args(parser)
    return run_from_args(parser.parse_args(argv))

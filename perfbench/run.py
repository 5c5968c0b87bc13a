#!/usr/bin/env python3
"""Paper-workload benchmark: end-to-end rates and a per-layer traced split.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 36 --trace 0

``--trace 0`` times identical rounds of the workload (each on freshly built
machines) with nothing instrumented and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics.  Every round's simulated outputs are checked; the last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  See ``perfbench/README.md``.

``--record`` (re)writes the stored expectations of ``--seed`` instead.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time

# No bytecode is written into the checkout, so every set-up sample
# compiles repro from source, as every run on a host without .pyc does.
sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 1

#: A run times at least this many rounds, however long they take.
MIN_ROUNDS = 3

#: Host-speed unit: the wall seconds :func:`reference_sample` takes on a
#: 2-vCPU Xeon VM in a steady stretch.  End-to-end times and rates are
#: reported at this speed (see README, "Host-speed reference").
REFERENCE_NOMINAL_S = 0.33

#: Standard-library modules (~28.5k lines) whose source the reference
#: compiles: fixed work that runs no program code.
_REFERENCE_MODULES = (
    "argparse", "ast", "configparser", "dataclasses", "email.message",
    "http.client", "inspect", "json.decoder", "logging", "pathlib",
    "subprocess", "tarfile", "typing", "zipfile",
)
#: Fresh-interpreter set-up samples per untraced run, spread over it.
MIN_SETUP_SAMPLES = 7

END_TO_END = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.build_s": "s",
    "patterns.calls": "count",
    "patterns.self_s": "s",
    "engine.tasks": "count",
    "engine.self_s": "s",
    "engine.worker_busy_frac": "ratio",
    "engine.retries": "count",
    "engine.task_errors": "count",
    "hammer.calls": "count",
    "hammer.self_s": "s",
    "cpu.calls": "count",
    "cpu.self_s": "s",
    "cpu.memo_hit_ratio": "ratio",
    "memctrl.calls": "count",
    "memctrl.self_s": "s",
    "dram.remap.calls": "count",
    "dram.remap.self_s": "s",
    "dram.calls": "count",
    "dram.locations": "count",
    "dram.batched_frac": "ratio",
    "dram.intervals": "count",
    "dram.acts": "count",
    "dram.acts_per_s": "1/s",
    "dram.window_span_mean": "rows",
    "dram.self_s": "s",
    "dram.us_per_interval": "us",
    "dram.trr.calls": "count",
    "dram.trr.self_s": "s",
    "dram.cells.calls": "count",
    "dram.cells.victims": "count",
    "dram.cells.materialised": "count",
    "dram.cells.evictions": "count",
    "dram.cells.self_s": "s",
    "other.self_s": "s",
    "trace.overhead": "ratio",
}

#: Work counters that repeat exactly for a seed; any run where they differ
#: between rounds or from the stored values is flagged as incorrect.
DETERMINISTIC = (
    "patterns.calls", "engine.tasks", "hammer.calls", "cpu.calls",
    "cpu.memo_hit_ratio", "memctrl.calls", "dram.remap.calls", "dram.calls",
    "dram.locations", "dram.batched_frac", "dram.intervals", "dram.acts",
    "dram.window_span_mean", "dram.trr.calls", "dram.cells.calls",
    "dram.cells.victims", "dram.cells.materialised",
)

_TASK_ERROR = re.compile(r"^(pattern|location|chunk) (\d+) failed: ")


# -- host diagnostics ------------------------------------------------------
def host_snapshot() -> dict:
    with open("/proc/stat") as fh:
        cpu = fh.readline().split()  # cpu user nice system idle ... steal
    return {
        "loadavg": os.getloadavg()[0],
        "steal_s": int(cpu[8]) / os.sysconf("SC_CLK_TCK"),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _vm_hwm_kb(pid: int | str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class WorkerRss:
    """Peak RSS of the pool workers this process forks, sampled from /proc.

    Forked workers share this process's command line, which tells them apart
    from the set-up probes and the shared-memory resource tracker.  Every
    50 ms is well inside a worker's life (a whole round).
    """

    INTERVAL_S = 0.05

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.pid = os.getpid()
        with open("/proc/self/cmdline", "rb") as fh:
            self.cmdline = fh.read()
        self.peaks_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "WorkerRss":
        if self.enabled:
            self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        if self.enabled:
            self._stop.set()
            self._thread.join()

    @property
    def total_kb(self) -> int:
        return sum(self.peaks_kb.values())

    def _loop(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self._sample()

    def _sample(self) -> None:
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
                if ppid != self.pid:
                    continue
                with open(f"/proc/{entry}/cmdline", "rb") as fh:
                    if fh.read() != self.cmdline:
                        continue
                hwm = _vm_hwm_kb(entry)
            except (OSError, ValueError, IndexError):
                continue  # exited between listing and reading
            pid = int(entry)
            self.peaks_kb[pid] = max(self.peaks_kb.get(pid, 0), hwm)


def reference_sample() -> float:
    """Wall seconds of a fresh interpreter doing fixed, program-free work.

    Like a set-up sample (interpreter start, NumPy import, compiling
    ~28.5k lines of source) but on standard-library source, so a change to
    the program never moves it while host speed moves it as it moves the
    workloads.
    """
    code = (
        "import importlib, inspect, numpy\n"
        f"for name in {_REFERENCE_MODULES!r}:\n"
        "    module = importlib.import_module(name)\n"
        "    compile(inspect.getsource(module), module.__file__, 'exec')\n"
        "print('ready', flush=True)\n"
    )
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-B", "-c", code],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"reference probe failed (exit {proc.returncode})")
    return ready - start


# -- set-up samples --------------------------------------------------------
def setup_sample(workload: str, seed: int) -> dict:
    """Wall seconds of a fresh interpreter until the entry point is ready."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-B", os.path.join(HERE, "probe.py"),
               "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return {"total_s": ready - start, **json.loads(line[len("ready "):])}


# -- outputs ---------------------------------------------------------------
def digest(outputs: list[dict]) -> str:
    blob = json.dumps(outputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _minute_steps(minutes: list[float]) -> list[float]:
    return [b - a for a, b in zip([0.0] + minutes[:-1], minutes)]


def failed_trials(name: str, outputs: list[dict], reference: list[dict],
                  trials: int, chunk: int) -> int:
    """Trials of one round that raised or whose outputs differ.

    Fuzzing reports are aggregates, so a report that differs fails all of
    its trials; sweep locations are checked one by one (flips and the
    location's step on the virtual-minute axis).
    """
    if len(outputs) != len(reference):
        return trials
    if name == "sweep":
        out, ref = outputs[0], reference[0]
        flips, minutes = out["flips_per_location"], out["virtual_minutes"]
        if len(flips) != len(ref["flips_per_location"]):
            return trials
        bad = {
            i for i, (a, b, c, d) in enumerate(zip(
                flips, ref["flips_per_location"],
                _minute_steps(minutes), _minute_steps(ref["virtual_minutes"]),
            ))
            if a != b or c != d
        }
        for note in out["notes"]:
            match = _TASK_ERROR.match(note)
            if match:
                first = int(match.group(2)) * (
                    chunk if match.group(1) == "chunk" else 1)
                width = chunk if match.group(1) == "chunk" else 1
                bad.update(range(first, min(first + width, trials)))
        return len(bad)
    per_report = trials // len(outputs)
    failed = 0
    for out, ref in zip(outputs, reference):
        if out != ref:
            failed += per_report
        else:
            failed += sum(1 for n in out["notes"] if _TASK_ERROR.match(n))
    return failed


def load_expected() -> dict:
    if not os.path.exists(EXPECTED_PATH):
        return {}
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


class Checker:
    """Checks each round's outputs against the stored or first outputs."""

    def __init__(self, workload, stored: dict | None) -> None:
        self.workload = workload
        self.reference = stored["outputs"] if stored else None
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []

    def check(self, rnd, reports) -> None:
        outputs = self.workload.outputs(reports)
        if self.reference is None:
            self.reference = outputs
        self.attempted += rnd.trials
        self.failed += failed_trials(self.workload.name, outputs,
                                     self.reference, rnd.trials, rnd.chunk)
        self.digests.append(digest(outputs))


# -- the untraced run ------------------------------------------------------
def run_untraced(workload, seed: int, seconds: float, stored: dict | None):
    host0 = host_snapshot()
    checker = Checker(workload, stored)
    samples: list[dict] = []
    references: list[float] = []

    def sample_host() -> None:
        samples.append(setup_sample(workload.name, seed))
        references.append(reference_sample())

    sample_host()
    times: list[float] = []
    worker_kb: list[int] = []
    per_gap = 1
    while True:
        rnd = workload.build(seed)
        with WorkerRss(enabled=workload.pooled) as rss:
            start = time.perf_counter()
            reports = rnd.run()
            elapsed = time.perf_counter() - start
        times.append(elapsed)
        worker_kb.append(rss.total_kb)
        checker.check(rnd, reports)
        if len(times) == 1:
            expected_rounds = max(MIN_ROUNDS, round(seconds / elapsed))
            per_gap = -(-(MIN_SETUP_SAMPLES - 1) // expected_rounds)
        for _ in range(per_gap):
            sample_host()
        timed = sum(times)
        if len(times) >= MIN_ROUNDS and timed + elapsed / 2 >= seconds:
            break
    while len(samples) < MIN_SETUP_SAMPLES:
        sample_host()
    host1 = host_snapshot()

    # Host slowness relative to the nominal speed (> 1 on a slow host).
    slowness = statistics.median(references) / REFERENCE_NOMINAL_S
    round_s = statistics.median(times)
    setup = [s["total_s"] for s in samples]
    parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "trials_per_s": rnd.trials / round_s * slowness,
        "setup_s": statistics.median(setup) / slowness,
        "peak_rss_mb": (parent_kb + max(worker_kb)) * 1024 / 1e6,
    }
    q1, med, q3 = quartiles(setup)
    r1, rmed, r3 = quartiles(references)
    print(f"# rounds: {len(times)} x {rnd.trials} trials, wall seconds "
          + " ".join(f"{t:.3f}" for t in times)
          + f"; median {rnd.trials / round_s:.4g} trials/s")
    print(f"# setup samples: n={len(setup)} median={med:.3f} "
          f"q1={q1:.3f} q3={q3:.3f} wall s (import median "
          f"{statistics.median(s['import_s'] for s in samples):.3f} s)")
    print(f"# host reference: n={len(references)} median={rmed:.3f} "
          f"q1={r1:.3f} q3={r3:.3f} s; slowness x{slowness:.3f} "
          f"against {REFERENCE_NOMINAL_S} s")
    print(f"# peak RSS: parent {parent_kb / 1024:.1f} MiB, "
          f"worker peaks/round {[round(k / 1024, 1) for k in worker_kb]} MiB")
    print(f"# host: loadavg {host0['loadavg']:.2f} -> {host1['loadavg']:.2f}, "
          f"steal +{host1['steal_s'] - host0['steal_s']:.2f} s")
    return metrics, checker


# -- the traced run --------------------------------------------------------
def layer_metrics(roll: dict) -> dict:
    """Per-layer metrics of one traced round from its span roll-up."""
    calls, self_s, counters = roll["calls"], roll["self_s"], roll["counters"]
    dram = counters.get("dram", {})
    cpu = counters.get("cpu", {})
    cells = counters.get("dram.cells", {})
    engine = counters.get("engine", {})
    intervals = dram.get("intervals", 0)
    locations = dram.get("locations", 0)
    lookups = cpu.get("hits", 0) + cpu.get("misses", 0)
    out: dict[str, float] = {}
    for layer in ("patterns", "engine", "hammer", "cpu", "memctrl",
                  "dram.remap", "dram", "dram.trr", "dram.cells"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out.update({
        "engine.tasks": engine.get("tasks", 0),
        "engine.worker_busy_frac": (
            roll["worker_busy_s"] / roll["worker_capacity_s"]
            if roll["worker_capacity_s"] else 0.0),
        "engine.retries": engine.get("retries", 0),
        "engine.task_errors": engine.get("task_errors", 0),
        "cpu.memo_hit_ratio": cpu.get("hits", 0) / lookups if lookups else 0.0,
        "dram.locations": locations,
        "dram.batched_frac": (
            dram.get("batched", 0) / locations if locations else 0.0),
        "dram.intervals": intervals,
        "dram.acts": dram.get("acts", 0),
        "dram.window_span_mean": (
            dram.get("span_cells", 0) / intervals if intervals else 0.0),
        "dram.us_per_interval": (
            (out["dram.self_s"] + out["dram.trr.self_s"]) * 1e6 / intervals
            if intervals else 0.0),
        "dram.cells.victims": cells.get("victims", 0),
        "dram.cells.materialised": cells.get("materialised", 0),
        "dram.cells.evictions": cells.get("evictions", 0),
        "other.self_s": roll["other_s"],
    })
    return out


def write_trace(path: str, spans: list[tuple]) -> None:
    """Gzipped JSON lines: a header naming the fields, then one span a line."""
    fields = ["id", "parent", "pid", "layer", "name", "start", "end", "self",
              "trial", "counters"]
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps({"fields": fields}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def traced_round(workload, seed: int):
    """One traced round: (round, reports, seconds, spans, roll-up)."""
    import tracer as tracing

    rnd = workload.build(seed)
    spill_dir = os.path.join(OUT_DIR, "spill")
    os.makedirs(spill_dir, exist_ok=True)
    tracer = tracing.Tracer(workload.trial_unit, spill_dir)
    tracer.collect_workers()  # drop spill files an interrupted run left
    tracing.install(tracer)
    try:
        start = time.perf_counter()
        reports = rnd.run()
        elapsed = time.perf_counter() - start
    finally:
        tracing.uninstall()
    spans = tracer.spans + tracer.collect_workers()
    return rnd, reports, elapsed, spans, tracing.rollup(
        spans, tracer.parent_pid, elapsed)


def run_traced(workload, seed: int, seconds: float, stored: dict | None):
    problems: list[str] = []
    checker = Checker(workload, stored)
    samples = [setup_sample(workload.name, seed)]
    untraced: list[float] = []
    traced: list[float] = []
    per_round: list[dict] = []
    all_spans: list[tuple] = []
    while True:
        rnd = workload.build(seed)
        start = time.perf_counter()
        reports = rnd.run()
        untraced.append(time.perf_counter() - start)
        checker.check(rnd, reports)
        rnd, reports, elapsed, spans, roll = traced_round(workload, seed)
        traced.append(elapsed)
        checker.check(rnd, reports)
        per_round.append(layer_metrics(roll))
        all_spans.extend(spans)
        samples.append(setup_sample(workload.name, seed))
        if sum(untraced) + sum(traced) >= seconds:
            break
    if len(set(checker.digests)) != 1:
        problems.append("traced and untraced outputs differ")

    first = per_round[0]
    counts = {k: first[k] for k in DETERMINISTIC}
    for other in per_round[1:]:
        moved = [k for k in DETERMINISTIC if other[k] != first[k]]
        if moved:
            problems.append(f"counters moved between rounds: {moved}")
    if stored and stored.get("counters"):
        moved = [k for k in DETERMINISTIC
                 if counts[k] != stored["counters"].get(k)]
        if moved:
            problems.append(f"counters differ from stored: {moved}")

    metrics = {
        name: statistics.median(r[name] for r in per_round)
        for name in per_round[0]
    }
    metrics["setup.import_s"] = statistics.median(
        s["import_s"] for s in samples)
    metrics["setup.build_s"] = statistics.median(s["build_s"] for s in samples)
    metrics["trace.overhead"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0)
    metrics["dram.acts_per_s"] = (
        first["dram.acts"] / statistics.median(untraced))

    path = os.path.join(OUT_DIR, f"trace-{workload.name}.jsonl.gz")
    write_trace(path, all_spans)
    print("# rounds: untraced " + " ".join(f"{t:.3f}" for t in untraced)
          + " s, traced " + " ".join(f"{t:.3f}" for t in traced) + " s")
    print(f"# spans: {len(all_spans)} written to "
          f"{os.path.relpath(path, ROOT)}")
    busy = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    print("# layers: " + ", ".join(
        f"{k[:-7]} {100 * v / busy:.1f}%"
        for k, v in metrics.items() if k.endswith(".self_s") and v > 0)
        + " of summed self time")
    return metrics, checker, problems, counts


# -- recording -------------------------------------------------------------
def record(workload, seed: int) -> int:
    """Store one round's outputs and work counters as expectations."""
    rnd = workload.build(seed)
    outputs = workload.outputs(rnd.run())
    _, reports, _, _, roll = traced_round(workload, seed)
    if workload.outputs(reports) != outputs:
        print("error: traced outputs differ from untraced", file=sys.stderr)
        return 1
    counters = layer_metrics(roll)
    expected = load_expected()
    expected.setdefault(workload.name, {})[str(seed)] = {
        "outputs": outputs,
        "counters": {k: counters[k] for k in DETERMINISTIC},
    }
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {workload.name} seed {seed}: digest {digest(outputs)}")
    return 0


def _import_program() -> None:
    """Import repro from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: repro imported from {repro.__file__}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outputs as expectations")
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.record:
            return record(workload, args.seed)
        stored = load_expected().get(workload.name, {}).get(str(args.seed))
        reference = "stored" if stored else "none (first round is reference)"
        print(f"# workload {workload.name}, seed {args.seed}, "
              f"trace {args.trace}, expectations {reference}")
        if args.trace:
            metrics, checker, problems, counts = run_traced(
                workload, args.seed, args.seconds, stored)
            names = PER_LAYER
            print("# counters: " + json.dumps(counts, sort_keys=True))
        else:
            metrics, checker = run_untraced(
                workload, args.seed, args.seconds, stored)
            names = END_TO_END
            problems = []
    finally:
        _stop_resource_tracker()
    print(f"# output digest: {checker.digests[0]}")
    for problem in problems:
        print(f"# FLAGGED: {problem}")
    result = {
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in names.items()
        },
    }
    print(json.dumps(result))
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory tracker a pooled round started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())

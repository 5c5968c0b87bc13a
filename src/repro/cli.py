"""Command-line interface for the rhoHammer reproduction.

Installed as the ``rhohammer`` console script::

    rhohammer reveng   --platform raptor_lake --dimm S3
    rhohammer fuzz     --platform comet_lake --dimm S4 --patterns 20
    rhohammer sweep    --platform raptor_lake --locations 20 --workers 4
    rhohammer exploit  --platform alder_lake
    rhohammer tune     --platform raptor_lake
    rhohammer emit     --platform raptor_lake --format asm
    rhohammer campaign --platform raptor_lake --workers 4
    rhohammer inspect  trace.jsonl

Every subcommand builds the simulated machine, runs the corresponding
pipeline at the quick simulation scale (override with ``--scale``), and
prints a human-readable report.  ``fuzz``, ``sweep`` and ``campaign``
accept ``--workers N`` to fan independent trials out over the
:mod:`repro.engine` pool; reported numbers are bit-identical to serial.

Observability (see ``docs/OBSERVABILITY.md``): ``--trace PATH`` streams
nested phase spans as JSONL, ``--metrics-out PATH`` writes the run
manifest with the final metric snapshot, ``--out DIR`` writes both under
their conventional names (``DIR/trace.jsonl``, ``DIR/metrics.json``) so
the directory is a *run* that ``analyze`` and ``compare`` consume, and
``--json`` replaces the human-readable table with one machine-readable
JSON object on stdout.

Analytics: ``inspect`` summarises a recorded trace, ``analyze`` computes
per-phase rollups / critical path / worker utilization for one run,
``compare`` diffs two runs and exits nonzero on regressions, and
``bench`` runs the unified benchmark suite with an optional
baseline-gated ``--check``.

Registry & friends: every instrumented run and ``bench`` invocation
auto-records into a SQLite run registry (``--registry`` / the
``RHOHAMMER_REGISTRY`` env var; default ``registry.sqlite`` next to the
run directory).  ``history`` lists recorded runs, ``trends`` gates a
metric's latest value against the rolling median of past runs
(``--check`` for CI), ``export`` converts a run to Chrome Trace Event
JSON for Perfetto or OpenMetrics text, and ``follow`` tails an
in-flight run's trace live (pair with ``--heartbeat SECS`` on the run).

Fleet health (PR 8): ``--health SECS`` samples parent/worker resources
into the trace as id-free ``health`` records, ``--alert-rules FILE``
arms declarative threshold/rate/absence alerts, ``status``/``top``
render one-shot and live fleet views, and ``analyze --alerts`` replays
a rules file post-hoc with a deterministic exit code for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Sequence

from repro import (
    BENCH_SCALE,
    FINE_SCALE,
    QUICK_SCALE,
    FuzzingCampaign,
    RhoHammerRevEng,
    RunBudget,
    SimulationScale,
    TimingOracle,
    __version__,
    baseline_load_config,
    build_machine,
    rhohammer_config,
    sweep_pattern,
)
from repro.common.errors import ReproError
from repro.engine.budget import BACKEND_CHOICES, DEFAULT_BATCH_LOCATIONS
from repro.exploit import EndToEndAttack
from repro.exploit.endtoend import canonical_compact_pattern
from repro.hammer.nops import tune_nop_count, tuned_config_for
from repro.obs import OBS, RunManifest
from repro.obs.analyze import (
    METRICS_FILENAME,
    TRACE_FILENAME,
    RunLoadError,
    analyze_run,
    analyze_trace,
    format_analysis,
)
from repro.obs.compare import (
    DEFAULT_THRESHOLD,
    DEFAULT_WALL_THRESHOLD,
    compare_runs,
    format_comparison,
)
from repro.obs.inspect import format_summary, summary_dict
from repro.obs.trace import DETAIL_LEVELS
from repro.reveng import compare_mappings
from repro.system.presets import dimm_ids, machine_names

_SCALES = {"quick": QUICK_SCALE, "bench": BENCH_SCALE, "fine": FINE_SCALE}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--platform", choices=machine_names(), default="raptor_lake"
    )
    parser.add_argument("--dimm", choices=dimm_ids(), default="S3")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--scale", choices=sorted(_SCALES), default="quick",
        help="simulation scale (quick/bench/fine)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="stream a JSONL span trace of the run to PATH",
    )
    parser.add_argument(
        "--trace-detail", choices=DETAIL_LEVELS, default="phase",
        help="trace granularity: phase spans only, or also one event "
             "per DRAM refresh window",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the run manifest + final metrics snapshot to PATH",
    )
    parser.add_argument(
        "--out", metavar="DIR", default=None,
        help=f"record the run as a directory: {TRACE_FILENAME} + "
             f"{METRICS_FILENAME} under DIR (the unit `analyze` and "
             "`compare` consume); explicit --trace/--metrics-out win",
    )
    parser.add_argument(
        "--registry", metavar="PATH", default=None,
        help="run registry database to record this run into (default "
             "with --out: registry.sqlite next to the run directory, so "
             "sibling runs share one DB; 'none' disables; the "
             "RHOHAMMER_REGISTRY env var overrides the default)",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECS",
        help="emit liveness heartbeat records into the trace at most "
             "every SECS seconds so `rhohammer follow` can watch the run "
             "(off by default: heartbeats are nondeterministic in count)",
    )
    parser.add_argument(
        "--health", type=float, default=None, metavar="SECS",
        help="sample parent/worker resource usage (CPU, RSS, fds, pool "
             "throughput) into the trace at most every SECS seconds so "
             "`rhohammer status`/`top` can watch the fleet (off by "
             "default: samples are nondeterministic in count)",
    )
    parser.add_argument(
        "--alert-rules", metavar="PATH", default=None,
        help="alert rules file (JSON/TOML; see docs/OBSERVABILITY.md) "
             "evaluated live against the run's health/heartbeat stream; "
             "firing rules write alert records into the trace",
    )


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for independent trials (results are "
             "bit-identical to --workers 1)",
    )
    parser.add_argument(
        "--backend", choices=list(BACKEND_CHOICES), default="auto",
        help="executor backend for the worker pool: auto picks the "
             "persistent pool when the host has spare cores, serial "
             "otherwise",
    )


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true",
        help="print one machine-readable JSON object instead of the table",
    )


def _machine(args) -> tuple:
    scale: SimulationScale = _SCALES[args.scale]
    machine = build_machine(
        args.platform, args.dimm, seed=args.seed, scale=scale
    )
    return machine, scale


def _tuned_config(args, scale):
    """The platform's tuned kernel, from the shared calibration table."""
    return tuned_config_for(args.platform)


def _print_json(payload: dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _run_meta(args) -> dict[str, Any]:
    """The identity fields every ``--json`` result leads with."""
    return {
        "command": args.command,
        "platform": args.platform,
        "dimm": args.dimm,
        "seed": args.seed,
        "scale": args.scale,
    }


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_reveng(args) -> int:
    if args.runs > 1:
        from repro.reveng.repeated import repeated_reveng

        stats = repeated_reveng(
            args.platform,
            dimm_id=args.dimm,
            budget=RunBudget.trials(
                args.runs,
                workers=args.workers,
                backend=args.backend,
            ),
            base_seed=args.seed,
            fraction=args.fraction,
        )
        print(f"target : {args.platform} / {args.dimm}")
        print(f"runs   : {stats.runs}/{stats.runs_requested}")
        print(f"correct: {stats.successes}/{stats.runs} "
              f"({stats.success_rate:.0%})")
        print(f"runtime: mean {stats.mean_runtime_seconds:.1f}s, "
              f"min {stats.min_runtime_seconds:.1f}s, "
              f"max {stats.max_runtime_seconds:.1f}s (attacker-seconds)")
        print(f"Table 5: {stats.as_table5_cell()}")
        for note in stats.notes:
            print(f"note   : {note}")
        return 0 if stats.all_correct else 1
    machine, _ = _machine(args)
    print(f"target : {machine.describe()}")
    oracle = TimingOracle.allocate(machine, fraction=args.fraction)
    result = RhoHammerRevEng(oracle, collect_heatmap=False).run()
    score = compare_mappings(result.mapping, machine.mapping)
    print(f"mapping: {result.mapping.describe()}")
    print(f"correct: {score.fully_correct}")
    print(f"runtime: {result.runtime_seconds:.1f} attacker-seconds "
          f"({result.measurements} measurements)")
    return 0 if score.fully_correct else 1


def cmd_fuzz(args) -> int:
    machine, scale = _machine(args)
    config = (
        baseline_load_config(num_banks=1)
        if args.baseline
        else _tuned_config(args, scale)
    )
    if not args.json:
        print(f"target : {machine.describe()}")
        print(f"kernel : {config.describe()}")
    campaign = FuzzingCampaign(machine=machine, config=config, scale=scale)
    report = campaign.execute(
        RunBudget(
            max_trials=args.patterns,
            workers=args.workers,
            backend=args.backend,
        )
    )
    if args.json:
        _print_json({
            **_run_meta(args),
            "patterns_tried": report.patterns_tried,
            "effective_patterns": report.effective_patterns,
            "total_flips": report.total_flips,
            "best_pattern_flips": report.best_pattern_flips,
            "best_pattern": (
                report.best_pattern.describe()
                if report.best_pattern is not None
                else None
            ),
            "mean_miss_rate": report.mean_miss_rate,
            "notes": list(report.notes),
        })
        return 0
    print(f"patterns tried     : {report.patterns_tried}")
    print(f"effective patterns : {report.effective_patterns}")
    print(f"total flips        : {report.total_flips}")
    print(f"best pattern flips : {report.best_pattern_flips}")
    if report.best_pattern is not None:
        print(f"best pattern       : {report.best_pattern.describe()}")
    return 0


def cmd_sweep(args) -> int:
    machine, scale = _machine(args)
    config = _tuned_config(args, scale)
    report = sweep_pattern(
        machine, config, canonical_compact_pattern(),
        RunBudget(
            max_trials=args.locations,
            workers=args.workers,
            backend=args.backend,
            batch_locations=args.batch_locations,
        ), scale,
    )
    if args.json:
        _print_json({
            **_run_meta(args),
            "locations": args.locations,
            "total_flips": report.total_flips,
            "flips_per_minute": report.flips_per_minute,
            "locations_with_flips": report.locations_with_flips,
            "flips_per_location": [
                int(f) for f in report.flips_per_location.tolist()
            ],
            "virtual_minutes": float(report.virtual_minutes[-1])
            if report.virtual_minutes.size
            else 0.0,
            "notes": list(report.notes),
        })
        return 0
    print(f"target           : {machine.describe()}")
    print(f"locations swept  : {args.locations}")
    print(f"total flips      : {report.total_flips}")
    print(f"flips per minute : {report.flips_per_minute:,.0f} (virtual)")
    print(f"hit locations    : {report.locations_with_flips}/{args.locations}")
    return 0


def cmd_exploit(args) -> int:
    machine, scale = _machine(args)
    config = _tuned_config(args, scale)
    attack = EndToEndAttack(
        machine=machine,
        config=config,
        pattern=canonical_compact_pattern(),
        scale=scale,
    )
    outcome = attack.run()
    if args.json:
        _print_json({
            **_run_meta(args),
            "total_flips": outcome.total_flips,
            "exploitable_flips": outcome.exploitable_flips,
            "total_seconds_virtual": outcome.total_seconds,
            "succeeded": outcome.succeeded,
            "corrupted_pte_before": (
                outcome.corrupted_pte_before if outcome.succeeded else None
            ),
            "corrupted_pte_after": (
                outcome.corrupted_pte_after if outcome.succeeded else None
            ),
        })
        return 0 if outcome.succeeded else 1
    print(f"target            : {machine.describe()}")
    print(f"flips templated   : {outcome.total_flips}")
    print(f"exploitable flips : {outcome.exploitable_flips}")
    print(f"end-to-end time   : {outcome.total_seconds:.1f} s (virtual)")
    if outcome.succeeded:
        print(f"PTE corrupted     : {outcome.corrupted_pte_before:#x} -> "
              f"{outcome.corrupted_pte_after:#x}")
        print("page-table read/write achieved")
        return 0
    print("attack failed (no exploitable flip in budget)")
    return 1


def cmd_campaign(args) -> int:
    from repro.campaign import RhoHammerCampaign

    machine, scale = _machine(args)
    if not args.json:
        print(f"target : {machine.describe()}\n")
    campaign = RhoHammerCampaign(
        machine=machine,
        scale=scale,
        fuzz_patterns=args.patterns,
        sweep_locations=args.locations,
        run_exploit=not args.no_exploit,
        workers=args.workers,
        backend=args.backend,
    )
    report = campaign.run()
    if args.json:
        _print_json({
            **_run_meta(args),
            "succeeded": report.succeeded,
            "mapping_validated": (
                report.mapping_validation.validated
                if report.mapping_validation is not None
                else None
            ),
            "tuned_nops": (
                report.tuning.best_nop_count
                if report.tuning is not None
                else None
            ),
            "fuzzing": (
                {
                    "patterns_tried": report.fuzzing.patterns_tried,
                    "effective_patterns": report.fuzzing.effective_patterns,
                    "total_flips": report.fuzzing.total_flips,
                    "best_pattern_flips": report.fuzzing.best_pattern_flips,
                }
                if report.fuzzing is not None
                else None
            ),
            "sweep": (
                {
                    "total_flips": report.sweep.total_flips,
                    "flips_per_minute": report.sweep.flips_per_minute,
                    "locations": len(report.sweep.base_rows),
                }
                if report.sweep is not None
                else None
            ),
            "exploit": (
                {
                    "succeeded": report.exploit.succeeded,
                    "exploitable_flips": report.exploit.exploitable_flips,
                }
                if report.exploit is not None
                else None
            ),
            "notes": list(report.notes),
        })
        return 0 if report.succeeded else 1
    print(report.summary())
    print(f"\ncampaign succeeded: {report.succeeded}")
    return 0 if report.succeeded else 1


def cmd_emit(args) -> int:
    from repro.hammer.codegen import emit_asm, emit_cpp
    from repro.cpu.isa import AddressingMode
    from dataclasses import replace

    machine, scale = _machine(args)
    config = _tuned_config(args, scale)
    pattern = canonical_compact_pattern()
    if args.format == "cpp":
        print(emit_cpp(config, pattern))
    else:
        unrolled = replace(config, addressing=AddressingMode.IMMEDIATE)
        print(emit_asm(unrolled, pattern, unroll_slots=args.slots))
    return 0


def cmd_tune(args) -> int:
    machine, scale = _machine(args)
    result = tune_nop_count(
        machine,
        rhohammer_config(nop_count=0, num_banks=3),
        canonical_compact_pattern(),
        base_rows=[5000, 21000],
        activations_per_row=scale.acts_per_pattern,
        scale=scale,
    )
    print(f"target        : {machine.describe()}")
    for nops, flips in sorted(result.flips_by_count.items()):
        print(f"  nops={nops:5d}  flips={flips}")
    print(f"optimal count : {result.best_nop_count} "
          f"({result.best_flips} flips)")
    return 0


def _inspect_events(args) -> int:
    """``inspect --events``: list matching raw records, no span dump."""
    from repro.obs.live import resolve_trace_path
    from repro.obs.trace import read_trace

    trace_file = resolve_trace_path(args.trace_file)
    kinds = {k.strip() for k in args.events.split(",") if k.strip()}
    try:
        records = list(read_trace(trace_file, strict=False))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(
            f"error: {trace_file}: no parseable trace records",
            file=sys.stderr,
        )
        return 1
    matched = [r for r in records if r.get("ev") in kinds]
    if args.json:
        _print_json({"count": len(matched), "records": matched})
    else:
        for record in matched:
            print(json.dumps(record, sort_keys=True))
        print(
            f"{len(matched)} record(s) of kind "
            f"{','.join(sorted(kinds))} out of {len(records)}",
            file=sys.stderr,
        )
    return 0


def cmd_inspect(args) -> int:
    if args.events:
        return _inspect_events(args)
    from repro.obs.live import resolve_trace_path

    trace_file = resolve_trace_path(args.trace_file)
    try:
        analysis = analyze_trace(trace_file, top=args.top)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if analysis.events == 0:
        print(
            f"error: {trace_file}: no parseable trace records"
            + (
                f" ({analysis.skipped_lines} corrupt line(s) skipped)"
                if analysis.skipped_lines
                else ""
            ),
            file=sys.stderr,
        )
        return 1
    if args.json:
        _print_json(summary_dict(analysis, top=args.top))
    else:
        print(format_summary(analysis, top=args.top))
    return 0


def cmd_analyze(args) -> int:
    try:
        analysis = analyze_run(args.run, top=args.top)
    except (RunLoadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    alerts: list[dict[str, Any]] = []
    if args.alerts:
        from repro.obs.alerts import (
            AlertRuleError,
            evaluate_records,
            load_rules,
        )
        from repro.obs.analyze import RunArtifacts
        from repro.obs.trace import read_trace

        try:
            rules = load_rules(args.alerts)
            artifacts = RunArtifacts.load(args.run)
            records = list(read_trace(artifacts.trace_path, strict=False))
        except (AlertRuleError, RunLoadError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        alerts = evaluate_records(records, rules)
    if args.json:
        payload = analysis.to_dict()
        if args.alerts:
            payload["alerts"] = alerts
        _print_json(payload)
    else:
        print(format_analysis(analysis, top=args.top))
        if args.alerts:
            if alerts:
                print("alerts       :")
                for alert in alerts:
                    print(
                        f"  [{alert.get('severity', 'warning')}] "
                        f"{alert.get('rule')}: {alert.get('message', '')}"
                    )
            else:
                print("alerts       : none firing")
    return 1 if alerts else 0


def cmd_compare(args) -> int:
    try:
        comparison = compare_runs(
            args.run_a,
            args.run_b,
            threshold=args.threshold,
            wall_threshold=args.wall_threshold,
            gate_wall=args.gate_wall,
        )
    except (RunLoadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _print_json(comparison.to_dict())
    else:
        print(format_comparison(comparison, show_neutral=args.show_neutral))
    return 0 if comparison.ok else 1


def cmd_bench(args) -> int:
    from repro.obs.bench import run_from_args

    return run_from_args(args)


def _registry_for_read(registry_arg: str | None) -> str | None:
    """Resolve the registry DB an analytics subcommand should query.

    Explicit ``--registry`` wins (``none`` disables), else the
    ``RHOHAMMER_REGISTRY`` environment variable; there is no positional
    fallback — reading needs a concrete database.
    """
    from repro.obs.registry import default_registry_path

    if registry_arg is not None:
        registry_arg = registry_arg.strip()
        if not registry_arg or registry_arg.lower() == "none":
            return None
        return registry_arg
    return default_registry_path(None)


def _run_filters(args) -> dict[str, Any]:
    """The identity filters shared by ``history`` and ``trends``."""
    return {
        "kind": args.kind,
        "command": args.filter_command,
        "platform": args.platform,
        "dimm": args.dimm,
        "seed": args.seed,
        "scale": args.scale,
        "git": args.git,
        "suite": args.suite,
    }


def cmd_history(args) -> int:
    from repro.obs.registry import (
        RegistryError,
        RunRegistry,
        format_history,
    )

    db = _registry_for_read(args.registry)
    if db is None:
        print(
            "error: no registry — pass --registry PATH or set "
            "RHOHAMMER_REGISTRY",
            file=sys.stderr,
        )
        return 2
    if not os.path.exists(db):
        print(f"error: no registry database at {db}", file=sys.stderr)
        return 2
    try:
        with RunRegistry(db) as registry:
            records = registry.runs(**_run_filters(args), limit=args.limit)
            if args.json:
                _print_json(
                    {
                        "registry": db,
                        "runs": [record.to_dict() for record in records],
                    }
                )
            else:
                print(format_history(records, registry))
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_trends(args) -> int:
    from repro.obs.registry import (
        RegistryError,
        RunRegistry,
        compute_trends,
        format_trends,
    )

    db = _registry_for_read(args.registry)
    if db is None:
        print(
            "error: no registry — pass --registry PATH or set "
            "RHOHAMMER_REGISTRY",
            file=sys.stderr,
        )
        return 2
    if not os.path.exists(db):
        print(f"error: no registry database at {db}", file=sys.stderr)
        return 2
    try:
        with RunRegistry(db) as registry:
            trends = compute_trends(
                registry,
                args.metrics,
                window=args.window,
                threshold=args.threshold,
                wall_threshold=args.wall_threshold,
                gate_wall=args.gate_wall,
                **_run_filters(args),
            )
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _print_json(
            {"registry": db, "trends": [t.to_dict() for t in trends]}
        )
    else:
        print(format_trends(trends))
    if args.check and any(t.regressed for t in trends):
        return 1
    return 0


def _require_registry(registry_arg: str | None) -> str | None:
    """Resolve and validate a registry DB path, printing errors on miss."""
    db = _registry_for_read(registry_arg)
    if db is None:
        print(
            "error: no registry — pass --registry PATH or set "
            "RHOHAMMER_REGISTRY",
            file=sys.stderr,
        )
        return None
    if not os.path.exists(db):
        print(f"error: no registry database at {db}", file=sys.stderr)
        return None
    return db


def cmd_registry_gc(args) -> int:
    from repro.obs.registry import RegistryError, RunRegistry, format_gc

    db = _require_registry(args.registry)
    if db is None:
        return 2
    try:
        with RunRegistry(db) as registry:
            report = registry.gc(
                max_age_days=args.max_age,
                keep_last=args.keep_last,
                keep_tagged=args.keep_tagged,
                dry_run=args.dry_run,
                vacuum=args.vacuum,
            )
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _print_json({"registry": db, "gc": report.to_dict()})
    else:
        print(format_gc(report))
    return 0


def cmd_registry_stats(args) -> int:
    from repro.obs.registry import RegistryError, RunRegistry, format_stats

    db = _require_registry(args.registry)
    if db is None:
        return 2
    try:
        with RunRegistry(db) as registry:
            stats = registry.stats()
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _print_json({"registry": db, "stats": stats})
    else:
        print(format_stats(stats))
    return 0


def cmd_registry_tag(args) -> int:
    from repro.obs.registry import RegistryError, RunRegistry

    if args.tag is None and not args.clear:
        print("error: pass a TAG to set, or --clear", file=sys.stderr)
        return 2
    db = _require_registry(args.registry)
    if db is None:
        return 2
    tag = None if args.clear else args.tag
    try:
        with RunRegistry(db) as registry:
            found = registry.tag(args.run_id, tag)
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not found:
        print(f"error: no run {args.run_id} in {db}", file=sys.stderr)
        return 2
    if tag is None:
        print(f"run {args.run_id}: tag cleared")
    else:
        print(f"run {args.run_id}: tagged [{tag}]")
    return 0


def cmd_export(args) -> int:
    from repro.obs.export import export_run

    try:
        text = export_run(args.run, args.format)
    except (RunLoadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({args.format})")
    else:
        sys.stdout.write(text)
    return 0


def cmd_follow(args) -> int:
    from repro.obs.live import follow

    timeout = args.timeout if args.timeout > 0 else None
    return follow(
        args.run, interval=args.interval, timeout=timeout, once=args.once
    )


def _load_cli_rules(rules_path: str | None):
    """Load an optional ``--rules`` file; ``(rules, error_code)``."""
    if not rules_path:
        return (), None
    from repro.obs.alerts import AlertRuleError, load_rules

    try:
        return load_rules(rules_path), None
    except (AlertRuleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (), 2


def cmd_status(args) -> int:
    from repro.obs.top import status

    rules, err = _load_cli_rules(args.rules)
    if err is not None:
        return err
    return status(args.run, rules=rules, json_out=args.json)


def cmd_top(args) -> int:
    from repro.obs.top import top

    rules, err = _load_cli_rules(args.rules)
    if err is not None:
        return err
    timeout = args.timeout if args.timeout > 0 else None
    return top(
        args.run,
        interval=args.interval,
        timeout=timeout,
        once=args.once,
        rules=rules,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhohammer",
        description="rhoHammer (MICRO 2025) reproduction on a simulated platform",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reveng", help="recover the DRAM address mapping")
    _add_common(p)
    _add_workers(p)
    p.add_argument("--fraction", type=float, default=0.5,
                   help="fraction of RAM to allocate for the pool")
    p.add_argument("--runs", type=int, default=1,
                   help="repeat the recovery this many times with "
                        "independent seeds and report Table 5 statistics")
    p.set_defaults(func=cmd_reveng)

    p = sub.add_parser("fuzz", help="fuzz non-uniform hammer patterns")
    _add_common(p)
    _add_workers(p)
    _add_json(p)
    p.add_argument("--patterns", type=int, default=20)
    p.add_argument("--baseline", action="store_true",
                   help="use the load-based baseline kernel")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("sweep", help="sweep the tuned pattern over locations")
    _add_common(p)
    _add_workers(p)
    _add_json(p)
    p.add_argument("--locations", type=int, default=16)
    p.add_argument(
        "--batch-locations", type=int, default=DEFAULT_BATCH_LOCATIONS,
        metavar="N",
        help="locations per pool task, hammered in one vectorised pass "
             "(results are bit-identical for every N)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("exploit", help="end-to-end PTE corruption attack")
    _add_common(p)
    _add_json(p)
    p.set_defaults(func=cmd_exploit)

    p = sub.add_parser("tune", help="NOP pseudo-barrier tuning phase")
    _add_common(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser(
        "emit", help="emit the real-hardware kernel source for a config"
    )
    _add_common(p)
    p.add_argument("--format", choices=("cpp", "asm"), default="cpp")
    p.add_argument("--slots", type=int, default=32,
                   help="pattern slots to unroll in asm output")
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser(
        "campaign", help="the full Figure 5 workflow, end to end"
    )
    _add_common(p)
    _add_workers(p)
    _add_json(p)
    p.add_argument("--patterns", type=int, default=15)
    p.add_argument("--locations", type=int, default=10)
    p.add_argument("--no-exploit", action="store_true")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "inspect", help="summarise a recorded --trace JSONL stream"
    )
    p.add_argument("trace_file", help="trace file written by --trace")
    p.add_argument("--top", type=int, default=0, metavar="N",
                   help="also rank the N slowest individual spans")
    p.add_argument("--events", metavar="KIND[,KIND...]", default=None,
                   help="instead of the span summary, list the raw "
                        "records of the given kinds (heartbeat, health, "
                        "alert, span, point, manifest) as JSONL")
    _add_json(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser(
        "analyze",
        help="per-phase rollups, critical path and worker utilization "
             "for one recorded run",
    )
    p.add_argument("run", help="run directory (--out) or trace .jsonl file")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="slowest individual spans to list (default 10)")
    p.add_argument("--alerts", metavar="RULES", default=None,
                   help="evaluate an alert rules file (JSON/TOML) "
                        "post-hoc over the trace; exit 1 when any rule "
                        "fires (deterministic, CI-gateable)")
    _add_json(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "compare",
        help="diff two recorded runs; exit 1 on regressions beyond "
             "threshold",
    )
    p.add_argument("run_a", help="baseline run directory or artifact file")
    p.add_argument("run_b", help="candidate run directory or artifact file")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="relative threshold for deterministic quantities "
                        "(default 0.05)")
    p.add_argument("--wall-threshold", type=float,
                   default=DEFAULT_WALL_THRESHOLD,
                   help="relative threshold for wall-clock quantities "
                        "(default 0.30)")
    p.add_argument("--gate-wall", action="store_true",
                   help="let wall-clock regressions fail the exit code "
                        "(off by default: wall times are host-dependent)")
    p.add_argument("--show-neutral", action="store_true",
                   help="also list below-threshold deltas")
    _add_json(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "bench",
        help="run the unified benchmark suite (optionally gated against "
             "the committed baseline)",
    )
    from repro.obs.bench import add_bench_args

    add_bench_args(p)
    p.set_defaults(func=cmd_bench)

    def _add_registry_filters(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--registry", metavar="PATH", default=None,
            help="registry database to query (default: the "
                 "RHOHAMMER_REGISTRY env var)",
        )
        p.add_argument("--kind", choices=("run", "bench"), default=None,
                       help="only instrumented runs or only bench suites")
        p.add_argument("--command", dest="filter_command", default=None,
                       metavar="CMD", help="filter by subcommand (fuzz, ...)")
        p.add_argument("--platform", default=None, metavar="NAME")
        p.add_argument("--dimm", default=None, metavar="ID")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--scale", default=None, metavar="NAME")
        p.add_argument("--git", default=None, metavar="SUBSTR",
                       help="substring match on the recorded git describe")
        p.add_argument("--suite", default=None, metavar="NAME",
                       help="bench suite filter (quick/full)")

    p = sub.add_parser(
        "history",
        help="list runs recorded in a run registry, newest last",
    )
    _add_registry_filters(p)
    p.add_argument("--limit", type=int, default=20, metavar="N",
                   help="keep only the newest N matching runs (default 20)")
    _add_json(p)
    p.set_defaults(func=cmd_history)

    p = sub.add_parser(
        "trends",
        help="cross-run metric time series with rolling-median "
             "regression detection",
    )
    p.add_argument(
        "metrics", nargs="+", metavar="METRIC",
        help="flattened sample keys or globs, e.g. "
             "'counters.dram.flips_total', 'phases.*.wall_s', "
             "'bench.fuzz.checks.total_flips'",
    )
    _add_registry_filters(p)
    p.add_argument("--window", type=int, default=5, metavar="N",
                   help="rolling-median window over preceding runs "
                        "(default 5)")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="relative threshold for deterministic metrics "
                        "(default 0.05)")
    p.add_argument("--wall-threshold", type=float,
                   default=DEFAULT_WALL_THRESHOLD,
                   help="relative threshold for wall-clock metrics "
                        "(default 0.30)")
    p.add_argument("--gate-wall", action="store_true",
                   help="let wall-clock regressions fail --check (off by "
                        "default: wall times are host-dependent)")
    p.add_argument("--check", action="store_true",
                   help="exit 1 when any gated metric regresses against "
                        "its rolling median")
    _add_json(p)
    p.set_defaults(func=cmd_trends)

    p = sub.add_parser(
        "registry",
        help="maintain a run registry database (gc / stats / tag)",
    )
    reg_sub = p.add_subparsers(dest="registry_command", required=True)

    def _add_registry_db(rp: argparse.ArgumentParser) -> None:
        rp.add_argument(
            "--registry", metavar="PATH", default=None,
            help="registry database to operate on (default: the "
                 "RHOHAMMER_REGISTRY env var)",
        )

    rp = reg_sub.add_parser(
        "gc",
        help="prune old runs by retention policy and compact the database",
    )
    _add_registry_db(rp)
    rp.add_argument("--max-age", type=float, default=None, metavar="DAYS",
                    help="prune runs recorded more than DAYS days ago")
    rp.add_argument("--keep-last", type=int, default=None, metavar="N",
                    help="prune runs beyond the newest N")
    rp.add_argument("--no-keep-tagged", dest="keep_tagged",
                    action="store_false",
                    help="let retention prune tagged runs too (by default "
                         "a tag pins a run past any policy)")
    rp.add_argument("--dry-run", action="store_true",
                    help="report what would be pruned without deleting")
    rp.add_argument("--no-vacuum", dest="vacuum", action="store_false",
                    help="skip the VACUUM compaction after deleting")
    _add_json(rp)
    rp.set_defaults(func=cmd_registry_gc)

    rp = reg_sub.add_parser(
        "stats",
        help="registry shape and size: run/sample counts, tags, file bytes",
    )
    _add_registry_db(rp)
    _add_json(rp)
    rp.set_defaults(func=cmd_registry_stats)

    rp = reg_sub.add_parser(
        "tag",
        help="pin a run past gc retention (or --clear its tag)",
    )
    _add_registry_db(rp)
    rp.add_argument("run_id", type=int, help="registry run id (see history)")
    rp.add_argument("tag", nargs="?", default=None,
                    help="tag text, e.g. 'baseline' or 'paper-fig7'")
    rp.add_argument("--clear", action="store_true",
                    help="remove the run's tag instead of setting one")
    rp.set_defaults(func=cmd_registry_tag)

    p = sub.add_parser(
        "export",
        help="convert a recorded run to a standard format "
             "(Chrome Trace Event JSON for Perfetto, or OpenMetrics text)",
    )
    p.add_argument("run", help="run directory (--out) or artifact file")
    from repro.obs.export import FORMATS

    p.add_argument("--format", choices=FORMATS, default="chrome",
                   help="chrome: trace.jsonl -> Trace Event JSON; "
                        "openmetrics: metrics.json -> exposition text")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write to PATH instead of stdout")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "follow",
        help="tail an in-flight run's trace stream and render live "
             "phase progress",
    )
    p.add_argument("run", help="run directory (--out) or trace .jsonl path")
    p.add_argument("--interval", type=float, default=0.5, metavar="SECS",
                   help="poll interval (default 0.5s)")
    p.add_argument("--timeout", type=float, default=30.0, metavar="SECS",
                   help="exit 1 after this much silence; <= 0 waits "
                        "forever (default 30s)")
    p.add_argument("--once", action="store_true",
                   help="process what exists and exit immediately")
    p.set_defaults(func=cmd_follow)

    p = sub.add_parser(
        "status",
        help="one-shot fleet health view of a recorded or in-flight run "
             "(per-worker RSS/CPU/utilization, pool stats, alerts)",
    )
    p.add_argument("run", help="run directory (--out) or trace .jsonl path")
    p.add_argument("--rules", metavar="PATH", default=None,
                   help="alert rules file (JSON/TOML) to evaluate; any "
                        "firing rule makes the exit code 1")
    _add_json(p)
    p.set_defaults(func=cmd_status)

    p = sub.add_parser(
        "top",
        help="live fleet view over an in-flight run's trace: per-worker "
             "utilization, RSS, throughput and firing alerts (pair with "
             "--health SECS on the run)",
    )
    p.add_argument("run", help="run directory (--out) or trace .jsonl path")
    p.add_argument("--interval", type=float, default=1.0, metavar="SECS",
                   help="redraw interval (default 1s)")
    p.add_argument("--timeout", type=float, default=30.0, metavar="SECS",
                   help="exit 1 after this much silence; <= 0 waits "
                        "forever (default 30s)")
    p.add_argument("--once", action="store_true",
                   help="render what exists and exit immediately")
    p.add_argument("--rules", metavar="PATH", default=None,
                   help="alert rules file (JSON/TOML) evaluated while "
                        "watching")
    p.set_defaults(func=cmd_top)
    return parser


# ----------------------------------------------------------------------
# Telemetry lifecycle around one CLI run
# ----------------------------------------------------------------------
def _budget_dict(args) -> dict[str, Any]:
    """The budget knobs this subcommand was invoked with (for the manifest)."""
    return {
        name: getattr(args, name)
        for name in (
            "patterns", "locations", "workers", "backend", "fraction",
            "batch_locations", "runs",
        )
        if hasattr(args, name)
    }


def _register_run(
    args,
    manifest: RunManifest | None,
    out_dir: str | None,
    trace_path: str | None,
) -> None:
    """Auto-record one finished instrumented run into the run registry.

    Resolution: explicit ``--registry`` wins (``none`` disables), else
    :func:`~repro.obs.registry.default_registry_path` (``RHOHAMMER_REGISTRY``
    env var, or ``registry.sqlite`` next to the ``--out`` directory).
    Recording is strictly best-effort — a registry problem warns on
    stderr and never alters the run's exit code.
    """
    if manifest is None:
        return
    from repro.obs.registry import RunRegistry, default_registry_path

    registry_arg = getattr(args, "registry", None)
    if registry_arg is not None:
        registry_arg = registry_arg.strip()
        if not registry_arg or registry_arg.lower() == "none":
            return
        db_path = registry_arg
    else:
        db_path = default_registry_path(out_dir)
    if db_path is None:
        return
    phases = None
    health = None
    if trace_path:
        try:
            analysis = analyze_run(trace_path)
            phases = {
                name: rollup.to_dict()
                for name, rollup in analysis.phases.items()
            }
            health = dict(analysis.health) or None
            if health:
                workers = analysis.workers
                if workers.utilization is not None:
                    health["utilization"] = round(workers.utilization, 4)
                if workers.skew is not None:
                    health["skew"] = round(workers.skew, 4)
        except Exception:
            phases = None  # a truncated/empty trace still registers
            health = None
    try:
        with RunRegistry(db_path) as registry:
            registry.record_run(
                manifest.to_dict(), phases=phases, health=health
            )
    except Exception as exc:
        print(f"warning: run registry {db_path}: {exc}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Only the run subcommands carry the telemetry flags (_add_common);
    # analytics subcommands (inspect/analyze/compare/bench) do not.
    instrumented = hasattr(args, "trace")
    trace_path = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    out_dir = getattr(args, "out", None) if instrumented else None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        trace_path = trace_path or os.path.join(out_dir, "trace.jsonl")
        metrics_out = metrics_out or os.path.join(out_dir, "metrics.json")
    health_s = getattr(args, "health", None) if instrumented else None
    alert_rules = getattr(args, "alert_rules", None) if instrumented else None
    telemetry_on = bool(
        trace_path or metrics_out or health_s or alert_rules
    )
    manifest: RunManifest | None = None
    if telemetry_on:
        try:
            OBS.configure(
                trace_path=trace_path,
                trace_detail=getattr(args, "trace_detail", "phase"),
                metrics=True,
                heartbeat_s=getattr(args, "heartbeat", None),
                health_s=health_s,
                alert_rules=alert_rules,
            )
        except (ValueError, OSError) as exc:
            # e.g. an unreadable/invalid --alert-rules file or a
            # non-positive --health interval.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        manifest = RunManifest.collect(
            command=args.command,
            argv=tuple(argv) if argv is not None else tuple(sys.argv[1:]),
            seed=getattr(args, "seed", None),
            platform=getattr(args, "platform", None),
            dimm=getattr(args, "dimm", None),
            scale=getattr(args, "scale", None),
            budget=_budget_dict(args),
        )
        OBS.tracer.manifest(manifest.header_dict(), wall=manifest.wall)
    code = 2
    try:
        with OBS.tracer.span(f"cli.{args.command}"):
            code = args.func(args)
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout piped into a closed reader (e.g. `inspect ... | head`).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
        return code
    finally:
        if telemetry_on:
            manifest.metrics = OBS.metrics.snapshot()
            manifest.exit_code = code
            if metrics_out:
                manifest.write(metrics_out)
            # The registry reads the trace back: write out the span
            # buffer first, or a run shorter than one flush interval
            # registers without its closing records.
            OBS.tracer.flush()
            _register_run(args, manifest, out_dir, trace_path)
            OBS.shutdown()


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end telemetry tests: CLI traces, manifests, determinism, --json."""

import json

import pytest

from repro import QUICK_SCALE, FuzzingCampaign, RunBudget, build_machine
from repro.cli import main
from repro.hammer.nops import tuned_config_for
from repro.obs import OBS, read_trace, strip_wall, telemetry_session


def _run_fuzz(tmp_path, extra=()):
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    argv = [
        "fuzz", "--platform", "comet_lake", "--dimm", "S3",
        "--patterns", "4", "--trace", str(trace),
        "--metrics-out", str(metrics), *extra,
    ]
    code = main(argv)
    assert code == 0
    return list(read_trace(trace)), json.loads(metrics.read_text())


def test_trace_stream_structure(tmp_path):
    records, manifest = _run_fuzz(tmp_path)
    # Header first: the manifest with the run's identity.
    assert records[0]["ev"] == "manifest"
    header = records[0]["data"]
    assert header["command"] == "fuzz"
    assert header["seed"] == 2025
    assert header["platform"] == "comet_lake"
    assert header["dimm"] == "S3"
    assert header["budget"]["patterns"] == 4
    assert header["git"]  # git describe or "unknown", never empty

    names = [r.get("name") for r in records if r.get("ph") == "B"]
    assert "cli.fuzz" in names
    assert "fuzz.campaign" in names
    assert "pool.batch" in names
    assert "pool.task" in names
    assert "hammer.pattern" in names

    # Nesting: fuzz.campaign under cli.fuzz, pool.batch under
    # fuzz.campaign, pool.task under pool.batch.
    begins = {r["name"]: r for r in records if r.get("ph") == "B"}
    assert begins["fuzz.campaign"]["parent"] == begins["cli.fuzz"]["id"]
    assert begins["pool.batch"]["parent"] == begins["fuzz.campaign"]["id"]
    assert begins["pool.task"]["parent"] == begins["pool.batch"]["id"]
    assert begins["pool.batch"]["attrs"]["workers"] >= 1

    # hammer.pattern end spans carry virtual durations; all ends carry wall.
    ends = {
        r["id"]: r for r in records if r.get("ev") == "span" and r["ph"] == "E"
    }
    pattern_begin = begins["hammer.pattern"]
    assert ends[pattern_begin["id"]]["attrs"]["virtual_ns"] > 0
    assert all("dur_s" in e["wall"] for e in ends.values())

    # Per-worker task events: pool.task ends name their worker pid.
    task_ids = [
        r["id"] for r in records
        if r.get("ph") == "B" and r["name"] == "pool.task"
    ]
    assert all("worker" in ends[i]["wall"] for i in task_ids)


def test_metrics_snapshot_covers_trr_and_windows(tmp_path):
    _, manifest = _run_fuzz(tmp_path)
    counters = manifest["metrics"]["counters"]
    histograms = manifest["metrics"]["histograms"]
    assert counters["dram.trr.acts_observed"] > 0
    assert counters["dram.trr.refs"] > 0
    assert any(k.startswith("dram.flips_by_window{") for k in counters)
    assert histograms["dram.acts_per_window"]["count"] > 0
    assert histograms["dram.trr.occupancy"]["count"] > 0
    assert manifest["exit_code"] == 0
    assert manifest["versions"]["python"]


def test_same_seed_runs_produce_identical_streams(tmp_path):
    """The determinism contract, end to end through the CLI."""

    def stripped(records):
        return [json.dumps(strip_wall(r), sort_keys=True) for r in records]

    first, manifest_a = _run_fuzz(tmp_path, extra=["--workers", "2"])
    second, manifest_b = _run_fuzz(tmp_path, extra=["--workers", "2"])
    assert stripped(first) == stripped(second)

    def deterministic(m):
        m = {k: v for k, v in m.items() if k != "wall"}
        m["metrics"] = {
            section: {k: v for k, v in values.items() if "wall" not in k}
            for section, values in m["metrics"].items()
        }
        return m

    assert deterministic(manifest_a) == deterministic(manifest_b)


def test_parallel_metrics_match_serial(tmp_path):
    serial = _run_fuzz(tmp_path)[1]["metrics"]
    parallel = _run_fuzz(tmp_path, extra=["--workers", "2"])[1]["metrics"]

    def no_wall(section):
        # health.* counters (worker_spawn, ...) only exist in runs that
        # spawn workers; they are the documented exclusion alongside wall
        # keys (docs/OBSERVABILITY.md).
        return {
            k: v
            for k, v in section.items()
            if "wall" not in k and not k.startswith("health.")
        }

    assert no_wall(serial["counters"]) == no_wall(parallel["counters"])
    assert no_wall(serial["histograms"]) == no_wall(parallel["histograms"])


def test_window_detail_adds_per_window_points(tmp_path):
    records, _ = _run_fuzz(tmp_path, extra=["--trace-detail", "window"])
    windows = [r for r in records if r.get("name") == "dram.window"]
    assert windows, "window detail must emit per-refresh-window points"
    sample = windows[0]["attrs"]
    assert {"bank", "window", "acts"} <= set(sample)
    # The fuzzer hammers each pattern's rows in one batched call; under
    # window detail every row still gets its own span around its points.
    patterns = {
        r["id"] for r in records
        if r.get("ph") == "B" and r["name"] == "hammer.pattern"
    }
    assert all(w["parent"] in patterns for w in windows)


def test_inspect_command(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main([
        "fuzz", "--platform", "comet_lake", "--patterns", "3",
        "--trace", str(trace),
    ]) == 0
    capsys.readouterr()
    assert main(["inspect", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "fuzz on comet_lake/S3" in out
    assert "hammer.pattern" in out

    assert main(["inspect", str(trace), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["tasks"]["total"] == 3
    assert "fuzz.campaign" in summary["spans"]


def test_inspect_top_ranking(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main([
        "fuzz", "--platform", "comet_lake", "--patterns", "3",
        "--trace", str(trace),
    ]) == 0
    capsys.readouterr()
    assert main(["inspect", str(trace), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "slowest  : (top 3 spans by wall)" in out

    assert main(["inspect", str(trace), "--top", "3", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    ranked = summary["slowest"]
    assert len(ranked) == 3
    walls = [row["wall_s"] for row in ranked]
    assert walls == sorted(walls, reverse=True)
    assert ranked[0]["name"] == "cli.fuzz"  # the root span dominates


def test_inspect_skips_corrupt_lines_with_warning(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main([
        "fuzz", "--platform", "comet_lake", "--patterns", "3",
        "--trace", str(trace),
    ]) == 0
    capsys.readouterr()
    good = trace.read_text().splitlines()
    lines = good[:]
    lines.insert(2, '{"ev": "span", "ph": "B"')  # truncated mid-write
    lines.append("¡not json!")
    trace.write_text("\n".join(lines) + "\n")

    assert main(["inspect", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "warning  : skipped 2 corrupt line(s)" in out

    assert main(["inspect", str(trace), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["skipped_lines"] == 2
    assert summary["events"] == len(good)


def test_inspect_exit_codes(tmp_path, capsys):
    # Missing file: I/O error, exit 2.
    assert main(["inspect", str(tmp_path / "missing.jsonl")]) == 2
    assert "error" in capsys.readouterr().err

    # Present but holding no parseable records: exit 1.
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["inspect", str(empty)]) == 1
    assert "no parseable trace records" in capsys.readouterr().err

    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("not json\nnot json either\n")
    assert main(["inspect", str(garbage)]) == 1
    err = capsys.readouterr().err
    assert "2 corrupt line(s) skipped" in err


def test_json_output_fuzz(capsys):
    code = main(["fuzz", "--platform", "comet_lake", "--patterns", "3",
                 "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "fuzz"
    assert payload["patterns_tried"] == 3
    assert isinstance(payload["total_flips"], int)


def test_json_output_sweep(capsys):
    code = main(["sweep", "--platform", "comet_lake", "--locations", "4",
                 "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["locations"] == 4
    assert len(payload["flips_per_location"]) == 4


def test_json_output_exploit(capsys):
    code = main(["exploit", "--platform", "raptor_lake", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["succeeded"] is True
    assert payload["exploitable_flips"] > 0


def test_json_output_campaign(capsys):
    code = main(["campaign", "--platform", "comet_lake", "--patterns", "6",
                 "--locations", "4", "--no-exploit", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["succeeded"] is True
    assert payload["fuzzing"]["patterns_tried"] == 6
    assert payload["sweep"]["locations"] == 4


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "rhohammer 1" in capsys.readouterr().out


def test_cli_leaves_telemetry_disabled(tmp_path):
    _run_fuzz(tmp_path)
    assert not OBS.enabled
    assert not OBS.tracer.enabled
    assert not OBS.metrics.enabled


def test_telemetry_session_library_use():
    """Library callers get the same telemetry without touching the CLI."""
    machine = build_machine("comet_lake", "S3", scale=QUICK_SCALE, seed=11)
    config = tuned_config_for("comet_lake")
    with telemetry_session(trace_memory=True, metrics=True) as obs:
        FuzzingCampaign(
            machine=machine, config=config, scale=QUICK_SCALE
        ).execute(RunBudget(max_trials=2))
        snapshot = obs.metrics.snapshot()
        events = obs.tracer.memory_events
    assert snapshot["counters"]["fuzz.patterns_tried"] == 2
    assert any(e.get("name") == "fuzz.campaign" for e in events)
    assert not OBS.enabled  # session restored the disabled state

"""Fleet health telemetry: sampling, events, alert rules, status/top.

The determinism contract extends to the health layer: health and alert
records are id-free and live entirely under ``wall``, structural event
counts are deterministic for a fixed configuration, and post-hoc alert
evaluation over a finished trace is a pure function — the basis of the
``analyze --alerts`` CI gate.
"""

import json
import os

import pytest

from repro.cli import main
from repro.obs import (
    OBS,
    AlertEngine,
    AlertRule,
    AlertRuleError,
    FleetState,
    ResourceSampler,
    TraceFollower,
    evaluate_records,
    load_rules,
    read_trace,
    sample_process,
    strip_wall,
    summarize_health,
    telemetry_session,
)
from repro.obs.alerts import parse_duration, parse_value
from repro.obs.export import openmetrics_text
from repro.obs.health import flatten_health, format_bytes


# ----------------------------------------------------------------------
# Resource sampling
# ----------------------------------------------------------------------
def test_sample_process_reads_self():
    sample = sample_process()
    assert sample is not None
    assert sample["pid"] == os.getpid()
    assert sample["cpu_s"] >= 0.0
    assert sample["rss_bytes"] > 0


def test_sample_process_returns_none_for_dead_pid():
    # Fork a child that exits immediately; after waitpid its /proc entry
    # is gone and sampling must report None, not fabricate numbers.
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    assert sample_process(pid) is None


def test_resource_sampler_rate_limits_and_orders_payloads():
    now = [0.0]
    sampler = ResourceSampler(interval_s=1.0, clock=lambda: now[0])
    assert sampler.tick() == []  # interval not yet elapsed
    now[0] = 1.5
    sampler.update_pool(pids=[os.getpid()], tasks=8, done=3)
    sampler.update_pool(queue_depth=2)  # stats merge, pids persist
    payloads = sampler.tick()
    kinds = [(p["kind"], p.get("role")) for p in payloads]
    assert kinds[0] == ("sample", "parent")
    assert kinds[1] == ("sample", "worker")
    assert payloads[1]["worker"] == 0
    pool = payloads[-1]
    assert pool["kind"] == "pool"
    assert pool["tasks"] == 8 and pool["done"] == 3
    assert pool["queue_depth"] == 2
    assert sampler.tick() == []  # re-armed: rate limited again
    assert sampler.samples_emitted == len(payloads)


def test_resource_sampler_rejects_non_positive_interval():
    with pytest.raises(ValueError):
        ResourceSampler(interval_s=0.0)


def test_format_bytes_human_units():
    assert format_bytes(512) == "512B"
    assert format_bytes(2048) == "2.0K"
    assert format_bytes(3 * 1024**3) == "3.0G"


# ----------------------------------------------------------------------
# Alert rule parsing
# ----------------------------------------------------------------------
def test_parse_value_binary_suffixes():
    assert parse_value(42) == 42.0
    assert parse_value("2K") == 2048.0
    assert parse_value("1.5G") == 1.5 * 1024**3
    assert parse_value("3MiB") == 3 * 1024**2
    assert parse_value("0.25") == 0.25
    with pytest.raises(AlertRuleError):
        parse_value("lots")


def test_parse_duration_units():
    assert parse_duration(30) == 30.0
    assert parse_duration("30s") == 30.0
    assert parse_duration("5m") == 300.0
    assert parse_duration("250ms") == 0.25
    with pytest.raises(AlertRuleError):
        parse_duration("soon")


def test_rule_from_dict_kinds_and_validation():
    threshold = AlertRule.from_dict(
        {"name": "rss-cap", "expr": "rss_bytes > 2G"}
    )
    assert threshold.kind == "threshold"
    assert threshold.metric == "rss_bytes"
    assert threshold.value == 2 * 1024**3
    assert threshold.describe() == "rss_bytes > 2.14748e+09"

    rate = AlertRule.from_dict(
        {"name": "stall", "expr": "done < 0.5", "window": "10s"}
    )
    assert rate.kind == "rate" and rate.window_s == 10.0

    absence = AlertRule.from_dict(
        {"name": "quiet", "absent": "heartbeat", "for": "1m"}
    )
    assert absence.kind == "absence" and absence.window_s == 60.0

    with pytest.raises(AlertRuleError):
        AlertRule.from_dict({"expr": "x > 1"})  # no name
    with pytest.raises(AlertRuleError):
        AlertRule.from_dict({"name": "bad", "expr": "x >"})
    with pytest.raises(AlertRuleError):
        AlertRule.from_dict({"name": "bad", "expr": "x > 1",
                             "severity": "shrug"})
    with pytest.raises(AlertRuleError):
        AlertRule.from_dict({"name": "bad"})  # neither expr nor absent


def test_load_rules_json_and_toml(tmp_path):
    rules_json = tmp_path / "rules.json"
    rules_json.write_text(json.dumps({"rules": [
        {"name": "rss", "expr": "rss_bytes > 1G"},
        {"name": "deaths", "expr": "worker_deaths >= 1",
         "severity": "critical"},
    ]}))
    loaded = load_rules(rules_json)
    assert [r.name for r in loaded] == ["rss", "deaths"]
    assert loaded[1].severity == "critical"

    rules_toml = tmp_path / "rules.toml"
    rules_toml.write_text(
        '[[rules]]\nname = "rss"\nexpr = "rss_bytes > 1G"\n'
    )
    assert load_rules(rules_toml)[0].metric == "rss_bytes"

    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps([{"name": "a", "expr": "x > 1"},
                               {"name": "a", "expr": "y > 1"}]))
    with pytest.raises(AlertRuleError, match="duplicate"):
        load_rules(dup)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(AlertRuleError, match="invalid JSON"):
        load_rules(bad)
    with pytest.raises(AlertRuleError, match="cannot read"):
        load_rules(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# Alert evaluation
# ----------------------------------------------------------------------
def _health(t, **wall):
    return {"ev": "health", "wall": {"t": t, **wall}}


def test_engine_threshold_latches_once():
    engine = AlertEngine([
        AlertRule.from_dict({"name": "rss", "expr": "rss_bytes > 1K"})
    ])
    first = engine.observe({"t": 1.0, "kind": "sample", "rss_bytes": 4096})
    assert [a["rule"] for a in first] == ["rss"]
    assert first[0]["value"] == 4096
    again = engine.observe({"t": 2.0, "kind": "sample", "rss_bytes": 8192})
    assert again == []  # latched: one firing per run
    assert [a["rule"] for a in engine.firing] == ["rss"]


def test_engine_event_count_aliases():
    engine = AlertEngine([
        AlertRule.from_dict({"name": "deaths", "expr": "worker_deaths >= 2"})
    ])
    assert engine.observe({"t": 1.0, "kind": "worker_death"}) == []
    fired = engine.observe({"t": 2.0, "kind": "worker_death"})
    assert [a["rule"] for a in fired] == ["deaths"]
    assert fired[0]["value"] == 2


def test_evaluate_records_is_deterministic_and_reports_absence():
    records = [
        _health(1.0, kind="sample", rss_bytes=100),
        {"ev": "heartbeat", "wall": {"t": 2.0}},
        _health(60.0, kind="sample", rss_bytes=100),
    ]
    rules = (
        AlertRule.from_dict({"name": "quiet", "absent": "heartbeat",
                             "for": "10s"}),
        AlertRule.from_dict({"name": "rss", "expr": "rss_bytes > 1G"}),
    )
    first = evaluate_records(records, rules)
    assert [a["rule"] for a in first] == ["quiet"]  # tail-checked at 60s
    assert evaluate_records(records, rules) == first  # pure function


def test_evaluate_records_latches_prerecorded_alerts():
    records = [
        {"ev": "alert", "wall": {"rule": "rss", "severity": "warning"}},
        _health(1.0, kind="sample", rss_bytes=4096),
    ]
    rules = (AlertRule.from_dict({"name": "rss", "expr": "rss_bytes > 1K"}),)
    alerts = evaluate_records(records, rules)
    assert len(alerts) == 1  # the live-recorded alert, not a duplicate
    assert alerts[0]["severity"] == "warning"


def test_rate_rule_fires_on_sustained_growth():
    engine = AlertEngine([
        AlertRule.from_dict({"name": "leak", "expr": "rss_bytes > 100",
                             "kind": "rate", "window": "10s"})
    ])
    assert engine.observe({"t": 1.0, "kind": "sample",
                           "rss_bytes": 1000}) == []
    fired = engine.observe({"t": 3.0, "kind": "sample", "rss_bytes": 2000})
    assert [a["rule"] for a in fired] == ["leak"]  # 500 B/s > 100


# ----------------------------------------------------------------------
# Fleet state and summaries
# ----------------------------------------------------------------------
def test_fleet_state_tracks_procs_events_and_utilization():
    fleet = FleetState()
    fleet.update({"t": 1.0, "kind": "sample", "role": "worker",
                  "worker": 1, "pid": 99, "cpu_s": 1.0, "rss_bytes": 10})
    fleet.update({"t": 1.0, "kind": "sample", "role": "parent",
                  "pid": 10, "cpu_s": 0.5, "rss_bytes": 20})
    fleet.update({"t": 3.0, "kind": "sample", "role": "worker",
                  "worker": 1, "pid": 99, "cpu_s": 2.0, "rss_bytes": 30})
    fleet.update({"t": 3.0, "kind": "pool", "tasks": 4, "done": 2})
    fleet.update({"t": 3.5, "kind": "worker_death"})
    rows = fleet.rows()
    assert [p.role for p in rows] == ["parent", "worker"]  # parent-first
    worker = rows[1]
    assert worker.utilization == 0.5  # 1 cpu-second over 2 wall-seconds
    assert worker.rss_bytes == 30
    assert fleet.pool == {"tasks": 4, "done": 2}
    assert fleet.events == {"worker_death": 1}
    assert fleet.samples == 3


def test_summarize_and_flatten_health():
    records = [
        _health(1.0, kind="sample", role="parent", pid=1, cpu_s=2.5,
                rss_bytes=100, open_fds=8),
        _health(1.0, kind="sample", role="worker", worker=0, pid=2,
                cpu_s=1.0, rss_bytes=400),
        _health(2.0, kind="pool", tasks=4, done=4, throughput=3.25),
        _health(2.5, kind="worker_spawn"),
        _health(2.6, kind="worker_spawn"),
        {"ev": "alert", "wall": {"rule": "rss"}},
        {"ev": "span", "ph": "B", "id": 1, "name": "x", "wall": {}},
    ]
    summary = summarize_health(records)
    assert summary["samples"] == 2
    assert summary["alerts"] == 1
    assert summary["events"] == {"worker_spawn": 2}
    assert summary["peak_rss_bytes"] == 400
    assert summary["peak_worker_rss_bytes"] == 400
    assert summary["peak_open_fds"] == 8
    assert summary["parent_cpu_s"] == 2.5
    assert summary["throughput"] == 3.25

    flat = flatten_health(summary)
    assert flat["health.samples"] == 2.0
    assert flat["health.events.worker_spawn"] == 2.0
    assert flat["health.peak_rss_bytes"] == 400.0

    assert summarize_health([records[-1]]) == {}  # no health telemetry


def test_health_and_alert_records_are_id_free():
    """strip_wall must reduce health/alert records to bare markers so the
    span-id sequence — the determinism contract — is untouched."""
    health = _health(1.0, kind="sample", pid=1, rss_bytes=7)
    alert = {"ev": "alert", "wall": {"rule": "rss", "value": 7}}
    assert strip_wall(health) == {"ev": "health"}
    assert strip_wall(alert) == {"ev": "alert"}


# ----------------------------------------------------------------------
# Library session: sampler + live rules end to end
# ----------------------------------------------------------------------
def test_telemetry_session_emits_samples_and_live_alerts(tmp_path):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": [
        {"name": "tiny-rss", "expr": "rss_bytes > 1",
         "severity": "critical"},
    ]}))
    trace = tmp_path / "trace.jsonl"
    with telemetry_session(trace_path=str(trace), health_s=0.0001,
                           alert_rules=str(rules)):
        with OBS.tracer.span("unit.work"):
            OBS.tracer.health_tick()
    records = list(read_trace(trace))
    samples = [r for r in records if r.get("ev") == "health"
               and (r.get("wall") or {}).get("kind") == "sample"]
    assert samples, "due sampler must emit at least the parent sample"
    assert samples[0]["wall"]["role"] == "parent"
    alerts = [r for r in records if r.get("ev") == "alert"]
    assert [a["wall"]["rule"] for a in alerts] == ["tiny-rss"]
    assert alerts[0]["wall"]["severity"] == "critical"
    assert not OBS.enabled


# ----------------------------------------------------------------------
# CLI: the full operational surface
# ----------------------------------------------------------------------
def _rules_file(tmp_path, expr="rss_bytes > 1", name="tiny-rss"):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": [{"name": name, "expr": expr}]}))
    return path


def _instrumented_fuzz(tmp_path, extra=()):
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    assert main([
        "fuzz", "--platform", "comet_lake", "--patterns", "4",
        "--workers", "2", "--backend", "persistent",  # fork on 1-cpu hosts
        "--trace", str(trace), "--metrics-out", str(metrics),
        "--health", "0.001", *extra,
    ]) == 0
    return trace, metrics


def test_follower_alerts_match_post_hoc_evaluation(tmp_path):
    """``status``/``top`` and ``analyze --alerts`` fold one stream alike.

    Absence rules are left out: ``evaluate_records`` also checks them
    once more at the stream's end.
    """
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps({"rules": [
        {"name": "tiny-rss", "expr": "rss_bytes > 1"},
        {"name": "two-spawns", "expr": "worker_spawn >= 2"},
        {"name": "cpu-rate", "expr": "cpu_s >= 0", "kind": "rate",
         "window": "60s"},
    ]}))
    trace, _ = _instrumented_fuzz(
        tmp_path, extra=["--alert-rules", str(rules_path)]
    )
    records = list(read_trace(trace))
    assert any(r.get("ev") == "alert" for r in records)  # fired live
    rules = load_rules(rules_path)
    follower = TraceFollower(rules)
    for record in records:
        follower.feed(record)
    expected = evaluate_records(records, rules)
    assert follower.alerts == expected
    assert {"tiny-rss", "two-spawns"} <= {a["rule"] for a in expected}


def test_cli_analyze_alerts_gate_exit_codes(tmp_path, capsys):
    trace, _ = _instrumented_fuzz(tmp_path)
    capsys.readouterr()

    firing = _rules_file(tmp_path, expr="rss_bytes > 1")
    assert main(["analyze", str(trace), "--alerts", str(firing)]) == 1
    out = capsys.readouterr().out
    assert "alerts       :" in out
    assert "tiny-rss" in out

    quiet = tmp_path / "quiet.json"
    quiet.write_text(json.dumps({"rules": [
        {"name": "huge-rss", "expr": "rss_bytes > 1T"},
    ]}))
    assert main(["analyze", str(trace), "--alerts", str(quiet)]) == 0
    assert "alerts       : none firing" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["analyze", str(trace), "--alerts", str(bad)]) == 2


def test_cli_analyze_alerts_json_payload(tmp_path, capsys):
    trace, _ = _instrumented_fuzz(tmp_path)
    capsys.readouterr()
    rules = _rules_file(tmp_path)
    assert main(["analyze", str(trace), "--alerts", str(rules),
                 "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [a["rule"] for a in payload["alerts"]] == ["tiny-rss"]
    assert payload["health"]["samples"] > 0


def test_cli_status_renders_fleet_and_gates_on_alerts(tmp_path, capsys):
    trace, _ = _instrumented_fuzz(tmp_path)
    capsys.readouterr()

    assert main(["status", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "run      : fuzz on comet_lake/S3" in out
    assert "ROLE" in out and "parent" in out and "worker" in out
    assert "worker_spawn=" in out

    rules = _rules_file(tmp_path)
    assert main(["status", str(trace), "--rules", str(rules)]) == 1
    assert "[warning] tiny-rss" in capsys.readouterr().out

    assert main(["status", str(tmp_path / "nothing.jsonl")]) == 2


def test_cli_status_json_payload(tmp_path, capsys):
    trace, _ = _instrumented_fuzz(tmp_path)
    capsys.readouterr()
    rules = _rules_file(tmp_path)
    assert main(["status", str(trace), "--rules", str(rules),
                 "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    roles = {p["role"] for p in payload["procs"]}
    assert roles == {"parent", "worker"}
    assert all(p["rss_bytes"] > 0 for p in payload["procs"])
    assert payload["health_events"]["worker_spawn"] == 2
    assert [a["rule"] for a in payload["alerts"]] == ["tiny-rss"]
    assert payload["done"] is True


def test_cli_top_once(tmp_path, capsys):
    trace, _ = _instrumented_fuzz(tmp_path)
    capsys.readouterr()
    assert main(["top", str(trace), "--once"]) == 0
    out = capsys.readouterr().out
    assert out.count("phase    :") == 1  # exactly one final render
    assert "procs    :" in out

    assert main(["top", str(tmp_path / "nothing.jsonl"), "--once"]) == 2


def test_cli_inspect_events_filter(tmp_path, capsys):
    trace, _ = _instrumented_fuzz(tmp_path)
    capsys.readouterr()
    assert main(["inspect", str(trace), "--events", "health"]) == 0
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines()]
    assert lines and all(r["ev"] == "health" for r in lines)
    assert "record(s)" in captured.err

    assert main(["inspect", str(trace), "--events", "health,manifest",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["records"])
    kinds = {r["ev"] for r in payload["records"]}
    assert kinds == {"health", "manifest"}

    assert main(["inspect", str(trace), "--events", "nosuchkind"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0 record(s)" in captured.err


def test_cli_export_openmetrics_includes_health_gauges(tmp_path, capsys):
    _instrumented_fuzz(tmp_path)
    capsys.readouterr()
    assert main(["export", str(tmp_path), "--format", "openmetrics"]) == 0
    text = capsys.readouterr().out
    assert "# TYPE rhohammer_parent_rss_bytes gauge" in text
    assert "# TYPE rhohammer_worker_rss_bytes gauge" in text
    assert 'rhohammer_worker_rss_bytes{worker="0"}' in text
    assert 'rhohammer_worker_rss_bytes{worker="1"}' in text
    assert text.rstrip().endswith("# EOF")


def test_openmetrics_health_gauges_unit():
    records = [
        _health(1.0, kind="sample", role="parent", pid=1, cpu_s=2.0,
                rss_bytes=100, open_fds=4),
        _health(1.0, kind="sample", role="worker", worker=3, pid=9,
                cpu_s=1.0, rss_bytes=200),
        _health(2.0, kind="sample", role="worker", worker=3, pid=9,
                cpu_s=1.5, rss_bytes=300),  # latest sample wins
    ]
    text = openmetrics_text({"counters": {}}, health_records=records)
    assert "rhohammer_parent_rss_bytes 100" in text
    assert 'rhohammer_worker_rss_bytes{worker="3"} 300' in text
    assert 'rhohammer_worker_cpu_seconds{worker="3"} 1.5' in text
    assert "rhohammer_parent_open_fds 4" in text


def test_cli_rejects_bad_health_and_rules_configuration(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not rules")
    assert main([
        "fuzz", "--platform", "comet_lake", "--patterns", "2",
        "--trace", str(tmp_path / "t.jsonl"), "--alert-rules", str(bad),
    ]) == 2
    assert "error" in capsys.readouterr().err
    assert not OBS.enabled

    assert main([
        "fuzz", "--platform", "comet_lake", "--patterns", "2",
        "--trace", str(tmp_path / "t2.jsonl"), "--health", "0",
    ]) == 2
    assert "error" in capsys.readouterr().err
    assert not OBS.enabled


def test_parallel_health_run_matches_serial_snapshots(tmp_path):
    """Sampling + live alerts on must not perturb determinism: the
    stripped span stream is bit-identical with health telemetry on or
    off, and the non-wall, non-``health.*`` metric snapshot is
    bit-identical to a serial run (wall payloads and ``health.*``
    counters are the documented exclusions)."""
    rules = _rules_file(tmp_path)

    def run(tag, extra):
        trace = tmp_path / f"{tag}.jsonl"
        metrics = tmp_path / f"{tag}-metrics.json"
        assert main([
            "fuzz", "--platform", "comet_lake", "--patterns", "4",
            "--trace", str(trace), "--metrics-out", str(metrics), *extra,
        ]) == 0
        spans = [
            json.dumps(strip_wall(r), sort_keys=True)
            for r in read_trace(trace)
            if r.get("ev") == "span"
        ]
        snapshot = json.loads(metrics.read_text())["metrics"]
        clean = {
            # Gauges (process-local caches) are outside the identity
            # contract, matching test_parallel_metrics_match_serial.
            section: {
                k: v for k, v in snapshot[section].items()
                if "wall" not in k and not k.startswith("health.")
            }
            for section in ("counters", "histograms")
        }
        return spans, clean

    pool = ["--workers", "2", "--backend", "persistent"]
    serial = run("serial", [])
    plain = run("plain", pool)
    sampled = run("sampled", pool + [
        "--health", "0.001", "--alert-rules", str(rules),
    ])
    # Health sampling leaves the span-id stream untouched.
    assert plain[0] == sampled[0]
    # The metric contract vs serial survives sampling + live alerts.
    assert serial[1] == sampled[1]

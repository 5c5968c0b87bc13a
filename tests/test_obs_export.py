"""Trace/metric export tests: Chrome Trace Event Format + OpenMetrics."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.obs.analyze import RunLoadError
from repro.obs.export import chrome_trace, export_run, openmetrics_text

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_chrome_trace.json"

#: A hand-built, fully deterministic trace stream exercising the shapes
#: the exporter must handle: nested spans, a point event, a fork-worker
#: span replayed parent-side (its recorded begin postdates its
#: worker-measured child), and a heartbeat record (ignored).
TRACE_RECORDS = [
    {"ev": "manifest", "data": {
        "schema": "rhohammer-run-manifest/v1", "command": "fuzz",
        "platform": "raptor_lake", "dimm": "S3", "seed": 7,
        "scale": "quick", "git": "abc1234",
        "budget": {"patterns": 2, "workers": 2},
    }},
    {"ev": "span", "ph": "B", "id": 1, "name": "cli.fuzz", "parent": None,
     "attrs": {"patterns": 2}, "wall": {"t": 100.0}},
    {"ev": "span", "ph": "B", "id": 2, "name": "fuzz.campaign", "parent": 1,
     "attrs": {}, "wall": {"t": 100.1}},
    {"ev": "point", "name": "fuzz.pattern", "parent": 2,
     "attrs": {"flips": 3, "pattern": "double_sided"},
     "wall": {"t": 100.2}},
    # Replayed worker span: the parent-side B carries the replay-time
    # wall (100.5) while its same-tid child kept the worker-side begin
    # (100.15) — the exporter must snap the parent's begin back.
    {"ev": "span", "ph": "B", "id": 3, "name": "pool.task", "parent": 2,
     "attrs": {"task": 0}, "wall": {"t": 100.5}},
    {"ev": "span", "ph": "B", "id": 4, "name": "hammer.pattern",
     "parent": 3, "attrs": {}, "wall": {"t": 100.15}},
    {"ev": "span", "ph": "E", "id": 4, "name": "hammer.pattern",
     "attrs": {}, "wall": {"dur_s": 0.1, "worker": 4242}},
    {"ev": "span", "ph": "E", "id": 3, "name": "pool.task",
     "attrs": {"flips": 3}, "wall": {"dur_s": 0.2, "worker": 4242}},
    {"ev": "heartbeat", "wall": {"t": 100.4, "stack": ["cli.fuzz"]}},
    {"ev": "span", "ph": "E", "id": 2, "name": "fuzz.campaign",
     "attrs": {"flips": 3}, "wall": {"dur_s": 0.6}},
    {"ev": "span", "ph": "E", "id": 1, "name": "cli.fuzz", "attrs": {},
     "wall": {"dur_s": 1.0}},
]

METRICS = {
    "counters": {"dram.flips_total": 3, "dram.acts_total": 1200,
                 "pool.tasks{status=ok}": 2},
    "gauges": {"fuzz.best_pattern_flips": 2.0},
    "histograms": {
        "pool.task_wall_seconds": {
            "count": 2, "sum": 0.3, "min": 0.1, "max": 0.2, "mean": 0.15,
            "p50": 0.1, "p90": 0.2, "p99": 0.2,
            "buckets": [[0.1, 1], [0.25, 1]],
        },
    },
}


# ----------------------------------------------------------------------
# Chrome Trace Event Format
# ----------------------------------------------------------------------
def test_chrome_trace_matches_golden():
    payload = chrome_trace(TRACE_RECORDS, metrics=METRICS)
    golden = json.loads(GOLDEN.read_text())
    assert payload == golden


def test_chrome_trace_required_keys_every_event():
    events = chrome_trace(TRACE_RECORDS, metrics=METRICS)["traceEvents"]
    assert events
    for event in events:
        for key in ("name", "ph", "ts", "pid", "tid"):
            assert key in event, f"{event} missing required {key!r}"
        assert event["ph"] in {"B", "E", "i", "C", "M"}
        assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0


def _assert_tracks_nest(events: list[dict]) -> set[int]:
    """Per (pid, tid) track: B/E balance, containment, monotone ts.

    Returns the tids that carry events.
    """
    tracks: dict[int, list[dict]] = {}
    for event in events:
        if event["ph"] in {"B", "E", "i"}:
            tracks.setdefault(event["tid"], []).append(event)
    for tid, track in tracks.items():
        stack: list[dict] = []
        last_ts = 0.0
        for event in track:
            assert event["ts"] >= last_ts, f"tid {tid}: ts went backwards"
            last_ts = event["ts"]
            if event["ph"] == "B":
                stack.append(event)
            elif event["ph"] == "E":
                assert stack, f"tid {tid}: E without matching B"
                assert stack.pop()["name"] == event["name"]
        assert stack == [], f"tid {tid}: unclosed spans"
    return set(tracks)


def test_chrome_trace_tracks_nest_strictly():
    events = chrome_trace(TRACE_RECORDS, metrics=METRICS)["traceEvents"]
    assert _assert_tracks_nest(events) == {0, 4242}


@pytest.mark.parametrize("lines", range(1, len(TRACE_RECORDS) + 1))
def test_chrome_trace_of_a_killed_run_nests_strictly(lines):
    """A run killed after any line leaves spans open; they still export
    as strictly nested tracks."""
    events = chrome_trace(TRACE_RECORDS[:lines], metrics=METRICS)
    _assert_tracks_nest(events["traceEvents"])


def test_chrome_trace_replayed_span_reanchors_to_child():
    events = chrome_trace(TRACE_RECORDS, metrics=METRICS)["traceEvents"]
    task_b = next(e for e in events
                  if e["name"] == "pool.task" and e["ph"] == "B")
    child_b = next(e for e in events
                   if e["name"] == "hammer.pattern" and e["ph"] == "B")
    # replay-time begin (100.5s) snapped back to the worker-side child
    # begin (100.15s), 150 ms after the 100.0s origin
    assert task_b["ts"] == pytest.approx(150_000.0)
    assert task_b["ts"] <= child_b["ts"]


def test_chrome_trace_thread_and_process_metadata():
    payload = chrome_trace(TRACE_RECORDS, metrics=METRICS)
    meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
    names = {(e["name"], e["tid"]): e["args"]["name"] for e in meta}
    assert names[("process_name", 0)] == "rhohammer fuzz"
    assert names[("thread_name", 0)] == "main"
    assert names[("thread_name", 4242)] == "worker 4242"
    assert payload["otherData"]["command"] == "fuzz"
    assert payload["otherData"]["seed"] == 7


def test_chrome_trace_counter_events_from_metrics():
    events = chrome_trace(TRACE_RECORDS, metrics=METRICS)["traceEvents"]
    counters = {e["name"]: e["args"]["value"] for e in events
                if e["ph"] == "C"}
    assert counters["dram.flips_total"] == 3
    assert counters["fuzz.best_pattern_flips"] == 2.0


# ----------------------------------------------------------------------
# OpenMetrics exposition
# ----------------------------------------------------------------------
def test_openmetrics_text_golden():
    assert openmetrics_text(METRICS) == (
        "# TYPE dram_acts_total counter\n"
        "dram_acts_total 1200\n"
        "# TYPE dram_flips_total counter\n"
        "dram_flips_total 3\n"
        "# TYPE pool_tasks_total counter\n"
        'pool_tasks_total{status="ok"} 2\n'
        "# TYPE fuzz_best_pattern_flips gauge\n"
        "fuzz_best_pattern_flips 2\n"
        "# TYPE pool_task_wall_seconds histogram\n"
        'pool_task_wall_seconds_bucket{le="0.1"} 1\n'
        'pool_task_wall_seconds_bucket{le="0.25"} 2\n'
        "pool_task_wall_seconds_sum 0.3\n"
        "pool_task_wall_seconds_count 2\n"
        "# EOF\n"
    )


def test_openmetrics_inf_bucket_completes_the_count():
    metrics = {
        "histograms": {
            "h": {"count": 5, "sum": 9.0,
                  "buckets": [[1.0, 2]]},  # 3 overflow obs dropped
        }
    }
    text = openmetrics_text(metrics)
    assert 'h_bucket{le="+Inf"} 5' in text
    assert text.endswith("# EOF\n")


# ----------------------------------------------------------------------
# export_run + CLI
# ----------------------------------------------------------------------
def test_export_run_end_to_end(recorded_runs):
    run = recorded_runs(
        "export-fuzz", "fuzz", "--platform", "comet_lake", "--dimm", "S3",
        "--patterns", "2",
    )
    chrome = json.loads(export_run(run, "chrome"))
    assert chrome["traceEvents"]
    assert any(e["ph"] == "B" and e["name"] == "cli.fuzz"
               for e in chrome["traceEvents"])
    om = export_run(run, "openmetrics")
    assert "# TYPE" in om and om.endswith("# EOF\n")


def test_export_run_errors(tmp_path):
    with pytest.raises(ValueError, match="unknown export format"):
        export_run(tmp_path, "svg")
    with pytest.raises(RunLoadError):
        export_run(tmp_path / "missing", "chrome")
    # metrics without a trace: openmetrics works, chrome refuses
    only_metrics = tmp_path / "run"
    only_metrics.mkdir()
    (only_metrics / "metrics.json").write_text(json.dumps({
        "schema": "rhohammer-run-manifest/v1", "command": "fuzz",
        "metrics": {"counters": {"x": 1}},
    }))
    assert "x_total 1" in export_run(only_metrics, "openmetrics")
    with pytest.raises(RunLoadError, match="no trace stream"):
        export_run(only_metrics, "chrome")


def test_cli_export_writes_file_and_errors_cleanly(
    recorded_runs, tmp_path, capsys
):
    run = recorded_runs(
        "export-fuzz", "fuzz", "--platform", "comet_lake", "--dimm", "S3",
        "--patterns", "2",
    )
    out = tmp_path / "trace.chrome.json"
    assert main(["export", str(run), "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert json.loads(out.read_text())["traceEvents"]
    assert main(["export", str(run), "--format", "openmetrics"]) == 0
    assert capsys.readouterr().out.endswith("# EOF\n")
    assert main(["export", str(tmp_path / "missing")]) == 2
    assert "error" in capsys.readouterr().err

"""Trace analytics tests: rollups, critical path, utilization, tolerance."""

import json

import pytest

from repro.cli import main
from repro.obs.analyze import (
    RunArtifacts,
    RunLoadError,
    analyze_run,
    build_span_tree,
    format_analysis,
)

FUZZ_ARGS = (
    "fuzz", "--platform", "comet_lake", "--dimm", "S3", "--patterns", "4",
    "--workers", "2",
)


@pytest.fixture(scope="module")
def fuzz_run(recorded_runs):
    # The utilization assertions need a genuinely forked 2-worker pool;
    # lift the host-CPU cap so the recording forks even on 1-CPU CI.
    from repro.engine.executor import factory as factory_module

    mp = pytest.MonkeyPatch()
    mp.setattr(factory_module, "default_workers", lambda: 8)
    try:
        return recorded_runs("analyze-fuzz", *FUZZ_ARGS)
    finally:
        mp.undo()


def test_phase_rollups_cover_the_span_hierarchy(fuzz_run):
    analysis = analyze_run(fuzz_run)
    for phase in ("cli.fuzz", "fuzz.campaign", "pool.batch", "pool.task",
                  "hammer.pattern"):
        assert phase in analysis.phases, phase
    tasks = analysis.phases["pool.task"]
    assert tasks.count == 4
    assert tasks.errors == 0
    # Self time never exceeds inclusive time, per phase and in total.
    for rollup in analysis.phases.values():
        assert rollup.self_wall_s <= rollup.wall_s + 1e-9
    # hammer.pattern is a leaf: all its time is self time.
    leaf = analysis.phases["hammer.pattern"]
    assert leaf.self_wall_s == pytest.approx(leaf.wall_s)
    assert leaf.virtual_ns > 0


def test_critical_path_descends_from_the_root(fuzz_run):
    analysis = analyze_run(fuzz_run)
    path = [step["name"] for step in analysis.critical_path]
    assert path[0] == "cli.fuzz"
    assert "pool.task" in path
    assert path[-1] == "hammer.pattern"
    # Wall durations never grow while descending.
    walls = [step["wall_s"] for step in analysis.critical_path]
    assert walls == sorted(walls, reverse=True)
    assert analysis.critical_path[0]["of_total"] == 1.0


def test_worker_utilization_and_skew(fuzz_run):
    workers = analyze_run(fuzz_run).workers
    assert workers.batches == 1
    assert workers.configured_workers == 2
    assert workers.tasks == 4
    assert len(workers.busy_s_by_worker) == 2  # two distinct worker pids
    assert workers.utilization is not None and 0 < workers.utilization <= 1
    assert workers.skew is not None and workers.skew >= 1.0


def test_analysis_to_dict_is_json_ready(fuzz_run):
    payload = analyze_run(fuzz_run).to_dict()
    json.dumps(payload)  # must not raise
    assert payload["manifest"]["command"] == "fuzz"
    assert payload["events"] > 0
    assert payload["workers"]["utilization"] is not None
    assert payload["top_spans"][0]["name"] == "cli.fuzz"


def test_corrupt_trace_lines_are_skipped_and_counted(fuzz_run, tmp_path):
    mangled = tmp_path / "trace.jsonl"
    text = (fuzz_run / "trace.jsonl").read_text()
    lines = text.splitlines()
    # A truncated tail (killed mid-write), plus garbage mid-stream.
    lines.insert(3, '{"ev": "span", "ph": "B", "id":')
    lines.insert(7, "not json at all")
    lines.append('["a", "json", "array", "not", "an", "object"]')
    mangled.write_text("\n".join(lines) + "\n")
    analysis = analyze_run(mangled)
    assert analysis.skipped_lines == 3
    assert analysis.events == len(text.splitlines())
    assert "skipped 3 corrupt trace line(s)" in format_analysis(analysis)


def test_unclosed_spans_survive_analysis():
    roots, _, _ = build_span_tree([
        {"ev": "span", "ph": "B", "id": 1, "parent": None, "name": "a",
         "attrs": {}},
        {"ev": "span", "ph": "B", "id": 2, "parent": 1, "name": "b",
         "attrs": {}},
        # run killed: neither span closed
    ])
    assert len(roots) == 1
    assert not roots[0].closed
    assert roots[0].children[0].name == "b"


def test_open_spans_are_neither_tasks_nor_top_spans(tmp_path):
    """A killed run's open pool.task is not a finished task on worker ?."""
    records = [
        {"ev": "span", "ph": "B", "id": 1, "parent": None,
         "name": "pool.batch", "attrs": {"tasks": 2, "workers": 2}},
        {"ev": "span", "ph": "B", "id": 2, "parent": 1, "name": "pool.task",
         "attrs": {"index": 0}},
        {"ev": "span", "ph": "E", "id": 2, "attrs": {"status": "ok"},
         "wall": {"dur_s": 0.5, "worker": 101}},
        {"ev": "span", "ph": "B", "id": 3, "parent": 1, "name": "pool.task",
         "attrs": {"index": 1}},
        # run killed: task 3 and the batch never closed
    ]
    trace = tmp_path / "killed.jsonl"
    trace.write_text("".join(json.dumps(r) + "\n" for r in records))
    analysis = analyze_run(trace)
    workers = analysis.workers
    assert workers.tasks == 1
    assert "?" not in workers.busy_s_by_worker
    assert workers.tasks_by_worker == {"101": 1}
    assert workers.skew == 1.0
    assert [s["id"] for s in analysis.top_spans] == [2]
    assert analysis.phases["pool.task"].open_count == 1


def test_load_rejects_missing_and_empty_inputs(tmp_path):
    with pytest.raises(RunLoadError):
        RunArtifacts.load(tmp_path / "nope")
    (tmp_path / "empty").mkdir()
    with pytest.raises(RunLoadError):
        RunArtifacts.load(tmp_path / "empty")
    empty_trace = tmp_path / "empty.jsonl"
    empty_trace.write_text("")
    with pytest.raises(RunLoadError):
        analyze_run(empty_trace)


def test_cli_analyze_human_and_json(fuzz_run, capsys):
    assert main(["analyze", str(fuzz_run)]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "utilization=" in out

    assert main(["analyze", str(fuzz_run), "--json", "--top", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["top_spans"]) == 3
    assert "pool.task" in payload["phases"]


def test_cli_analyze_fails_on_bad_input(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing")]) == 2
    assert "error" in capsys.readouterr().err

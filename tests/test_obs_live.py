"""Live-follow tests: tailer, state machine, exit codes, heartbeats."""

from __future__ import annotations

import io
import json
import time

from repro.cli import main
from repro.obs import OBS, telemetry_session
from repro.obs.live import TraceFollower, _Tail, follow, resolve_trace_path
from repro.obs.trace import read_trace, strip_wall


def _span_b(span_id, name, parent=None, attrs=None, t=100.0):
    return {"ev": "span", "ph": "B", "id": span_id, "name": name,
            "parent": parent, "attrs": attrs or {}, "wall": {"t": t}}


def _span_e(span_id, name, attrs=None, dur=0.1):
    return {"ev": "span", "ph": "E", "id": span_id, "name": name,
            "attrs": attrs or {}, "wall": {"dur_s": dur}}


# ----------------------------------------------------------------------
# TraceFollower state machine
# ----------------------------------------------------------------------
def test_follower_tracks_stack_progress_and_flips():
    f = TraceFollower()
    f.feed({"ev": "manifest", "data": {"command": "fuzz",
                                       "platform": "p", "dimm": "d",
                                       "seed": 3}})
    f.feed(_span_b(1, "cli.fuzz"))
    f.feed(_span_b(2, "pool.batch", parent=1, attrs={"tasks": 4}))
    assert "cli.fuzz › pool.batch 0/4" in f.status_line()
    f.feed(_span_b(3, "pool.task", parent=2))
    f.feed(_span_e(3, "pool.task"))
    f.feed({"ev": "point", "name": "fuzz.pattern", "parent": 2,
            "attrs": {"flips": 5}, "wall": {"t": 100.2}})
    line = f.status_line()
    assert "pool.batch 1/4" in line
    assert "flips=5" in line
    f.feed(_span_e(2, "pool.batch"))
    f.feed(_span_e(1, "cli.fuzz"))
    assert f.state.done
    assert "run finished" in f.status_line()
    final = f.final_line()
    assert "run finished:" in final
    assert "fuzz on p/d seed=3" in final
    assert "flips=5" in final


def test_follower_heartbeat_advances_batch_progress():
    f = TraceFollower()
    f.feed(_span_b(1, "cli.fuzz"))
    f.feed(_span_b(2, "pool.batch", parent=1, attrs={"tasks": 6}))
    f.feed({"ev": "heartbeat",
            "wall": {"t": 1.0, "stack": ["cli.fuzz", "pool.batch"],
                     "phase": "pool.batch", "done": 3, "tasks": 6}})
    assert "pool.batch 3/6" in f.status_line()
    # span-derived progress wins once it catches up past the heartbeat
    for sid in (10, 11, 12, 13):
        f.feed(_span_b(sid, "pool.task", parent=2))
        f.feed(_span_e(sid, "pool.task"))
    assert "pool.batch 4/6" in f.status_line()


def test_follower_root_error_reported():
    f = TraceFollower()
    f.feed(_span_b(1, "cli.fuzz"))
    f.feed(_span_e(1, "cli.fuzz", attrs={"error": "ValueError: boom"}))
    assert f.state.done
    assert "failed (ValueError: boom)" in f.final_line()
    assert "errors=1" in f.final_line()


# ----------------------------------------------------------------------
# _Tail: partial lines and torn writes
# ----------------------------------------------------------------------
def test_tail_buffers_partial_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"ev":"span","ph":"B","id":1,"name":"a"}\n{"ev":"sp')
    tail = _Tail(str(path))
    assert tail.open_if_present()
    records = tail.drain()
    assert [r["name"] for r in records] == ["a"]
    # completing the torn line yields exactly the one record
    with open(path, "a") as fh:
        fh.write('an","ph":"E","id":1,"name":"a"}\n')
    records = tail.drain()
    assert [r["ph"] for r in records] == ["E"]
    assert tail.drain() == []
    tail.close()


def test_tail_skips_garbage_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('not json\n{"ev":"point","name":"p"}\n[1,2]\n')
    tail = _Tail(str(path))
    tail.open_if_present()
    records = tail.drain()
    assert len(records) == 1 and records[0]["ev"] == "point"
    tail.close()


def test_resolve_trace_path(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    assert resolve_trace_path(run) == str(run / "trace.jsonl")
    assert resolve_trace_path(run / "trace.jsonl") == str(run / "trace.jsonl")
    # a not-yet-created run dir still resolves to its future trace file
    assert resolve_trace_path(tmp_path / "later").endswith("trace.jsonl")


# ----------------------------------------------------------------------
# follow(): exit codes with injected clock/sleep (no real waiting)
# ----------------------------------------------------------------------
class _FakeTime:
    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def _write_run(path, *, close_root=True):
    records = [
        {"ev": "manifest", "data": {"command": "fuzz", "platform": "p",
                                    "dimm": "d", "seed": 1}},
        _span_b(1, "cli.fuzz"),
    ]
    if close_root:
        records.append(_span_e(1, "cli.fuzz"))
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_follow_completed_run_exits_zero(tmp_path):
    trace = tmp_path / "trace.jsonl"
    _write_run(trace)
    out = io.StringIO()
    ft = _FakeTime()
    assert follow(trace, stream=out, clock=ft.clock, sleep=ft.sleep) == 0
    assert "run finished" in out.getvalue()


def test_follow_stalled_run_exits_one(tmp_path):
    trace = tmp_path / "trace.jsonl"
    _write_run(trace, close_root=False)
    out = io.StringIO()
    ft = _FakeTime()
    code = follow(trace, interval=1.0, timeout=5.0, stream=out,
                  clock=ft.clock, sleep=ft.sleep)
    assert code == 1
    text = out.getvalue()
    assert "stalled for 5s" in text
    assert "still running" in text


def test_follow_missing_trace_exits_two(tmp_path):
    out = io.StringIO()
    ft = _FakeTime()
    code = follow(tmp_path / "never", interval=1.0, timeout=3.0,
                  stream=out, clock=ft.clock, sleep=ft.sleep)
    assert code == 2
    assert "no trace appeared" in out.getvalue()


def test_follow_once_modes(tmp_path):
    trace = tmp_path / "trace.jsonl"
    out = io.StringIO()
    assert follow(tmp_path / "nope", once=True, stream=out) == 2
    _write_run(trace, close_root=False)
    out = io.StringIO()
    assert follow(trace, once=True, stream=out) == 0
    assert "still running" in out.getvalue()
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = io.StringIO()
    assert follow(empty, once=True, stream=out) == 1


class _Terminal(io.StringIO):
    def isatty(self):
        return True


def test_follow_once_on_a_terminal_ends_the_progress_line(tmp_path):
    trace = tmp_path / "trace.jsonl"
    _write_run(trace, close_root=False)
    out = _Terminal()
    assert follow(trace, once=True, stream=out) == 0
    assert out.getvalue() == (
        "\r\x1b[2K[2 ev] cli.fuzz\n"
        "run still running: fuzz on p/d seed=1 — 2 event(s), 0 span(s), "
        "flips=0, errors=0\n"
    )


def test_cli_follow_once(recorded_runs, capsys):
    run = recorded_runs(
        "follow-fuzz", "fuzz", "--platform", "comet_lake", "--dimm", "S3",
        "--patterns", "2",
    )
    assert main(["follow", str(run), "--once"]) == 0
    assert "run finished" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Heartbeat emission: opt-in, id-free, determinism-neutral
# ----------------------------------------------------------------------
def test_heartbeats_opt_in_and_id_free(tmp_path):
    trace = tmp_path / "trace.jsonl"
    with telemetry_session(trace_path=str(trace), heartbeat_s=0.0005):
        with OBS.tracer.span("cli.fuzz"):
            for _ in range(3):
                time.sleep(0.002)  # sail past the rate-limit window
                OBS.tracer.heartbeat(phase="busy.loop", done=1)
    records = list(read_trace(trace))
    beats = [r for r in records if r.get("ev") == "heartbeat"]
    assert beats, "heartbeat_s set but no heartbeats recorded"
    for beat in beats:
        assert "id" not in beat
        assert set(beat) == {"ev", "wall"}
        assert isinstance(beat["wall"]["stack"], list)
    # at least one beat fired while the span was still open
    assert any(b["wall"]["stack"] == ["cli.fuzz"] for b in beats)
    # span ids are untouched by interleaved heartbeats
    spans = [r for r in records if r.get("ev") == "span"]
    assert {s["id"] for s in spans} == {1}
    # and stripping wall reduces every heartbeat to a constant record
    for beat in beats:
        assert strip_wall(beat) == {"ev": "heartbeat"}


def test_no_heartbeats_without_opt_in(tmp_path):
    trace = tmp_path / "trace.jsonl"
    with telemetry_session(trace_path=str(trace)):
        with OBS.tracer.span("cli.fuzz"):
            OBS.tracer.heartbeat(done=1)
    records = list(read_trace(trace))
    assert not any(r.get("ev") == "heartbeat" for r in records)


def test_heartbeats_are_rate_limited(tmp_path):
    trace = tmp_path / "trace.jsonl"
    with telemetry_session(trace_path=str(trace), heartbeat_s=3600.0):
        with OBS.tracer.span("cli.fuzz"):
            for _ in range(100):
                OBS.tracer.heartbeat(done=1)
    records = list(read_trace(trace))
    assert not any(r.get("ev") == "heartbeat" for r in records)


def test_heartbeat_streams_strip_identically(tmp_path):
    """Same seed with and without heartbeats: spans byte-identical."""
    outs = []
    for label, hb in (("a", None), ("b", 0.0001)):
        out = tmp_path / label
        code = main([
            "fuzz", "--platform", "comet_lake", "--dimm", "S3",
            "--patterns", "2", "--seed", "5", "--out", str(out),
            "--registry", "none",
        ] + (["--heartbeat", str(hb)] if hb else []))
        assert code == 0
        records = [strip_wall(r) for r in read_trace(out / "trace.jsonl")]
        # the manifest legitimately differs (it embeds argv / --out path)
        outs.append([r for r in records
                     if r.get("ev") not in ("heartbeat", "manifest")])
    assert outs[0] == outs[1]

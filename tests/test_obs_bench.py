"""Unified bench suite tests: schema, gate logic, CLI round trip."""

import copy
import json

import pytest

from repro.cli import main
from repro.obs.bench import (
    SCHEMA,
    TRAJECTORY_SCHEMA,
    append_trajectory,
    check_payload,
    run_suite,
    trajectory_entry,
)
from repro.obs.registry import RunRegistry


@pytest.fixture(scope="module")
def reveng_payload():
    return run_suite("quick", only=["reveng"])


def _synthetic_payload():
    return {
        "schema": SCHEMA,
        "suite": "quick",
        "benches": {
            "fuzz": {
                "checks": {
                    "total_flips": 100,
                    "bit_identical": True,
                    "virtual_s": 40.0,
                },
                "timings": {"wall_s": 2.0, "speedup": 1.8},
            },
        },
    }


def test_run_suite_payload_schema(reveng_payload):
    payload = reveng_payload
    assert payload["schema"] == SCHEMA
    assert payload["suite"] == "quick"
    assert payload["scale"] == "QUICK"
    assert payload["git"]
    assert set(payload["benches"]) == {"reveng"}
    bench = payload["benches"]["reveng"]
    assert bench["checks"]["fully_correct"] is True
    assert bench["checks"]["measurements"] > 0
    assert bench["checks"]["virtual_s"] > 0
    assert bench["timings"]["wall_s"] > 0
    json.dumps(payload)  # JSON-ready


def test_run_suite_rejects_unknown_bench():
    with pytest.raises(ValueError, match="unknown bench"):
        run_suite("quick", only=["warp_drive"])


def test_check_payload_passes_against_itself(reveng_payload):
    assert check_payload(reveng_payload, reveng_payload) == []
    assert check_payload(
        reveng_payload, copy.deepcopy(reveng_payload), wall_threshold=0.30
    ) == []


def test_check_payload_flags_numeric_drift():
    baseline = _synthetic_payload()
    current = copy.deepcopy(baseline)
    current["benches"]["fuzz"]["checks"]["total_flips"] = 80  # -20%
    failures = check_payload(current, baseline)
    assert any("total_flips" in f for f in failures)
    # Within tolerance: 4% move passes at the default ±5%.
    current["benches"]["fuzz"]["checks"]["total_flips"] = 96
    assert check_payload(current, baseline) == []


def test_check_payload_flags_boolean_flip_and_missing_bench():
    baseline = _synthetic_payload()
    current = copy.deepcopy(baseline)
    current["benches"]["fuzz"]["checks"]["bit_identical"] = False
    failures = check_payload(current, baseline)
    assert any("bit_identical" in f for f in failures)

    empty = copy.deepcopy(baseline)
    empty["benches"] = {}
    failures = check_payload(empty, baseline)
    assert failures == ["fuzz: missing from current run"]


def test_check_payload_rejects_schema_and_suite_mismatch():
    baseline = _synthetic_payload()
    current = copy.deepcopy(baseline)

    stale = copy.deepcopy(baseline)
    stale["schema"] = "rhohammer-bench-all/v0"
    assert any("schema" in f for f in check_payload(current, stale))

    full = copy.deepcopy(baseline)
    full["suite"] = "full"
    assert any("suite mismatch" in f for f in check_payload(current, full))


def test_wall_timings_gate_only_when_asked():
    baseline = _synthetic_payload()
    current = copy.deepcopy(baseline)
    current["benches"]["fuzz"]["timings"]["wall_s"] = 4.0  # 2x slower

    assert check_payload(current, baseline) == []  # ungated by default
    failures = check_payload(current, baseline, wall_threshold=0.30)
    assert any("wall_s" in f and "slower" in f for f in failures)

    # Speedups never fail, and non-seconds timing keys are never gated.
    faster = copy.deepcopy(baseline)
    faster["benches"]["fuzz"]["timings"]["wall_s"] = 0.5
    faster["benches"]["fuzz"]["timings"]["speedup"] = 0.1
    assert check_payload(faster, baseline, wall_threshold=0.30) == []


def test_cli_bench_round_trip(tmp_path, capsys):
    out = tmp_path / "BENCH_all.json"
    assert main([
        "bench", "--quick", "--only", "reveng", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["schema"] == SCHEMA

    # Self-gate: fresh identical-seed run against the file just written.
    again = tmp_path / "again.json"
    assert main([
        "bench", "--quick", "--only", "reveng", "--out", str(again),
        "--check", "--baseline", str(out),
    ]) == 0
    assert "bench gate ok" in capsys.readouterr().out

    # Perturbed baseline: deterministic drift must fail the gate.
    payload["benches"]["reveng"]["checks"]["measurements"] *= 2
    bad = tmp_path / "bad-baseline.json"
    bad.write_text(json.dumps(payload))
    assert main([
        "bench", "--quick", "--only", "reveng", "--out", str(again),
        "--check", "--baseline", str(bad),
    ]) == 1
    assert "bench gate FAILED" in capsys.readouterr().out

    # No baseline at all is its own, distinct error.
    assert main([
        "bench", "--quick", "--only", "reveng", "--out", str(again),
        "--check", "--baseline", str(tmp_path / "missing.json"),
    ]) == 2


def test_bench_json_output(tmp_path, capsys):
    out = tmp_path / "BENCH_all.json"
    assert main([
        "bench", "--quick", "--only", "reveng", "--out", str(out),
        "--json",
    ]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["schema"] == SCHEMA
    assert printed["benches"]["reveng"]["checks"]["fully_correct"] is True


def _full_payload():
    payload = _synthetic_payload()
    payload.update({
        "scale": "QUICK", "git": "abc1234",
        "wall": {"recorded": "2026-01-01T00:00:00+0000", "host": "ci"},
    })
    return payload


def test_trajectory_entry_keeps_numeric_timings_only():
    payload = _full_payload()
    payload["benches"]["fuzz"]["timings"]["converged"] = True
    entry = trajectory_entry(payload)
    assert entry == {
        "git": "abc1234", "recorded": "2026-01-01T00:00:00+0000",
        "suite": "quick", "scale": "QUICK", "host": "ci",
        "timings": {"fuzz.wall_s": 2.0, "fuzz.speedup": 1.8},
    }


def test_append_trajectory_one_line_per_entry(tmp_path):
    traj = tmp_path / "BENCH_trajectory.json"
    append_trajectory(_full_payload(), traj)
    append_trajectory(_full_payload(), traj)
    loaded = json.loads(traj.read_text())
    assert loaded["schema"] == TRAJECTORY_SCHEMA
    assert len(loaded["entries"]) == 2
    # diff-friendly: exactly one line per entry
    entry_lines = [
        line for line in traj.read_text().splitlines()
        if '"git"' in line
    ]
    assert len(entry_lines) == 2

    # a foreign-schema file is restarted, not corrupted further
    traj.write_text('{"schema": "something/else", "entries": [1, 2, 3]}')
    append_trajectory(_full_payload(), traj)
    loaded = json.loads(traj.read_text())
    assert loaded["schema"] == TRAJECTORY_SCHEMA
    assert len(loaded["entries"]) == 1


def test_cli_bench_registry_and_trajectory_wiring(
    tmp_path, capsys, monkeypatch
):
    import repro.obs.bench as bench_mod

    monkeypatch.setattr(
        bench_mod, "run_suite", lambda suite, only=None, progress=None:
        _full_payload()
    )
    out = tmp_path / "results" / "BENCH_all.json"
    db = tmp_path / "bench-registry.sqlite"
    traj = tmp_path / "traj.json"
    assert main([
        "bench", "--quick", "--out", str(out),
        "--registry", str(db), "--trajectory", str(traj),
    ]) == 0
    printed = capsys.readouterr().out
    assert "registry: recorded run #1" in printed
    assert "trajectory: appended entry" in printed
    with RunRegistry(db) as reg:
        records = reg.runs(kind="bench")
        assert len(records) == 1
        assert records[0].suite == "quick"
        samples = reg.samples_for(records[0].run_id)
        assert samples["bench.fuzz.checks.total_flips"] == 100.0
    assert len(json.loads(traj.read_text())["entries"]) == 1
    # default (no --registry): a registry.sqlite lands next to the results
    assert main(["bench", "--quick", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out.parent / "registry.sqlite").is_file()
    # and 'none' disables both explicitly
    clean = tmp_path / "clean" / "BENCH_all.json"
    assert main([
        "bench", "--quick", "--out", str(clean), "--registry", "none",
    ]) == 0
    capsys.readouterr()
    assert not (clean.parent / "registry.sqlite").exists()

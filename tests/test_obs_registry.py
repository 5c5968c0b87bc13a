"""Run registry tests: migrations, concurrency, queries, trends, CLI."""

from __future__ import annotations

import json
import sqlite3
import threading

import pytest

from repro.cli import main
from repro.obs.registry import (
    SCHEMA_VERSION,
    MetricTrend,
    RegistryError,
    RunRegistry,
    compute_trend,
    compute_trends,
    default_registry_path,
    flatten_bench,
    flatten_metrics,
    flatten_phases,
    format_history,
    format_trends,
)
from repro.obs.store import _MIGRATIONS, SqliteRunStore


def _manifest(flips=100, seed=1, git="abc1234", command="fuzz", **extra):
    manifest = {
        "command": command,
        "platform": "raptor_lake",
        "dimm": "S3",
        "seed": seed,
        "scale": "quick",
        "git": git,
        "budget": {"patterns": 4, "workers": 2},
        "exit_code": 0,
        "metrics": {
            "counters": {"dram.flips_total": flips, "dram.acts_total": 9000},
            "gauges": {"fuzz.best_pattern_flips": flips // 2},
            "histograms": {
                "pool.task_wall_seconds": {
                    "count": 4, "sum": 2.0, "mean": 0.5,
                    "p50": 0.4, "p90": 0.9, "p99": 1.0,
                }
            },
        },
    }
    manifest.update(extra)
    return manifest


# ----------------------------------------------------------------------
# Flattening
# ----------------------------------------------------------------------
def test_flatten_metrics_sections_and_bools():
    flat = flatten_metrics(
        {
            "counters": {"a.b": 3, "skip": "text"},
            "gauges": {"ok": True},
            "histograms": {"h": {"count": 2, "mean": 1.5, "buckets": [[1, 2]]}},
        }
    )
    assert flat["counters.a.b"] == 3.0
    assert flat["gauges.ok"] == 1.0
    assert flat["histograms.h.count"] == 2.0
    assert flat["histograms.h.mean"] == 1.5
    assert "counters.skip" not in flat
    assert not any("buckets" in k for k in flat)


def test_flatten_phases_and_bench():
    phases = {"fuzz.campaign": {"count": 1, "wall_s": 2.5, "self_wall_s": 0.5,
                                "virtual_s": 9.0, "errors": 0}}
    flat = flatten_phases(phases)
    assert flat["phases.fuzz.campaign.wall_s"] == 2.5
    assert "phases.fuzz.campaign.errors" not in flat  # not a tracked stat

    bench = flatten_bench(
        {"benches": {"fuzz": {"checks": {"total_flips": 7, "ok": True},
                              "timings": {"wall_s": 1.25}}}}
    )
    assert bench["bench.fuzz.checks.total_flips"] == 7.0
    assert bench["bench.fuzz.checks.ok"] == 1.0
    assert bench["bench.fuzz.timings.wall_s"] == 1.25


# ----------------------------------------------------------------------
# Recording and querying
# ----------------------------------------------------------------------
def test_record_and_query_round_trip(tmp_path):
    db = tmp_path / "registry.sqlite"
    with RunRegistry(db) as reg:
        run_id = reg.record_run(
            _manifest(), phases={"cli.fuzz": {"count": 1, "wall_s": 3.0}},
            recorded_at="2026-01-01T00:00:00+0000",
        )
        assert run_id == 1
        records = reg.runs()
        assert len(records) == 1
        rec = records[0]
        assert rec.kind == "run"
        assert rec.command == "fuzz"
        assert rec.platform == "raptor_lake"
        assert rec.seed == 1
        assert rec.exit_code == 0
        samples = reg.samples_for(run_id)
        assert samples["counters.dram.flips_total"] == 100.0
        assert samples["phases.cli.fuzz.wall_s"] == 3.0
        assert samples["budget.patterns"] == 4.0
        assert samples["histograms.pool.task_wall_seconds.p90"] == 0.9


def test_runs_filters_and_newest_limit(tmp_path):
    db = tmp_path / "registry.sqlite"
    with RunRegistry(db) as reg:
        for i in range(5):
            reg.record_run(_manifest(seed=i, git=f"g{i}-dirty"))
        reg.record_run(_manifest(command="sweep", seed=9))
        assert len(reg.runs()) == 6
        assert [r.seed for r in reg.runs(command="fuzz")] == [0, 1, 2, 3, 4]
        # limit keeps the newest N, still reported oldest-first
        assert [r.seed for r in reg.runs(command="fuzz", limit=2)] == [3, 4]
        assert [r.run_id for r in reg.runs(git="g2")] == [3]
        assert reg.runs(platform="comet_lake") == []


def test_record_bench_and_metric_keys(tmp_path):
    db = tmp_path / "registry.sqlite"
    payload = {
        "schema": "rhohammer-bench-all/v1", "suite": "quick",
        "scale": "QUICK", "git": "abc",
        "benches": {"fuzz": {"checks": {"total_flips": 12},
                             "timings": {"wall_s": 0.5}}},
    }
    with RunRegistry(db) as reg:
        run_id = reg.record_bench(payload)
        rec = reg.runs(kind="bench")[0]
        assert rec.suite == "quick"
        assert rec.command == "bench"
        assert reg.samples_for(run_id)["bench.fuzz.checks.total_flips"] == 12.0
        assert reg.metric_keys("bench.*.checks.*") == [
            "bench.fuzz.checks.total_flips"
        ]


def test_series_skips_runs_without_the_metric(tmp_path):
    db = tmp_path / "registry.sqlite"
    with RunRegistry(db) as reg:
        reg.record_run(_manifest(flips=10))
        reg.record_run({"command": "fuzz", "metrics": {}})
        reg.record_run(_manifest(flips=30))
        points = reg.series("counters.dram.flips_total")
        assert [p.value for p in points] == [10.0, 30.0]
        assert [p.run_id for p in points] == [1, 3]


# ----------------------------------------------------------------------
# Schema versioning and migration
# ----------------------------------------------------------------------
def _build_v1_db(path):
    """A database exactly as schema v1 wrote it, with one recorded run."""
    conn = sqlite3.connect(path)
    for statement in _MIGRATIONS[1]:
        conn.execute(statement)
    conn.execute("PRAGMA user_version = 1")
    conn.execute(
        "INSERT INTO runs (recorded_at, kind, command, platform, dimm,"
        " seed, scale, git, exit_code)"
        " VALUES ('2025-12-01T00:00:00+0000', 'run', 'fuzz', 'raptor_lake',"
        " 'S3', 7, 'quick', 'old1234', 0)"
    )
    conn.execute(
        "INSERT INTO samples (run_id, key, value)"
        " VALUES (1, 'counters.dram.flips_total', 42.0)"
    )
    conn.commit()
    conn.close()


def test_migration_round_trip_preserves_v1_data(tmp_path):
    db = tmp_path / "registry.sqlite"
    _build_v1_db(db)
    with RunRegistry(db) as reg:
        assert reg.schema_version == SCHEMA_VERSION
        rec = reg.runs()[0]
        assert rec.seed == 7
        assert rec.suite is None  # column added by the v2 migration
        assert reg.samples_for(rec.run_id) == {
            "counters.dram.flips_total": 42.0
        }
        # the migrated database accepts new-schema writes
        reg.record_bench({"suite": "quick", "scale": "QUICK", "git": "g",
                          "benches": {}})
        assert [r.kind for r in reg.runs()] == ["run", "bench"]
    # reopening is idempotent — no second migration, data intact
    with RunRegistry(db) as reg:
        assert reg.schema_version == SCHEMA_VERSION
        assert len(reg.runs()) == 2


def test_newer_schema_version_is_refused(tmp_path):
    db = tmp_path / "registry.sqlite"
    conn = sqlite3.connect(db)
    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
    conn.commit()
    conn.close()
    with pytest.raises(RegistryError, match="newer"):
        RunRegistry(db)


def test_concurrent_writers_one_db(tmp_path):
    """Two independent connections interleaving writes lose nothing."""
    db = tmp_path / "registry.sqlite"
    per_writer = 8
    errors: list[Exception] = []

    def writer(tag: int) -> None:
        try:
            with RunRegistry(db) as reg:
                for i in range(per_writer):
                    reg.record_run(_manifest(seed=tag * 1000 + i))
        except Exception as exc:  # pragma: no cover - fails the assert below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    with RunRegistry(db) as reg:
        records = reg.runs()
        assert len(records) == 2 * per_writer
        assert sorted(r.seed for r in records) == sorted(
            t * 1000 + i for t in (1, 2) for i in range(per_writer)
        )
        # every run kept its full sample set (no torn transactions)
        for rec in records:
            assert reg.samples_for(rec.run_id)[
                "counters.dram.flips_total"
            ] == 100.0


# ----------------------------------------------------------------------
# Trends
# ----------------------------------------------------------------------
def _series(values, db_path, metric_manifest=_manifest):
    with RunRegistry(db_path) as reg:
        for i, v in enumerate(values):
            reg.record_run(metric_manifest(flips=v, git=f"g{i}"))
        return reg.series("counters.dram.flips_total")


def test_trend_classifications(tmp_path):
    points = _series([100, 102, 99, 101, 100, 60], tmp_path / "a.sqlite")
    trend = compute_trend("counters.dram.flips_total", points)
    assert trend.direction == "higher"
    assert trend.classification == "regression"
    assert trend.baseline == 100.0  # rolling median of the window
    assert trend.gated and trend.regressed

    up = compute_trend(
        "counters.dram.flips_total",
        _series([100, 101, 100, 150], tmp_path / "b.sqlite"),
    )
    assert up.classification == "improvement"

    flat = compute_trend(
        "counters.dram.flips_total",
        _series([100, 101, 100, 102], tmp_path / "c.sqlite"),
    )
    assert flat.classification == "neutral"

    short = compute_trend(
        "counters.dram.flips_total", _series([5], tmp_path / "d.sqlite")
    )
    assert short.classification == "insufficient"
    assert not short.regressed


def test_trend_window_bounds_the_median(tmp_path):
    # Old fast history must age out of the window: with window=3 the
    # median sees only the recent slow plateau, so the latest value is
    # neutral, not an improvement against ancient numbers.
    points = _series([10, 10, 200, 200, 200, 200], tmp_path / "w.sqlite")
    trend = compute_trend("counters.dram.flips_total", points, window=3)
    assert trend.baseline == 200.0
    assert trend.classification == "neutral"


def test_wall_metrics_lax_and_ungated_by_default():
    trend = MetricTrend  # silence lint about unused import pattern
    del trend
    from repro.obs.registry import TrendPoint

    def pts(values):
        return [
            TrendPoint(run_id=i + 1, recorded_at="t", git="g", value=v)
            for i, v in enumerate(values)
        ]

    wall = compute_trend("phases.cli.fuzz.wall_s", pts([1.0, 1.0, 1.2]))
    assert wall.wall
    assert wall.classification == "neutral"  # +20% within the lax 30%
    slow = compute_trend("phases.cli.fuzz.wall_s", pts([1.0, 1.0, 2.0]))
    assert slow.classification == "regression"
    assert not slow.gated and not slow.regressed  # informational only
    gated = compute_trend(
        "phases.cli.fuzz.wall_s", pts([1.0, 1.0, 2.0]), gate_wall=True
    )
    assert gated.regressed


def test_compute_trends_glob_expansion(tmp_path):
    db = tmp_path / "registry.sqlite"
    with RunRegistry(db) as reg:
        reg.record_run(_manifest(flips=10))
        reg.record_run(_manifest(flips=20))
        trends = compute_trends(reg, ["counters.dram.*", "missing.metric"])
        names = [t.metric for t in trends]
        assert "counters.dram.flips_total" in names
        assert "counters.dram.acts_total" in names
        missing = [t for t in trends if t.metric == "missing.metric"]
        assert missing and missing[0].classification == "insufficient"
        text = format_trends(trends)
        assert "counters.dram.flips_total" in text
        assert "verdict:" in text


# ----------------------------------------------------------------------
# Default path resolution
# ----------------------------------------------------------------------
def test_default_registry_path_rules(tmp_path, monkeypatch):
    monkeypatch.delenv("RHOHAMMER_REGISTRY", raising=False)
    assert default_registry_path(None) is None
    out = tmp_path / "runs" / "a"
    assert default_registry_path(out) == str(tmp_path / "runs" / "registry.sqlite")
    monkeypatch.setenv("RHOHAMMER_REGISTRY", str(tmp_path / "x.sqlite"))
    assert default_registry_path(out) == str(tmp_path / "x.sqlite")
    monkeypatch.setenv("RHOHAMMER_REGISTRY", "none")
    assert default_registry_path(out) is None


# ----------------------------------------------------------------------
# CLI: history and trends (golden JSON output)
# ----------------------------------------------------------------------
@pytest.fixture()
def seeded_db(tmp_path):
    db = tmp_path / "registry.sqlite"
    with RunRegistry(db) as reg:
        for i, flips in enumerate([100, 101, 99, 100, 40]):
            reg.record_run(
                _manifest(flips=flips, seed=7, git=f"aaa{i}"),
                recorded_at=f"2026-01-0{i + 1}T00:00:00+0000",
            )
    return db


def test_cli_history_golden_json(seeded_db, capsys):
    code = main(
        ["history", "--registry", str(seeded_db), "--limit", "2", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "registry": str(seeded_db),
        "runs": [
            {
                "command": "fuzz", "dimm": "S3", "exit_code": 0,
                "git": "aaa3", "id": 4, "kind": "run",
                "platform": "raptor_lake",
                "recorded_at": "2026-01-04T00:00:00+0000",
                "scale": "quick", "seed": 7, "suite": None, "tag": None,
            },
            {
                "command": "fuzz", "dimm": "S3", "exit_code": 0,
                "git": "aaa4", "id": 5, "kind": "run",
                "platform": "raptor_lake",
                "recorded_at": "2026-01-05T00:00:00+0000",
                "scale": "quick", "seed": 7, "suite": None, "tag": None,
            },
        ],
    }


def test_cli_history_table_and_filters(seeded_db, capsys):
    assert main(["history", "--registry", str(seeded_db)]) == 0
    out = capsys.readouterr().out
    assert "5 run(s)" in out
    assert "raptor_lake/S3 seed=7" in out
    assert main(
        ["history", "--registry", str(seeded_db), "--platform", "comet_lake"]
    ) == 0
    assert "no matching runs" in capsys.readouterr().out


def test_cli_trends_golden_json_and_check_gate(seeded_db, capsys):
    code = main(
        ["trends", "counters.dram.flips_total", "--registry", str(seeded_db),
         "--json", "--check"]
    )
    assert code == 1  # the 100 -> 40 drop gates
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "registry": str(seeded_db),
        "trends": [
            {
                "metric": "counters.dram.flips_total",
                "direction": "higher",
                "wall": False,
                "baseline": 100.0,
                "latest": 40.0,
                "rel": -0.6,
                "classification": "regression",
                "gated": True,
                "points": [
                    {"run": 1, "recorded_at": "2026-01-01T00:00:00+0000",
                     "git": "aaa0", "value": 100.0},
                    {"run": 2, "recorded_at": "2026-01-02T00:00:00+0000",
                     "git": "aaa1", "value": 101.0},
                    {"run": 3, "recorded_at": "2026-01-03T00:00:00+0000",
                     "git": "aaa2", "value": 99.0},
                    {"run": 4, "recorded_at": "2026-01-04T00:00:00+0000",
                     "git": "aaa3", "value": 100.0},
                    {"run": 5, "recorded_at": "2026-01-05T00:00:00+0000",
                     "git": "aaa4", "value": 40.0},
                ],
            }
        ],
    }


def test_cli_trends_without_check_reports_but_exits_zero(seeded_db, capsys):
    code = main(
        ["trends", "counters.dram.flips_total", "--registry", str(seeded_db)]
    )
    assert code == 0
    assert "regression" in capsys.readouterr().out


def test_cli_missing_registry_is_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RHOHAMMER_REGISTRY", raising=False)
    assert main(["history"]) == 2
    assert "no registry" in capsys.readouterr().err
    missing = tmp_path / "nope.sqlite"
    assert main(["history", "--registry", str(missing)]) == 2
    assert "no registry database" in capsys.readouterr().err


# ----------------------------------------------------------------------
# End-to-end: an instrumented CLI run auto-registers
# ----------------------------------------------------------------------
def test_fuzz_run_with_out_auto_registers(recorded_runs, capsys):
    run = recorded_runs(
        "registry-fuzz", "fuzz", "--platform", "comet_lake", "--dimm", "S3",
        "--patterns", "3",
    )
    db = run.parent / "registry.sqlite"
    assert db.is_file()
    with RunRegistry(db) as reg:
        records = reg.runs(command="fuzz", platform="comet_lake")
        assert records
        samples = reg.samples_for(records[-1].run_id)
        assert "counters.dram.flips_total" in samples
        # per-phase rollups from the trace landed too
        assert "phases.cli.fuzz.wall_s" in samples
        assert "phases.fuzz.campaign.count" in samples
    capsys.readouterr()  # swallow the run's report


def test_registry_flag_none_disables_recording(tmp_path, capsys):
    out = tmp_path / "runs" / "a"
    code = main(
        ["fuzz", "--platform", "comet_lake", "--patterns", "2",
         "--out", str(out), "--registry", "none"]
    )
    assert code == 0
    assert not (tmp_path / "runs" / "registry.sqlite").exists()
    capsys.readouterr()


def test_registry_failure_never_fails_the_run(tmp_path, capsys):
    out = tmp_path / "runs" / "a"
    bad = tmp_path / "missing-dir" / "sub" / "registry.sqlite"
    code = main(
        ["fuzz", "--platform", "comet_lake", "--patterns", "2",
         "--out", str(out), "--registry", str(bad)]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "warning: run registry" in err


def test_history_format_renders_bench_rows(tmp_path):
    db = tmp_path / "registry.sqlite"
    with RunRegistry(db) as reg:
        reg.record_bench({"suite": "quick", "scale": "QUICK", "git": "g",
                          "benches": {}})
        text = format_history(reg.runs(), reg)
    assert "suite=quick" in text
    assert "bench" in text


# ----------------------------------------------------------------------
# SqliteRunStore storage layer
# ----------------------------------------------------------------------
def test_sqlite_store_satisfies_runstore_contract(tmp_path):
    with SqliteRunStore(tmp_path / "registry.sqlite") as store:
        assert store.schema_version == SCHEMA_VERSION
        run_id = store.insert_run(
            {"recorded_at": "2026-01-01T00:00:00+0000", "kind": "run",
             "command": "fuzz", "seed": 3},
            {"counters.dram.flips_total": 9.0},
        )
        rows = store.query_runs({"kind": "run"})
        assert [r["id"] for r in rows] == [run_id]
        assert rows[0]["seed"] == 3
        assert store.samples_for(run_id) == {
            "counters.dram.flips_total": 9.0
        }
        assert store.sample_keys() == ["counters.dram.flips_total"]
        assert store.sample_value(run_id, "counters.dram.flips_total") == 9.0
        assert store.sample_value(run_id, "nope") is None


def test_sqlite_store_rejects_unknown_fields_and_filters(tmp_path):
    with SqliteRunStore(tmp_path / "registry.sqlite") as store:
        with pytest.raises(RegistryError, match="unknown run fields"):
            store.insert_run({"kind": "run", "recorded_at": "t",
                              "bogus": 1}, {})
        with pytest.raises(RegistryError, match="unknown filter"):
            store.query_runs({"bogus": 1})


# ----------------------------------------------------------------------
# Retention: tag / stats / gc
# ----------------------------------------------------------------------
from datetime import datetime, timedelta, timezone  # noqa: E402


def _seed_synthetic(db, count):
    """Bulk-insert ``count`` runs, one per hour from 2026-01-01, in one
    transaction (``insert_runs``), each carrying one sample."""
    base = datetime(2026, 1, 1, tzinfo=timezone.utc)
    rows = []
    for i in range(count):
        stamp = (base + timedelta(hours=i)).strftime("%Y-%m-%dT%H:%M:%S%z")
        rows.append((
            {"recorded_at": stamp, "kind": "run", "command": "fuzz",
             "platform": "raptor_lake", "dimm": "S3", "seed": i,
             "scale": "quick", "git": f"g{i:04d}", "suite": None,
             "exit_code": 0, "tag": None},
            {"counters.dram.flips_total": float(i)},
        ))
    with RunRegistry(db) as reg:
        return reg.store.insert_runs(rows)


def test_record_run_is_one_write_transaction(tmp_path):
    """The acceptance budget is <= 3 transactions per recorded run; the
    batched insert path actually needs exactly one."""
    with RunRegistry(tmp_path / "registry.sqlite") as reg:
        before = reg.store.write_transactions
        reg.record_run(_manifest())
        assert reg.store.write_transactions - before == 1
        before = reg.store.write_transactions
        reg.record_bench({"suite": "quick", "scale": "QUICK", "git": "g",
                          "benches": {}})
        assert reg.store.write_transactions - before == 1


def test_gc_round_trips_a_thousand_run_registry(tmp_path):
    db = tmp_path / "registry.sqlite"
    ids = _seed_synthetic(db, 1000)
    assert ids == list(range(1, 1001))
    now = datetime(2026, 1, 1, tzinfo=timezone.utc) + timedelta(hours=1000)
    with RunRegistry(db) as reg:
        assert reg.tag(ids[0], "baseline")  # pin the oldest run

        # Dry run: full report, nothing deleted.
        report = reg.gc(keep_last=100, dry_run=True)
        assert report.examined == 1000
        assert report.pruned == 899  # 1000 - 100 newest - 1 tagged
        assert report.kept_tagged == 1
        assert report.dry_run and not report.vacuumed
        assert len(reg.runs()) == 1000

        # Age policy: everything recorded > 500h before `now` expires,
        # except the tagged anchor.
        report = reg.gc(max_age_days=500 / 24.0, now=now)
        assert report.pruned == 499
        assert report.kept_tagged == 1
        remaining = reg.runs()
        assert len(remaining) == 501
        assert remaining[0].run_id == ids[0]
        assert remaining[0].tag == "baseline"

        # Count policy with tag protection off: prune to the newest 50.
        report = reg.gc(keep_last=50, keep_tagged=False)
        assert report.pruned == 451
        remaining = reg.runs()
        assert [r.run_id for r in remaining] == ids[-50:]
        # Survivors' samples round-trip intact.
        assert reg.samples_for(remaining[-1].run_id) == {
            "counters.dram.flips_total": 999.0
        }
        stats = reg.stats()
        assert stats["runs"] == 50 and stats["samples"] == 50
        assert stats["tagged"] == 0


def test_gc_requires_a_policy_and_validates(tmp_path):
    db = tmp_path / "registry.sqlite"
    _seed_synthetic(db, 3)
    with RunRegistry(db) as reg:
        with pytest.raises(RegistryError, match="retention policy"):
            reg.gc()
        with pytest.raises(RegistryError, match=">= 0"):
            reg.gc(keep_last=-1)
        with pytest.raises(RegistryError, match=">= 0"):
            reg.gc(max_age_days=-0.5)
        # Unparseable stamps never age out.
        reg.store.insert_run(
            {"recorded_at": "not-a-timestamp", "kind": "run"}, {}
        )
        report = reg.gc(max_age_days=0.0,
                        now=datetime(2027, 1, 1, tzinfo=timezone.utc))
        assert report.examined == 4
        assert report.pruned == 3  # the unparseable row was kept


def test_migration_v2_to_v3_adds_tag(tmp_path):
    db = tmp_path / "registry.sqlite"
    conn = sqlite3.connect(db)
    for version in (1, 2):
        for statement in _MIGRATIONS[version]:
            conn.execute(statement)
    conn.execute("PRAGMA user_version = 2")
    conn.execute(
        "INSERT INTO runs (recorded_at, kind, command, platform, dimm,"
        " seed, scale, git, suite, exit_code)"
        " VALUES ('2025-12-01T00:00:00+0000', 'run', 'fuzz', 'raptor_lake',"
        " 'S3', 7, 'quick', 'old1234', NULL, 0)"
    )
    conn.commit()
    conn.close()
    with RunRegistry(db) as reg:
        assert reg.schema_version == SCHEMA_VERSION
        rec = reg.runs()[0]
        assert rec.tag is None  # column added by the v3 migration
        assert reg.tag(rec.run_id, "pinned")
        assert reg.runs()[0].tag == "pinned"


def test_migration_v3_to_v4_adds_health(tmp_path):
    db = tmp_path / "registry.sqlite"
    conn = sqlite3.connect(db)
    for version in (1, 2, 3):
        for statement in _MIGRATIONS[version]:
            conn.execute(statement)
    conn.execute("PRAGMA user_version = 3")
    conn.execute(
        "INSERT INTO runs (recorded_at, kind, command, platform, dimm,"
        " seed, scale, git, suite, exit_code, tag)"
        " VALUES ('2025-12-01T00:00:00+0000', 'run', 'fuzz', 'raptor_lake',"
        " 'S3', 7, 'quick', 'old1234', NULL, 0, NULL)"
    )
    conn.commit()
    conn.close()
    with RunRegistry(db) as reg:
        assert reg.schema_version == SCHEMA_VERSION
        rec = reg.runs()[0]
        assert rec.health is None  # column added by the v4 migration
        assert "health" not in rec.to_dict()  # pre-v4 payload shape
        # the migrated database accepts health-bearing writes
        reg.record_run(
            _manifest(flips=5),
            health={"samples": 3, "events": {"worker_spawn": 2}},
        )
        assert reg.runs()[1].health["samples"] == 3


def test_record_run_persists_health_column_and_samples(tmp_path):
    db = tmp_path / "registry.sqlite"
    summary = {
        "samples": 4,
        "alerts": 1,
        "events": {"worker_spawn": 2, "chunk_retry": 1},
        "peak_rss_bytes": 1024,
        "throughput": 2.5,
    }
    with RunRegistry(db) as reg:
        run_id = reg.record_run(_manifest(flips=10), health=summary)
        rec = reg.runs()[0]
        assert rec.health == summary
        assert rec.to_dict()["health"] == summary
        samples = reg.samples_for(run_id)
        assert samples["health.samples"] == 4.0
        assert samples["health.events.worker_spawn"] == 2.0
        assert samples["health.peak_rss_bytes"] == 1024.0
        assert samples["health.throughput"] == 2.5
        # runs recorded without health stay NULL, not "{}"
        reg.record_run(_manifest(flips=11))
        assert reg.runs()[1].health is None


def test_corrupt_health_column_degrades_to_none(tmp_path):
    db = tmp_path / "registry.sqlite"
    with RunRegistry(db) as reg:
        reg.record_run(_manifest(flips=10), health={"samples": 1})
    conn = sqlite3.connect(db)
    conn.execute("UPDATE runs SET health = 'not json' WHERE id = 1")
    conn.commit()
    conn.close()
    with RunRegistry(db) as reg:
        assert reg.runs()[0].health is None


def test_cli_registry_gc_stats_and_tag(tmp_path, capsys):
    db = tmp_path / "registry.sqlite"
    _seed_synthetic(db, 10)
    assert main(
        ["registry", "tag", "--registry", str(db), "1", "baseline"]
    ) == 0
    assert main(["registry", "stats", "--registry", str(db)]) == 0
    out = capsys.readouterr().out
    assert "run 1: tagged [baseline]" in out
    assert "runs:      10" in out
    assert "tagged:    1" in out

    code = main(["registry", "gc", "--registry", str(db),
                 "--keep-last", "3", "--dry-run", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gc"]["pruned"] == 6  # 10 - 3 newest - 1 tagged
    assert payload["gc"]["dry_run"] is True

    assert main(["registry", "gc", "--registry", str(db),
                 "--keep-last", "3"]) == 0
    assert "pruned 6" in capsys.readouterr().out
    with RunRegistry(db) as reg:
        assert len(reg.runs()) == 4  # newest 3 + the tagged anchor

    assert main(["registry", "gc", "--registry", str(db)]) == 2
    assert "retention policy" in capsys.readouterr().err
    assert main(["registry", "tag", "--registry", str(db), "1",
                 "--clear"]) == 0
    assert "tag cleared" in capsys.readouterr().out

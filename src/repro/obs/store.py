"""The run registry's SQLite storage layer (:class:`SqliteRunStore`).

:class:`~repro.obs.registry.RunRegistry` is the domain-level API — it
knows about manifests, bench payloads, trend records, and key
flattening.  This module is the layer below, and deliberately
storage-shaped:

* runs are opaque field mappings plus a flat ``{key: value}`` sample
  bag — no domain records cross the boundary (the registry converts
  raw rows into :class:`~repro.obs.registry.RunRecord` objects);
* every method raises :class:`RegistryError` on failure, never a
  ``sqlite3`` exception, so registry callers keep their single
  ``except RegistryError`` guard;
* schema/migration concerns live entirely here: the versioned
  ``PRAGMA user_version`` migration chain documented below.
"""

from __future__ import annotations

import os
import sqlite3
from typing import Any, Mapping

#: Current registry schema version (``PRAGMA user_version``).
SCHEMA_VERSION = 4

#: Column order of the ``runs`` table; also the field names a
#: :meth:`SqliteRunStore.insert_run` mapping may carry (missing keys insert
#: as NULL, unknown keys are rejected).
RUN_FIELDS = (
    "recorded_at",
    "kind",
    "command",
    "platform",
    "dimm",
    "seed",
    "scale",
    "git",
    "suite",
    "exit_code",
    "tag",
    "health",
)


class RegistryError(RuntimeError):
    """The registry store cannot be opened, migrated, or queried."""


#: Schema migrations, applied in version order inside one transaction
#: each.  Version N's statements bring a version N-1 database to N; a
#: fresh database replays all of them.  Never edit an entry after it has
#: shipped — append a new version instead.
_MIGRATIONS: dict[int, tuple[str, ...]] = {
    1: (
        """
        CREATE TABLE runs (
            id          INTEGER PRIMARY KEY AUTOINCREMENT,
            recorded_at TEXT NOT NULL,
            kind        TEXT NOT NULL,
            command     TEXT,
            platform    TEXT,
            dimm        TEXT,
            seed        INTEGER,
            scale       TEXT,
            git         TEXT,
            exit_code   INTEGER
        )
        """,
        """
        CREATE TABLE samples (
            run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
            key    TEXT NOT NULL,
            value  REAL NOT NULL,
            PRIMARY KEY (run_id, key)
        )
        """,
    ),
    2: (
        # v2: bench rows carry their suite so quick/full series never mix,
        # and the cross-run series query gets a covering index.
        "ALTER TABLE runs ADD COLUMN suite TEXT",
        "CREATE INDEX idx_samples_key ON samples(key, run_id)",
    ),
    3: (
        # v3: retention — a non-NULL tag pins a run against `registry gc`
        # (and names it: 'baseline', 'release-1.2', ...).
        "ALTER TABLE runs ADD COLUMN tag TEXT",
    ),
    4: (
        # v4: fleet health — the run's health summary (peak RSS,
        # utilization skew, retry/death counts) as a JSON object, so
        # `history`/`trends` can gate resource behaviour across runs.
        "ALTER TABLE runs ADD COLUMN health TEXT",
    ),
}


class SqliteRunStore:
    """The stdlib-only SQLite run store; usable as a context manager.

    * **never take the run down** — callers wrap writes in a guard; a
      broken/locked/read-only database degrades to :class:`RegistryError`.
    * **concurrent-writer safe** — multiple simultaneous runs (e.g. a CI
      matrix sharing a workspace) may record into one database; writes
      are short ``BEGIN IMMEDIATE`` transactions behind SQLite's own
      locking with a generous busy timeout.
    * **versioned schema** — ``PRAGMA user_version`` tracks the schema;
      opening an older database migrates it in place, opening a *newer*
      one (written by a future revision) refuses with
      :class:`RegistryError` instead of corrupting it.
    """

    def __init__(self, path: str | os.PathLike[str], timeout: float = 30.0) -> None:
        self.path = os.fspath(path)
        #: Write transactions this connection has issued (observability
        #: for the "recording one run costs one transaction" promise).
        self.write_transactions = 0
        try:
            self._conn = sqlite3.connect(self.path, timeout=timeout)
        except sqlite3.Error as exc:  # e.g. unreadable parent directory
            raise RegistryError(f"{self.path}: {exc}") from exc
        self._conn.row_factory = sqlite3.Row
        # Autocommit mode: transactions are explicit BEGIN IMMEDIATE
        # blocks so writers serialise cleanly under concurrency.
        self._conn.isolation_level = None
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.Error:
            pass  # e.g. read-only media: rollback journal still works
        self._migrate()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SqliteRunStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def schema_version(self) -> int:
        return int(self._conn.execute("PRAGMA user_version").fetchone()[0])

    def _migrate(self) -> None:
        try:
            version = self.schema_version
            if version > SCHEMA_VERSION:
                raise RegistryError(
                    f"{self.path}: schema version {version} is newer than "
                    f"this build supports ({SCHEMA_VERSION}) — update the "
                    "code or use a fresh database"
                )
            if version == SCHEMA_VERSION:
                return
            # One writer migrates; concurrent openers queue on the lock
            # and re-check the version once they acquire it.
            self.write_transactions += 1
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                version = self.schema_version
                for target in range(version + 1, SCHEMA_VERSION + 1):
                    for statement in _MIGRATIONS[target]:
                        self._conn.execute(statement)
                    self._conn.execute(f"PRAGMA user_version = {target:d}")
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        except sqlite3.Error as exc:
            raise RegistryError(f"{self.path}: {exc}") from exc

    # -- writing -------------------------------------------------------
    def _insert_one(
        self, fields: Mapping[str, Any], samples: Mapping[str, float]
    ) -> int:
        """One run row + its samples (caller owns the transaction)."""
        cursor = self._conn.execute(
            "INSERT INTO runs ({}) VALUES ({})".format(
                ", ".join(RUN_FIELDS),
                ", ".join("?" for _ in RUN_FIELDS),
            ),
            tuple(fields.get(name) for name in RUN_FIELDS),
        )
        run_id = int(cursor.lastrowid)
        self._conn.executemany(
            "INSERT INTO samples (run_id, key, value) VALUES (?, ?, ?)",
            [(run_id, key, value) for key, value in sorted(samples.items())],
        )
        return run_id

    @staticmethod
    def _check_fields(path: str, fields: Mapping[str, Any]) -> None:
        unknown = set(fields) - set(RUN_FIELDS)
        if unknown:
            raise RegistryError(
                f"{path}: unknown run fields {sorted(unknown)}"
            )

    def insert_run(
        self, fields: Mapping[str, Any], samples: Mapping[str, float]
    ) -> int:
        """Atomically insert one run row plus its samples; return its id.

        ``fields`` may carry any subset of :data:`RUN_FIELDS`; samples
        are flat ``{dotted.key: float}`` pairs.
        """
        self._check_fields(self.path, fields)
        try:
            self.write_transactions += 1
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                run_id = self._insert_one(fields, samples)
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        except sqlite3.Error as exc:
            raise RegistryError(f"{self.path}: {exc}") from exc
        return run_id

    def insert_runs(
        self,
        rows: "list[tuple[Mapping[str, Any], Mapping[str, float]]]",
    ) -> list[int]:
        """Insert many ``(fields, samples)`` runs in ONE transaction.

        The bulk path for import/seeding workloads; returns the new run
        ids in input order.
        """
        for fields, _ in rows:
            self._check_fields(self.path, fields)
        if not rows:
            return []
        try:
            self.write_transactions += 1
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                ids = [
                    self._insert_one(fields, samples)
                    for fields, samples in rows
                ]
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        except sqlite3.Error as exc:
            raise RegistryError(f"{self.path}: {exc}") from exc
        return ids

    def delete_runs(self, run_ids: "list[int]") -> int:
        """Delete runs and their samples in one transaction; return how
        many run rows existed (unknown ids are ignored)."""
        if not run_ids:
            return 0
        ids = [(int(run_id),) for run_id in run_ids]
        try:
            self.write_transactions += 1
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                # The samples FK declares ON DELETE CASCADE but sqlite3
                # ships with foreign_keys off; delete explicitly so the
                # store never depends on a connection pragma.
                self._conn.executemany(
                    "DELETE FROM samples WHERE run_id = ?", ids
                )
                cursor = self._conn.executemany(
                    "DELETE FROM runs WHERE id = ?", ids
                )
                deleted = int(cursor.rowcount)
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        except sqlite3.Error as exc:
            raise RegistryError(f"{self.path}: {exc}") from exc
        return deleted

    def set_tag(self, run_id: int, tag: str | None) -> bool:
        """Set (``None``: clear) one run's retention tag; ``False`` when
        ``run_id`` does not exist."""
        try:
            self.write_transactions += 1
            cursor = self._conn.execute(
                "UPDATE runs SET tag = ? WHERE id = ?", (tag, int(run_id))
            )
        except sqlite3.Error as exc:
            raise RegistryError(f"{self.path}: {exc}") from exc
        return cursor.rowcount > 0

    def stats(self) -> dict[str, Any]:
        """Run/sample counts, kinds, tagged runs, the recorded_at range
        and file/page/freelist sizes."""
        try:
            runs = int(
                self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
            )
            samples = int(
                self._conn.execute(
                    "SELECT COUNT(*) FROM samples"
                ).fetchone()[0]
            )
            kinds = {
                row["kind"]: row["n"]
                for row in self._conn.execute(
                    "SELECT kind, COUNT(*) AS n FROM runs "
                    "GROUP BY kind ORDER BY kind"
                )
            }
            tagged = int(
                self._conn.execute(
                    "SELECT COUNT(*) FROM runs WHERE tag IS NOT NULL"
                ).fetchone()[0]
            )
            span = self._conn.execute(
                "SELECT MIN(recorded_at), MAX(recorded_at) FROM runs"
            ).fetchone()
            page_size = int(
                self._conn.execute("PRAGMA page_size").fetchone()[0]
            )
            page_count = int(
                self._conn.execute("PRAGMA page_count").fetchone()[0]
            )
            freelist = int(
                self._conn.execute("PRAGMA freelist_count").fetchone()[0]
            )
        except sqlite3.Error as exc:
            raise RegistryError(f"{self.path}: {exc}") from exc
        try:
            file_bytes = os.path.getsize(self.path)
        except OSError:
            file_bytes = page_size * page_count
        return {
            "runs": runs,
            "samples": samples,
            "kinds": kinds,
            "tagged": tagged,
            "oldest": span[0],
            "newest": span[1],
            "file_bytes": file_bytes,
            "page_bytes": page_size * page_count,
            "freelist_bytes": page_size * freelist,
        }

    def vacuum(self) -> None:
        try:
            # VACUUM needs autocommit (no open transaction) — which is
            # exactly how this connection runs between explicit blocks.
            self._conn.execute("VACUUM")
        except sqlite3.Error as exc:
            raise RegistryError(f"{self.path}: {exc}") from exc

    # -- reading -------------------------------------------------------
    def query_runs(
        self,
        filters: Mapping[str, Any] | None = None,
        *,
        git_substring: str | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Matching run rows as plain dicts, oldest first.

        ``filters`` are exact equality matches on :data:`RUN_FIELDS`
        columns; ``git_substring`` matches anywhere inside the ``git``
        field; ``limit`` keeps the *newest* N matches.  Each returned
        dict carries ``id`` plus every :data:`RUN_FIELDS` column.
        """
        clauses: list[str] = []
        params: list[Any] = []
        for column, value in (filters or {}).items():
            if column not in RUN_FIELDS:
                raise RegistryError(f"{self.path}: unknown filter {column!r}")
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if git_substring is not None:
            clauses.append("git LIKE ?")
            params.append(f"%{git_substring}%")
        sql = "SELECT * FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        try:
            rows = self._conn.execute(sql, params).fetchall()
        except sqlite3.Error as exc:
            raise RegistryError(f"{self.path}: {exc}") from exc
        rows.reverse()  # oldest first, newest-N kept by the LIMIT above
        return [dict(row) for row in rows]

    def samples_for(self, run_id: int) -> dict[str, float]:
        try:
            rows = self._conn.execute(
                "SELECT key, value FROM samples WHERE run_id = ? ORDER BY key",
                (run_id,),
            ).fetchall()
        except sqlite3.Error as exc:
            raise RegistryError(f"{self.path}: {exc}") from exc
        return {row["key"]: row["value"] for row in rows}

    def sample_keys(self) -> list[str]:
        try:
            rows = self._conn.execute(
                "SELECT DISTINCT key FROM samples ORDER BY key"
            ).fetchall()
        except sqlite3.Error as exc:
            raise RegistryError(f"{self.path}: {exc}") from exc
        return [row["key"] for row in rows]

    def sample_value(self, run_id: int, key: str) -> float | None:
        try:
            row = self._conn.execute(
                "SELECT value FROM samples WHERE run_id = ? AND key = ?",
                (run_id, key),
            ).fetchone()
        except sqlite3.Error as exc:
            raise RegistryError(f"{self.path}: {exc}") from exc
        return None if row is None else float(row["value"])

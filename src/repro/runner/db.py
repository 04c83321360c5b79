"""Sqlite-backed sweep-result store (schema v4).

:class:`SweepDatabase` is the durable successor of the schema-v1 JSON
documents of :mod:`repro.runner.store`: results accumulate across runs in a
single sqlite file, indexed by ``(spec_key, point_index)``, so interrupted or
extended sweeps can resume (see :meth:`repro.runner.engine.SweepRunner.run_stored`)
and cross-run questions — scheduler win-rates, makespan over time — stay
queryable long after the runs that produced them
(:mod:`repro.analysis.history`).  Those history aggregations run *inside*
sqlite (:meth:`SweepDatabase.win_rate_rows` /
:meth:`SweepDatabase.trajectory_rows`), so they scale to stores with
millions of records without loading record JSON into Python.

Stores also compose: :meth:`SweepDatabase.merge_all` folds the per-shard
stores written by :meth:`repro.runner.engine.SweepRunner.run_points` back
into one database — idempotent for identical overlaps, refusing conflicting
records — such that an N-shard run merges into a store byte-identical (via
:meth:`export_document`) to a serial full run's.  A merge carries every
shard-side run across (run ids remapped onto this store's sequence, point
costs included), so ``repro merge`` and
:meth:`repro.runner.backends.ShardWorkerBackend.orchestrate` leave the same
per-shard history trajectories.

Layout (``schema v4``; v1 is the JSON document format, v2 lacked the
``jobs`` table, v3 lacked the ``point_costs`` table — v2 and v3 stores
migrate in place the first time a writer opens them):

``sweeps``
    One row per distinct grid, keyed by the spec's content hash
    (``spec_key``) with the spec itself as canonical JSON.
``records``
    One row per executed grid point *per run*, primary key ``(spec_key,
    point_index, run_id)`` — append-only, so earlier runs stay queryable
    (the makespan-over-runs trajectory) while the *current* state of a
    point is simply its latest run's row.  The full outcome record is
    stored as canonical JSON next to the indexed headline columns (system,
    scheduler, makespan...), so a record round-trips exactly and equality
    with a JSON document is byte-comparable.
``runs``
    One row per store-backed runner invocation (or JSON import) with its
    executed/skipped point counters — the time axis of the history queries.
``jobs``
    One row per sweep job the serve daemon accepted (new in v3): the full
    job snapshot plus the submitted spec, upserted on every state change by
    :mod:`repro.serve.jobs`, so ``GET /sweeps/<id>`` survives a daemon
    restart and jobs that were queued or running when the daemon died are
    marked ``interrupted`` on the next boot
    (:meth:`SweepDatabase.mark_interrupted_jobs`).  Job rows are control
    metadata, not results: they stay out of :meth:`data_version` (so the
    history read cache ignores job churn), out of :meth:`export_document`,
    and out of merges.
``point_costs``
    One row per point per run of measured wall-clock planning seconds (new
    in v4), recorded by cost-measuring backends and read back by the
    dispatcher for cost-based shard sizing (:meth:`point_cost_rows`).
    Like job rows, costs are control metadata: excluded from
    :meth:`data_version`, exports and run fingerprints, because wall-clock
    noise must never influence byte-identity.  Merges carry them so merged
    and orchestrated stores keep feeding the sizing.

Durability: the connection runs with WAL journaling and
``synchronous=NORMAL``; every mutation happens inside a transaction, so a
crash mid-sweep leaves the store at the last committed point set instead of
a truncated file.  JSON documents remain the import/export interchange
format via :meth:`import_document` / :meth:`export_document`.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Collection, Iterator, Mapping, Sequence

from repro.errors import ResultStoreError
from repro.runner.spec import SweepSpec
from repro.runner.store import StoredSweep, load_sweeps, save_stored_sweeps

#: Version of the sqlite store layout (v1 is the JSON document format,
#: v2 predates the ``jobs`` table, v3 predates the ``point_costs`` table;
#: v2 and v3 stores migrate in place on open).
DB_SCHEMA_VERSION = 4

#: Schema versions a writer upgrades in place (see ``_MIGRATIONS``).
MIGRATABLE_VERSIONS = frozenset({2, 3})

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sweeps (
    spec_key  TEXT PRIMARY KEY,
    name      TEXT NOT NULL,
    spec_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id          INTEGER PRIMARY KEY AUTOINCREMENT,
    spec_key        TEXT NOT NULL REFERENCES sweeps(spec_key),
    source          TEXT NOT NULL,
    executed_points INTEGER NOT NULL,
    skipped_points  INTEGER NOT NULL,
    created_at      TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    spec_key          TEXT NOT NULL REFERENCES sweeps(spec_key),
    point_index       INTEGER NOT NULL,
    system            TEXT NOT NULL,
    scheduler         TEXT NOT NULL,
    power_label       TEXT NOT NULL,
    reused_processors INTEGER,
    makespan          INTEGER NOT NULL,
    run_id            INTEGER NOT NULL REFERENCES runs(run_id),
    record_json       TEXT NOT NULL,
    PRIMARY KEY (spec_key, point_index, run_id)
);
CREATE INDEX IF NOT EXISTS idx_records_system_scheduler
    ON records(system, scheduler);
CREATE TABLE IF NOT EXISTS jobs (
    job_id          TEXT PRIMARY KEY,
    job_number      INTEGER NOT NULL,
    spec_key        TEXT NOT NULL,
    spec_name       TEXT NOT NULL,
    spec_json       TEXT NOT NULL,
    point_count     INTEGER NOT NULL,
    backend         TEXT NOT NULL,
    pool_jobs       INTEGER NOT NULL,
    resume          INTEGER NOT NULL,
    status          TEXT NOT NULL,
    submitted_at    TEXT NOT NULL,
    started_at      TEXT,
    finished_at     TEXT,
    error           TEXT,
    run_id          INTEGER,
    executed_points INTEGER,
    skipped_points  INTEGER
);
CREATE TABLE IF NOT EXISTS point_costs (
    spec_key    TEXT NOT NULL REFERENCES sweeps(spec_key),
    point_index INTEGER NOT NULL,
    run_id      INTEGER NOT NULL REFERENCES runs(run_id),
    seconds     REAL NOT NULL,
    PRIMARY KEY (spec_key, point_index, run_id)
);
"""

#: Jobs that never reached a terminal state; a booting daemon marks them
#: ``interrupted`` (see :meth:`SweepDatabase.mark_interrupted_jobs`).
_LIVE_JOB_STATES = ("queued", "running")

#: Page-cache bound of a read-only connection, in KiB.  A reader runs a few
#: aggregations that each read a page once; sqlite's default 2 MB cache only
#: raises a long-lived daemon's peak memory as its store grows.
READER_CACHE_KIB = 128

#: Columns of the ``jobs`` table, in schema order (the upsert contract).
_JOB_COLUMNS = (
    "job_id",
    "job_number",
    "spec_key",
    "spec_name",
    "spec_json",
    "point_count",
    "backend",
    "pool_jobs",
    "resume",
    "status",
    "submitted_at",
    "started_at",
    "finished_at",
    "error",
    "run_id",
    "executed_points",
    "skipped_points",
)


@dataclass(frozen=True)
class RunInfo:
    """One store-backed runner invocation (a row of the ``runs`` table)."""

    run_id: int
    spec_key: str
    sweep_name: str
    source: str
    executed_points: int
    skipped_points: int
    created_at: str


@dataclass(frozen=True)
class MergeReport:
    """The outcome of folding one store into another (:meth:`SweepDatabase.merge_all`).

    Attributes:
        spec_keys: spec keys of the source store's sweeps, in its order.
        inserted: the source's current records the target did not hold, or
            held only under other characterisation settings.
        identical: the source's current records the target already held
            byte-identically.
        runs_carried: source runs copied into the target under fresh run
            ids; a run the target already holds is not carried again.
    """

    spec_keys: tuple[str, ...]
    inserted: int
    identical: int
    runs_carried: int = 0


def _canonical_record_json(record: Mapping) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _plan_part(record_json: str) -> dict:
    """A canonical record without its characterisation settings and figures."""
    record = json.loads(record_json)
    record.pop("characterization", None)
    return record


def system_rows(rows: list[dict], system: str | None) -> list[dict]:
    """The rows of ``system`` among history rows over every system (all of
    them for ``None``), in their order.

    This is the one system filter of :meth:`SweepDatabase.win_rate_rows` and
    :meth:`SweepDatabase.trajectory_rows`.  Both aggregations group by
    system, and a system's rows depend on its own records only (a point, and
    so its latest run, belongs to one system), so a filtered read is exactly
    the unfiltered aggregation restricted to that system.
    """
    if system is None:
        return rows
    return [row for row in rows if row["system"] == system]


def _run_fingerprint(
    spec_key: str,
    source: str,
    executed: int,
    skipped: int,
    created_at: str,
    record_jsons: Sequence[str],
) -> str:
    """Content hash of one run — its row fields plus its records.

    Run ids deliberately stay out: the fingerprint identifies a run across
    stores whose id sequences differ, which is what makes merges
    idempotent after the ids are remapped.
    """
    payload = json.dumps(
        {
            "spec_key": spec_key,
            "source": source,
            "executed": executed,
            "skipped": skipped,
            "created_at": created_at,
            "records": list(record_jsons),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SweepDatabase:
    """A sqlite store of sweep results, indexed by ``(spec_key, point_index)``.

    Usable as a context manager::

        with SweepDatabase("sweeps.db") as db:
            report = SweepRunner().run_stored(spec, db, resume=True)

    Raises:
        ResultStoreError: when the file exists but is not a sqlite store of
            this schema version, or when stored specs fail their content-key
            integrity check on load.
    """

    def __init__(self, path: str | Path, *, read_only: bool = False) -> None:
        self._path = Path(path)
        self._read_only = read_only
        try:
            if read_only:
                # mode=ro keeps sqlite itself from creating or mutating the
                # file, so a reader can never become an accidental writer.
                self._connection = sqlite3.connect(
                    f"file:{self._path}?mode=ro", uri=True
                )
            else:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._connection = sqlite3.connect(self._path)
        except sqlite3.Error as exc:
            raise ResultStoreError(f"cannot open sqlite store {self._path}: {exc}") from exc
        self._connection.row_factory = sqlite3.Row
        try:
            if not read_only:
                self._connection.execute("PRAGMA journal_mode=WAL")
                self._connection.execute("PRAGMA synchronous=NORMAL")
                # Writers queue on the file lock instead of failing fast:
                # the serve daemon's tiny job-state upserts may overlap a
                # run commit from the job worker thread.
                self._connection.execute("PRAGMA busy_timeout=30000")
            else:
                self._connection.execute(f"PRAGMA cache_size=-{READER_CACHE_KIB}")
            self._connection.execute("PRAGMA foreign_keys=ON")
            self._init_schema()
        except sqlite3.DatabaseError as exc:
            self._connection.close()
            raise ResultStoreError(
                f"{self._path} is not a usable sqlite sweep store: {exc}"
            ) from exc

    @classmethod
    def open_reader(cls, path: str | Path) -> "SweepDatabase":
        """Open an existing store read-only — the documented read path.

        This is how everything outside ``runner/db.py`` and the serve job
        queue accesses a store (the one-writer/many-readers model; enforced
        by lint rule RL002).  The connection uses sqlite's ``mode=ro`` URI
        flag, so write attempts fail at the sqlite layer too, and
        :meth:`record_run`/:meth:`ensure_sweep`/:meth:`merge_all` raise
        :class:`ResultStoreError` up front.

        Raises:
            ResultStoreError: when the store does not exist or is not a
                sqlite store of this schema version.
        """
        return cls(path, read_only=True)

    @property
    def read_only(self) -> bool:
        """Whether this handle was opened through :meth:`open_reader`."""
        return self._read_only

    def _require_writable(self, operation: str) -> None:
        if self._read_only:
            raise ResultStoreError(
                f"cannot {operation} through a read-only store handle "
                f"(opened with SweepDatabase.open_reader); open "
                f"SweepDatabase({str(self._path)!r}) in the writer instead"
            )

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """Location of the sqlite file."""
        return self._path

    def close(self) -> None:
        """Close the underlying connection (the object is unusable after)."""
        self._connection.close()

    def __enter__(self) -> "SweepDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _init_schema(self) -> None:
        if self._read_only:
            # Readers validate, never create or migrate: the writer owns
            # the schema.
            row = self._connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None or row["value"] != str(DB_SCHEMA_VERSION):
                found = "no version marker" if row is None else f"version {row['value']}"
                hint = ""
                if row is not None and row["value"] in {
                    str(v) for v in MIGRATABLE_VERSIONS
                }:
                    hint = (
                        "; open the store writable once (e.g. repro history, or "
                        "start the serve daemon on it) to migrate it in place"
                    )
                raise ResultStoreError(
                    f"sqlite store {self._path} has {found}; "
                    f"this reader supports version {DB_SCHEMA_VERSION}{hint}"
                )
            return
        with self._connection:
            found = None
            if self._has_meta_table():
                found = self._connection.execute(
                    "SELECT value FROM meta WHERE key = 'schema_version'"
                ).fetchone()
            # The base schema is additive-safe (CREATE ... IF NOT EXISTS),
            # so creating a fresh store and upgrading a migratable one are
            # the same script; only the version bookkeeping differs.
            self._connection.executescript(_SCHEMA)
            if found is None:
                self._connection.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(DB_SCHEMA_VERSION),),
                )
            elif found["value"] in {str(v) for v in MIGRATABLE_VERSIONS}:
                # v2/v3 -> v4: the additive tables the script just created
                # (jobs, point_costs) are the whole upgrade; record both the
                # new version and where the store came from, so migrations
                # stay auditable.
                self._connection.execute(
                    "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                    (str(DB_SCHEMA_VERSION),),
                )
                self._connection.execute(
                    "INSERT OR REPLACE INTO meta (key, value) "
                    "VALUES ('migrated_from', ?)",
                    (found["value"],),
                )
            elif found["value"] != str(DB_SCHEMA_VERSION):
                raise ResultStoreError(
                    f"sqlite store {self._path} has schema version "
                    f"{found['value']}; this reader supports version "
                    f"{DB_SCHEMA_VERSION}"
                )

    def _has_meta_table(self) -> bool:
        """Whether the file already carries the store's ``meta`` table."""
        row = self._connection.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'meta'"
        ).fetchone()
        return row is not None

    # ------------------------------------------------------------------
    # Sweeps and records.
    # ------------------------------------------------------------------
    def ensure_sweep(self, spec: SweepSpec) -> str:
        """Register ``spec`` (idempotent) and return its spec key."""
        self._require_writable("register a sweep")
        spec_key = spec.content_key()
        with self._connection:
            self._connection.execute(
                "INSERT OR IGNORE INTO sweeps (spec_key, name, spec_json) "
                "VALUES (?, ?, ?)",
                (
                    spec_key,
                    spec.name,
                    json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":")),
                ),
            )
        return spec_key

    def spec_keys(self) -> list[str]:
        """Spec keys of every registered sweep, in insertion order."""
        rows = self._connection.execute("SELECT spec_key FROM sweeps ORDER BY rowid")
        return [row["spec_key"] for row in rows]

    def record_run(
        self,
        spec_key: str,
        records: Sequence[Mapping],
        *,
        executed: int,
        skipped: int,
        source: str = "sweep",
        created_at: str | None = None,
        point_costs: Mapping[int, float] | None = None,
    ) -> int:
        """Commit one run: a ``runs`` row plus its outcome records, atomically.

        Records append under the new run id — earlier runs' records stay in
        place for the history queries; a point's *current* record (what
        :meth:`records` returns and resume consults) is its latest run's
        row.  The run row and every record land in a single transaction, so
        a crash mid-commit leaves the store at the previous run's state.
        Returns the new run id.

        ``created_at`` defaults to now; merges pass the
        source run's timestamp so the carried run keeps its place on the
        history time axis.

        ``point_costs`` maps point indices to measured wall-clock planning
        seconds (schema v4, ``point_costs`` table).  Costs are control
        metadata like job rows: the dispatcher reads them for cost-based
        shard sizing (:meth:`point_cost_rows`), but they are excluded from
        :meth:`data_version`, exports and record fingerprints — wall-clock
        noise must never touch byte-identity.
        """
        self._require_writable("record a run")
        if created_at is None:
            # Run timestamps are provenance metadata on the history axis, not
            # planner inputs — export documents omit them, so byte-identity
            # of exports is unaffected.
            created_at = datetime.now(timezone.utc).isoformat(  # repro-lint: disable=RL001
                timespec="seconds"
            )
        with self._connection:
            cursor = self._connection.execute(
                "INSERT INTO runs (spec_key, source, executed_points, "
                "skipped_points, created_at) VALUES (?, ?, ?, ?, ?)",
                (spec_key, source, executed, skipped, created_at),
            )
            run_id = int(cursor.lastrowid)
            self._connection.executemany(
                "INSERT INTO records (spec_key, point_index, system, "
                "scheduler, power_label, reused_processors, makespan, run_id, "
                "record_json) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        spec_key,
                        int(record["index"]),
                        str(record["system"]),
                        str(record["scheduler"]),
                        str(record["power_label"]),
                        record["reused_processors"],
                        int(record["makespan"]),
                        run_id,
                        _canonical_record_json(record),
                    )
                    for record in records
                ],
            )
            if point_costs:
                self._connection.executemany(
                    "INSERT INTO point_costs (spec_key, point_index, run_id, "
                    "seconds) VALUES (?, ?, ?, ?)",
                    [
                        (spec_key, int(index), run_id, float(seconds))
                        for index, seconds in sorted(point_costs.items())
                    ],
                )
        return run_id

    def records(self, spec_key: str) -> list[dict]:
        """The current record of every point of ``spec_key``, in point order.

        "Current" is the latest run's record per point — earlier runs'
        records remain stored for :meth:`history_rows`.
        """
        rows = self._connection.execute(
            "SELECT record_json FROM records "
            "WHERE spec_key = :key AND run_id = ("
            "    SELECT MAX(run_id) FROM records AS latest"
            "    WHERE latest.spec_key = :key"
            "      AND latest.point_index = records.point_index"
            ") ORDER BY point_index",
            {"key": spec_key},
        )
        return [json.loads(row["record_json"]) for row in rows]

    def reusable_indices(
        self, spec_key: str, *, characterize: bool, packet_count: int
    ) -> frozenset[int]:
        """Indices of the points whose current record a resumed run may reuse.

        The one resume rule, shared by ``repro sweep --resume`` and
        ``repro orchestrate --resume``.  A record is reusable when it was
        produced under the same characterisation settings: a characterising
        run needs characterisation data with the same ``packet_count``, a
        non-characterising run needs none.  Reusing anything else would
        diverge from a from-scratch run.
        """
        reusable = set()
        for record in self.records(spec_key):
            characterization = record.get("characterization")
            if characterize:
                compatible = (
                    isinstance(characterization, dict)
                    and characterization.get("packet_count") == packet_count
                )
            else:
                compatible = characterization is None
            if compatible:
                reusable.add(int(record["index"]))
        return frozenset(reusable)

    def run_records(self, run_id: int) -> list[dict]:
        """Every record one run committed, ordered by sweep, then point index."""
        rows = self._connection.execute(
            "SELECT record_json FROM records WHERE run_id = ? "
            "ORDER BY spec_key, point_index",
            (run_id,),
        )
        return [json.loads(row["record_json"]) for row in rows]

    def run_count(self, spec_key: str | None = None) -> int:
        """Number of recorded runs (for one sweep, or the whole store)."""
        if spec_key is None:
            row = self._connection.execute("SELECT COUNT(*) AS n FROM runs").fetchone()
        else:
            row = self._connection.execute(
                "SELECT COUNT(*) AS n FROM runs WHERE spec_key = ?", (spec_key,)
            ).fetchone()
        return int(row["n"])

    def record_count(self, spec_key: str | None = None) -> int:
        """Number of current records (for one sweep, or the whole store)."""
        if spec_key is None:
            row = self._connection.execute(
                "SELECT COUNT(*) AS n FROM "
                "(SELECT DISTINCT spec_key, point_index FROM records)"
            ).fetchone()
        else:
            row = self._connection.execute(
                "SELECT COUNT(DISTINCT point_index) AS n FROM records "
                "WHERE spec_key = ?",
                (spec_key,),
            ).fetchone()
        return int(row["n"])

    def data_version(self) -> tuple[int, int]:
        """Monotonic version of the store's contents: max ``(records, runs)`` rowids.

        Every committed write — a recorded run, an import, a merge — appends
        to at least one of the two tables, so the pair strictly increases
        with each mutation and never repeats (rows are append-only).  The
        serving layer keys its read-path cache on this version: a cache
        entry is structurally invalidated the moment the store changes,
        without comparing any row contents.
        """
        row = self._connection.execute(
            "SELECT (SELECT COALESCE(MAX(rowid), 0) FROM records) AS records_version, "
            "(SELECT COALESCE(MAX(rowid), 0) FROM runs) AS runs_version"
        ).fetchone()
        return (int(row["records_version"]), int(row["runs_version"]))

    def point_cost_rows(self, spec_key: str) -> dict[int, float]:
        """Mean measured planning seconds per point of ``spec_key``.

        Averaged over every run that recorded a cost for the point (schema
        v4 ``point_costs`` table), in SQL.  The dispatcher feeds this into
        cost-based shard sizing; points without a measured cost are simply
        absent — the dispatcher costs them at the grid's (or the batch's)
        measured mean.
        """
        rows = self._connection.execute(
            "SELECT point_index, AVG(seconds) AS seconds FROM point_costs "
            "WHERE spec_key = ? GROUP BY point_index ORDER BY point_index",
            (spec_key,),
        )
        return {int(row["point_index"]): float(row["seconds"]) for row in rows}

    def run_point_costs(self, run_id: int) -> dict[int, float]:
        """The per-point costs one run recorded (what a merge carries across)."""
        rows = self._connection.execute(
            "SELECT point_index, seconds FROM point_costs WHERE run_id = ? "
            "ORDER BY point_index",
            (run_id,),
        )
        return {int(row["point_index"]): float(row["seconds"]) for row in rows}

    # ------------------------------------------------------------------
    # Serve jobs (since schema v3).
    # ------------------------------------------------------------------
    def upsert_job(self, snapshot: Mapping, *, spec_json: str) -> None:
        """Persist one sweep-job snapshot (insert or replace), atomically.

        ``snapshot`` is the JSON-ready dict :meth:`SweepJob.snapshot
        <repro.serve.jobs.SweepJob.snapshot>` produces, plus a
        ``job_number`` field (the daemon-local counter value, so a
        restarted daemon can continue the sequence without colliding with
        persisted ids).  The submitted spec rides along as canonical JSON
        so an operator can re-run an interrupted job from the store alone.

        Job rows are control metadata: they do not advance
        :meth:`data_version`, are never exported, and never merge.
        """
        self._require_writable("persist a job")
        row = {
            "job_id": str(snapshot["job_id"]),
            "job_number": int(snapshot["job_number"]),
            "spec_key": str(snapshot["spec_key"]),
            "spec_name": str(snapshot["spec_name"]),
            "spec_json": spec_json,
            "point_count": int(snapshot["point_count"]),
            "backend": str(snapshot["backend"]),
            "pool_jobs": int(snapshot.get("pool_jobs", 1)),
            "resume": int(bool(snapshot["resume"])),
            "status": str(snapshot["status"]),
            "submitted_at": str(snapshot["submitted_at"]),
            "started_at": snapshot.get("started_at"),
            "finished_at": snapshot.get("finished_at"),
            "error": snapshot.get("error"),
            "run_id": snapshot.get("run_id"),
            "executed_points": snapshot.get("executed_points"),
            "skipped_points": snapshot.get("skipped_points"),
        }
        with self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO jobs ("
                + ", ".join(_JOB_COLUMNS)
                + ") VALUES ("
                + ", ".join(f":{column}" for column in _JOB_COLUMNS)
                + ")",
                row,
            )

    def job_row(self, job_id: str) -> dict | None:
        """One persisted job row as a plain dict, or ``None`` if unknown."""
        row = self._connection.execute(
            "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        return self._job_row_to_dict(row) if row is not None else None

    def job_count(self) -> int:
        """How many job rows the store holds."""
        return int(self._connection.execute("SELECT COUNT(*) FROM jobs").fetchone()[0])

    def max_job_number(self) -> int:
        """Highest persisted job number (0 for a store without jobs)."""
        row = self._connection.execute(
            "SELECT COALESCE(MAX(job_number), 0) AS n FROM jobs"
        ).fetchone()
        return int(row["n"])

    def mark_interrupted_jobs(self, *, finished_at: str) -> list[str]:
        """Mark every queued/running job ``interrupted``; returns their ids.

        A job can only be queued or running while a daemon is executing it;
        finding one on boot means the previous daemon died mid-job.  The
        executed points it committed are durable in ``records``/``runs`` —
        only the job's completion is unknown, which is exactly what the
        ``interrupted`` state says (re-submit with ``resume`` to finish).
        """
        self._require_writable("mark interrupted jobs")
        placeholders = ", ".join("?" for _ in _LIVE_JOB_STATES)
        with self._connection:
            rows = self._connection.execute(
                f"SELECT job_id FROM jobs WHERE status IN ({placeholders}) "
                "ORDER BY job_number",
                _LIVE_JOB_STATES,
            ).fetchall()
            interrupted = [row["job_id"] for row in rows]
            self._connection.execute(
                f"UPDATE jobs SET status = 'interrupted', finished_at = ?, "
                f"error = 'daemon stopped while the job was ' || status "
                f"WHERE status IN ({placeholders})",
                (finished_at, *_LIVE_JOB_STATES),
            )
        return interrupted

    @staticmethod
    def _job_row_to_dict(row: sqlite3.Row) -> dict:
        """One ``jobs`` row as the snapshot dict the serve layer exchanges."""
        job = {column: row[column] for column in _JOB_COLUMNS}
        job["resume"] = bool(job["resume"])
        return job

    def _load_spec(self, spec_key: str) -> SweepSpec:
        """Load one sweep's spec, verifying it still hashes to its key.

        Raises:
            ResultStoreError: for an unknown key, or when the stored spec no
                longer hashes to its key (a tampered or corrupted store).
        """
        row = self._connection.execute(
            "SELECT name, spec_json FROM sweeps WHERE spec_key = ?", (spec_key,)
        ).fetchone()
        if row is None:
            raise ResultStoreError(
                f"sqlite store {self._path} has no sweep with spec key "
                f"{spec_key[:12]}..."
            )
        try:
            spec = SweepSpec.from_dict(json.loads(row["spec_json"]))
        except (json.JSONDecodeError, TypeError) as exc:
            raise ResultStoreError(
                f"sqlite store {self._path}: sweep {row['name']!r} holds a "
                f"malformed spec: {exc}"
            ) from exc
        if spec.content_key() != spec_key:
            raise ResultStoreError(
                f"sqlite store {self._path}: sweep {row['name']!r} is keyed "
                f"{spec_key[:12]}... but its spec hashes to "
                f"{spec.content_key()[:12]}...; refusing the inconsistent store"
            )
        return spec

    def stored_sweep(self, spec_key: str) -> StoredSweep:
        """One sweep with its records, integrity-checked.

        Raises:
            ResultStoreError: for an unknown key, or when the stored spec no
                longer hashes to its key (a tampered or corrupted store).
        """
        spec = self._load_spec(spec_key)
        return StoredSweep(
            spec=spec, spec_key=spec_key, records=tuple(self.records(spec_key))
        )

    def stored_sweeps(self) -> list[StoredSweep]:
        """Every sweep of the store with its records, integrity-checked."""
        return [self.stored_sweep(spec_key) for spec_key in self.spec_keys()]

    def sweep_summaries(self) -> list[tuple[SweepSpec, str, int]]:
        """``(spec, spec_key, current record count)`` per sweep, in store order.

        Integrity-checks each spec like :meth:`stored_sweep` but never loads
        record JSON — cheap even on stores with millions of records.
        """
        return [
            (self._load_spec(spec_key), spec_key, self.record_count(spec_key))
            for spec_key in self.spec_keys()
        ]

    # ------------------------------------------------------------------
    # Merging (the single-host end of sharded execution).
    # ------------------------------------------------------------------
    def merge_all(
        self,
        others: Sequence["SweepDatabase"],
        *,
        expect_spec_keys: Collection[str] | None = None,
    ) -> tuple[MergeReport, ...]:
        """Fold other stores' runs into this one, all or nothing.

        For every sweep of every source (integrity-checked: each stored
        spec must still hash to its key), the sweep is registered here and
        its *current* records — each point's latest run — are validated:

        * a point this store does not hold counts as **inserted**;
        * a point whose stored record is byte-identical to the incoming one
          counts as **identical**;
        * a point whose record differs **only in** ``characterization`` (the
          same plan under other characterisation settings) counts as
          **inserted**: the carried run is newer, so it becomes the current
          record, as a direct ``repro sweep`` with those settings would;
        * a point whose record **differs** otherwise — from this store *or
          from an earlier source of the same call* — raises
          :class:`ResultStoreError` before a single record lands, so a
          failed multi-shard merge leaves this store exactly as it was and
          conflicting shards never mix.

        Then every run of each source is carried across under a fresh run
        id (this store's autoincrement — remapping is collision-free by
        construction) with its source label, counters, timestamp, records
        and point costs intact, in source order and each source's run order
        — as if the shards had executed sequentially on one host.  The
        merged store's :meth:`history_rows` / :meth:`trajectory_rows`
        therefore equal those of a store that had executed the shards' runs
        sequentially, its run count grows by the sum of the shard run
        counts, and its point costs keep feeding cost-based shard sizing.
        A source run this store already holds — same spec, source,
        counters, timestamp and records — is skipped, so merging the same
        shard twice is a no-op.  The sources are never modified.

        This is the reduce step of sharded execution: merging the shard
        stores written by :meth:`SweepRunner.run_points
        <repro.runner.engine.SweepRunner.run_points>` for every shard of a
        grid yields a store whose :meth:`export_document` output is
        byte-identical to a serial full run's.

        Args:
            others: the source stores, in merge order.
            expect_spec_keys: when set, every sweep of every source must
                carry one of these spec keys — merging a shard of a grid
                outside the expected batch aborts.

        Returns:
            One :class:`MergeReport` per source, in order.

        Raises:
            ResultStoreError: for a spec-key mismatch, a conflicting
                record, or a source store that fails its integrity checks;
                nothing is written when raised.
        """
        self._require_writable("merge into the store")
        state: dict[str, dict[int, str]] = {}
        plans = [self._plan_merge(state, other, expect_spec_keys) for other in others]
        spec_keys = {sweep.spec_key for planned in plans for sweep, _, _ in planned}
        fingerprints = self._run_fingerprints(spec_keys)
        return tuple(
            self._commit_carry(planned, other, fingerprints)
            for other, planned in zip(others, plans)
        )

    def _plan_merge(
        self,
        state: dict[str, dict[int, str]],
        other: "SweepDatabase",
        expect_spec_keys: Collection[str] | None,
    ) -> list[tuple[StoredSweep, list[Mapping], int]]:
        """Validate one source against this store plus already-planned inserts.

        ``state`` maps spec keys to the canonical record JSON per point —
        seeded from this store on first touch and extended with planned
        inserts, so conflicts between sources sharing a ``state`` surface
        during planning.
        """
        planned: list[tuple[StoredSweep, list[Mapping], int]] = []
        for sweep in other.stored_sweeps():
            if expect_spec_keys is not None and sweep.spec_key not in expect_spec_keys:
                expected = ", ".join(sorted(f"{key[:12]}..." for key in expect_spec_keys))
                raise ResultStoreError(
                    f"cannot merge {other.path}: sweep {sweep.spec.name!r} has "
                    f"spec key {sweep.spec_key[:12]}..., expected one of "
                    f"{expected} (a shard of a different grid)"
                )
            # Not setdefault: its default argument is evaluated eagerly, and
            # loading the target's current records must happen once per spec
            # key, not once per source store.
            if sweep.spec_key not in state:
                state[sweep.spec_key] = {
                    int(record["index"]): _canonical_record_json(record)
                    for record in self.records(sweep.spec_key)
                }
            current = state[sweep.spec_key]
            fresh: list[Mapping] = []
            identical = 0
            for record in sweep.records:
                index = int(record["index"])
                incoming = _canonical_record_json(record)
                mine = current.get(index)
                if mine is None:
                    fresh.append(record)
                    current[index] = incoming
                elif mine == incoming:
                    identical += 1
                elif _plan_part(mine) == _plan_part(incoming):
                    fresh.append(record)
                    current[index] = incoming
                else:
                    raise ResultStoreError(
                        f"cannot merge {other.path} into {self._path}: sweep "
                        f"{sweep.spec.name!r} point {index} conflicts with the "
                        "record already stored; refusing to mix diverging results"
                    )
            planned.append((sweep, fresh, identical))
        return planned

    def _run_fingerprints(self, spec_keys: set[str]) -> set[str]:
        """Fingerprints of this store's runs for ``spec_keys`` (carry idempotency).

        Only the sweeps being merged matter — runs of other sweeps can never
        match an incoming run's fingerprint, so they are not rehydrated (the
        cost stays proportional to the merged grids, not the whole store).
        """
        return {
            _run_fingerprint(
                run.spec_key,
                run.source,
                run.executed_points,
                run.skipped_points,
                run.created_at,
                [_canonical_record_json(r) for r in self.run_records(run.run_id)],
            )
            for run in self.runs()
            if run.spec_key in spec_keys
        }

    def _commit_carry(
        self,
        planned: Sequence[tuple[StoredSweep, list[Mapping], int]],
        other: "SweepDatabase",
        fingerprints: set[str],
    ) -> MergeReport:
        """Commit a validated merge plan by carrying the source's runs over.

        Every run of ``other`` whose sweep is part of the plan is re-recorded
        here under a fresh run id — source label, counters and timestamp
        preserved, records re-inserted under the new id — in the source's
        run order, so the target's history reads as if those runs had
        executed here.  Runs whose fingerprint is already present (a
        re-merge of the same shard) are skipped; ``fingerprints`` is shared
        across the sources of one :meth:`merge_all` batch so duplicates
        between sources are caught too.  A sweep with no run still gets
        registered, so empty shards keep the exported sweep list intact.
        """
        wanted = set()
        for sweep, _, _ in planned:
            self.ensure_sweep(sweep.spec)
            wanted.add(sweep.spec_key)
        runs_carried = 0
        for run in other.runs():
            if run.spec_key not in wanted:
                continue
            records = other.run_records(run.run_id)
            fingerprint = _run_fingerprint(
                run.spec_key,
                run.source,
                run.executed_points,
                run.skipped_points,
                run.created_at,
                [_canonical_record_json(r) for r in records],
            )
            if fingerprint in fingerprints:
                continue
            fingerprints.add(fingerprint)
            self.record_run(
                run.spec_key,
                records,
                executed=run.executed_points,
                skipped=run.skipped_points,
                source=run.source,
                created_at=run.created_at,
                # Measured costs ride along so a merged store feeds the
                # next dispatch's cost-based shard sizing.  They are
                # not fingerprinted: wall-clock noise must not make two
                # otherwise-identical runs look different.
                point_costs=other.run_point_costs(run.run_id),
            )
            runs_carried += 1
        return MergeReport(
            spec_keys=tuple(sweep.spec_key for sweep, _, _ in planned),
            inserted=sum(len(fresh) for _, fresh, _ in planned),
            identical=sum(identical for _, _, identical in planned),
            runs_carried=runs_carried,
        )

    # ------------------------------------------------------------------
    # History.
    # ------------------------------------------------------------------
    def runs(self) -> list[RunInfo]:
        """Every recorded run, oldest first."""
        rows = self._connection.execute(
            "SELECT runs.run_id, runs.spec_key, sweeps.name, runs.source, "
            "runs.executed_points, runs.skipped_points, runs.created_at "
            "FROM runs JOIN sweeps ON runs.spec_key = sweeps.spec_key "
            "ORDER BY runs.run_id"
        )
        return [
            RunInfo(
                run_id=row["run_id"],
                spec_key=row["spec_key"],
                sweep_name=row["name"],
                source=row["source"],
                executed_points=row["executed_points"],
                skipped_points=row["skipped_points"],
                created_at=row["created_at"],
            )
            for row in rows
        ]

    def history_rows(self) -> Iterator[dict]:
        """Flat (run × record) rows for the cross-run history queries.

        Each row carries the run's id/time axis next to the full outcome
        record; ordered by run, then sweep, then point index.
        """
        rows = self._connection.execute(
            "SELECT runs.run_id, runs.created_at, sweeps.name, records.record_json "
            "FROM records "
            "JOIN runs ON records.run_id = runs.run_id "
            "JOIN sweeps ON records.spec_key = sweeps.spec_key "
            "ORDER BY runs.run_id, records.spec_key, records.point_index"
        )
        for row in rows:
            yield {
                "run_id": row["run_id"],
                "created_at": row["created_at"],
                "sweep_name": row["name"],
                "record": json.loads(row["record_json"]),
            }

    def win_rate_rows(self, *, system: str | None = None) -> list[dict]:
        """Per-``(system, scheduler)`` win-rate counters, aggregated in SQL.

        Mirrors :func:`repro.analysis.history.scheduler_win_rates` over the
        store's current records exactly (the equality is pinned by tests),
        but the whole reduction — best makespan per (coordinate, scheduler),
        contest detection, win/tie tallies — runs inside sqlite over the
        indexed headline columns, so record JSON never reaches Python.  The
        two coordinate components the ``records`` table does not index
        (flit width, pattern penalty) are pulled via ``json_extract``.

        Returns dicts with keys ``system``, ``scheduler``, ``contests``,
        ``wins`` and ``ties``, ordered by system, then descending win rate,
        then scheduler; ``system`` keeps one system's rows (:func:`system_rows`).
        """
        rows = self._connection.execute(
            """
            WITH latest AS (
                SELECT spec_key, point_index, MAX(run_id) AS run_id
                FROM records
                GROUP BY spec_key, point_index
            ),
            current AS (
                SELECT records.system, records.reused_processors,
                       records.power_label,
                       json_extract(records.record_json, '$.flit_width')
                           AS flit_width,
                       json_extract(records.record_json, '$.pattern_penalty')
                           AS pattern_penalty,
                       records.scheduler, records.makespan
                FROM records
                JOIN latest ON records.spec_key = latest.spec_key
                           AND records.point_index = latest.point_index
                           AND records.run_id = latest.run_id
            ),
            best AS (
                SELECT system, reused_processors, power_label, flit_width,
                       pattern_penalty, scheduler, MIN(makespan) AS makespan
                FROM current
                GROUP BY system, reused_processors, power_label, flit_width,
                         pattern_penalty, scheduler
            ),
            ranked AS (
                SELECT *, COUNT(*) OVER coordinate AS policies,
                       MIN(makespan) OVER coordinate AS winning
                FROM best
                WINDOW coordinate AS (
                    PARTITION BY system, reused_processors, power_label,
                                 flit_width, pattern_penalty
                )
            ),
            tallied AS (
                SELECT *, SUM(makespan = winning) OVER coordinate AS winners
                FROM ranked
                WINDOW coordinate AS (
                    PARTITION BY system, reused_processors, power_label,
                                 flit_width, pattern_penalty
                )
            )
            SELECT system, scheduler,
                   COUNT(*) AS contests,
                   SUM(makespan = winning) AS wins,
                   SUM(makespan = winning AND winners > 1) AS ties
            FROM tallied
            WHERE policies >= 2
            GROUP BY system, scheduler
            ORDER BY system,
                     CAST(SUM(makespan = winning) AS REAL) / COUNT(*) DESC,
                     scheduler
            """
        )
        return system_rows([dict(row) for row in rows], system)

    def trajectory_rows(self, *, system: str | None = None) -> list[dict]:
        """Per-run, per-system makespan summaries, aggregated in SQL.

        The SQL twin of feeding :meth:`history_rows` through
        :func:`repro.analysis.history.makespan_trajectory` (equality pinned
        by tests): grouped by run and system over *all* stored runs — the
        history time axis — without loading record JSON.  ``total_makespan``
        is returned instead of a mean so the caller can divide in Python
        and match the pure-Python float arithmetic bit for bit.  ``system``
        keeps one system's rows (:func:`system_rows`).
        """
        rows = self._connection.execute(
            """
            SELECT runs.run_id AS run_id, runs.created_at AS created_at,
                   sweeps.name AS sweep_name, records.system AS system,
                   COUNT(*) AS record_count,
                   MIN(records.makespan) AS best_makespan,
                   SUM(records.makespan) AS total_makespan
            FROM records
            JOIN runs ON records.run_id = runs.run_id
            JOIN sweeps ON records.spec_key = sweeps.spec_key
            GROUP BY runs.run_id, runs.created_at, sweeps.name, records.system
            ORDER BY runs.run_id, runs.created_at, sweeps.name, records.system
            """
        )
        return system_rows([dict(row) for row in rows], system)

    # ------------------------------------------------------------------
    # JSON migration path.
    # ------------------------------------------------------------------
    def import_document(self, path: str | Path) -> int:
        """Import a schema-v1 JSON result document; returns records imported.

        The import lands as a new run, so for any point the document shares
        with earlier runs it becomes the current record — the JSON document
        is treated as the newer truth for the points it holds.

        Raises:
            ResultStoreError: when the document is unreadable, fails its
                spec-key check, or holds records without a point index.
        """
        imported = 0
        for sweep in load_sweeps(path):
            for record in sweep.records:
                if "index" not in record:
                    raise ResultStoreError(
                        f"cannot import {path}: sweep {sweep.spec.name!r} holds "
                        "a record without a point index"
                    )
            self.ensure_sweep(sweep.spec)
            self.record_run(
                sweep.spec_key,
                sweep.records,
                executed=len(sweep.records),
                skipped=0,
                source=f"import:{Path(path).name}",
            )
            imported += len(sweep.records)
        return imported

    def export_document(self, path: str | Path) -> Path:
        """Export every stored sweep as a schema-v1 JSON document (atomic).

        The export is canonical: a document that was imported and exported
        again is byte-identical, as is the document a plain ``--out`` run of
        the same grids would have written.
        """
        return save_stored_sweeps(path, self.stored_sweeps())

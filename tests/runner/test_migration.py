"""Tests of the in-place store migrations: v2 (pre-``jobs``) and v3
(pre-``point_costs``) stores upgrade to the current schema on first
writer open.

Old-version stores are manufactured by downgrading a current one —
dropping the newer tables and rewinding the version marker — which is
exactly the shape earlier PRs' daemons left on disk.
"""

import sqlite3

import pytest

from repro.errors import ResultStoreError
from repro.runner.db import DB_SCHEMA_VERSION, SweepDatabase
from repro.runner.engine import SweepRunner
from repro.runner.spec import SweepSpec


def seeded_store(path):
    """A current-schema store holding one small completed run."""
    spec = SweepSpec(
        name="migration-grid",
        systems=("d695_plasma",),
        processor_counts=(0, 2),
    )
    records = [outcome.record() for outcome in SweepRunner().run(spec)]
    with SweepDatabase(path) as db:
        spec_key = db.ensure_sweep(spec)
        db.record_run(spec_key, records, executed=len(records), skipped=0)
    return spec_key, records


def downgrade_to_v2(path):
    """Rewind a store to the pre-jobs schema (what PR 5/6 wrote)."""
    connection = sqlite3.connect(path)
    try:
        with connection:
            connection.execute("DROP TABLE jobs")
            connection.execute("DELETE FROM meta WHERE key = 'migrated_from'")
            connection.execute(
                "UPDATE meta SET value = '2' WHERE key = 'schema_version'"
            )
    finally:
        connection.close()


def downgrade_to_v3(path):
    """Rewind a store to the pre-point_costs schema (what PRs 6-9 wrote)."""
    connection = sqlite3.connect(path)
    try:
        with connection:
            connection.execute("DROP TABLE point_costs")
            connection.execute("DELETE FROM meta WHERE key = 'migrated_from'")
            connection.execute(
                "UPDATE meta SET value = '3' WHERE key = 'schema_version'"
            )
    finally:
        connection.close()


def meta_value(path, key):
    connection = sqlite3.connect(path)
    try:
        row = connection.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]
    finally:
        connection.close()


class TestMigration:
    def test_writer_migrates_v2_in_place(self, tmp_path):
        path = tmp_path / "v2.db"
        spec_key, records = seeded_store(path)
        downgrade_to_v2(path)
        with SweepDatabase(path) as db:
            # The upgrade happened on open: jobs table present and empty,
            # and the store's data came through untouched.
            assert db.job_rows() == []
            assert db.records(spec_key) == records
            assert db.data_version() == (len(records), 1)
        assert meta_value(path, "schema_version") == str(DB_SCHEMA_VERSION)
        assert meta_value(path, "migrated_from") == "2"

    def test_migrated_store_reopens_cleanly(self, tmp_path):
        path = tmp_path / "v2.db"
        seeded_store(path)
        downgrade_to_v2(path)
        with SweepDatabase(path):
            pass
        # Second open of the now-v3 store must not re-migrate or complain.
        with SweepDatabase(path) as db:
            assert db.job_rows() == []
        with SweepDatabase.open_reader(path) as reader:
            assert reader.read_only

    def test_reader_refuses_v2_with_migrate_hint(self, tmp_path):
        path = tmp_path / "v2.db"
        seeded_store(path)
        downgrade_to_v2(path)
        with pytest.raises(ResultStoreError, match="migrate it in place"):
            SweepDatabase.open_reader(path)

    def test_unknown_future_version_is_refused(self, tmp_path):
        path = tmp_path / "future.db"
        seeded_store(path)
        connection = sqlite3.connect(path)
        with connection:
            connection.execute(
                "UPDATE meta SET value = '99' WHERE key = 'schema_version'"
            )
        connection.close()
        with pytest.raises(ResultStoreError, match="99"):
            SweepDatabase(path)
        with pytest.raises(ResultStoreError, match="99"):
            SweepDatabase.open_reader(path)


class TestV3Migration:
    def test_writer_migrates_v3_in_place(self, tmp_path):
        path = tmp_path / "v3.db"
        spec_key, records = seeded_store(path)
        downgrade_to_v3(path)
        with SweepDatabase(path) as db:
            # The upgrade happened on open: point_costs table present and
            # empty, the store's data untouched.
            assert db.point_cost_rows(spec_key) == {}
            assert db.records(spec_key) == records
            assert db.data_version() == (len(records), 1)
            # The migrated store accepts cost writes immediately.
            db.record_run(
                spec_key, [], executed=0, skipped=0, point_costs={0: 0.25}
            )
            assert db.point_cost_rows(spec_key) == {0: 0.25}
        assert meta_value(path, "schema_version") == str(DB_SCHEMA_VERSION)
        assert meta_value(path, "migrated_from") == "3"

    def test_reader_refuses_v3_with_migrate_hint(self, tmp_path):
        path = tmp_path / "v3.db"
        seeded_store(path)
        downgrade_to_v3(path)
        with pytest.raises(ResultStoreError, match="migrate it in place"):
            SweepDatabase.open_reader(path)

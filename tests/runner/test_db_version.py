"""Tests of ``SweepDatabase.data_version()`` invalidation edges and of the
``open_reader`` read path — the serve TTL cache keys on the former and every
non-writer module opens stores through the latter."""

import pytest

from repro.errors import ResultStoreError
from repro.runner.db import SweepDatabase
from repro.runner.engine import SweepRunner
from repro.runner.spec import SweepSpec


@pytest.fixture(scope="module")
def spec():
    return SweepSpec(
        name="version-grid",
        systems=("d695_plasma",),
        processor_counts=(0, 2, 6),
        power_limits={"no power limit": None, "50% power limit": 0.5},
    )


@pytest.fixture(scope="module")
def serial_records(spec):
    return [outcome.record() for outcome in SweepRunner().run(spec)]


class TestDataVersionEdges:
    def test_fresh_store_baseline_is_zero_zero(self, tmp_path):
        with SweepDatabase(tmp_path / "fresh.db") as db:
            assert db.data_version() == (0, 0)

    def test_registering_a_sweep_alone_does_not_bump(self, spec, tmp_path):
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            db.ensure_sweep(spec)
            assert db.data_version() == (0, 0)

    def test_one_run_bumps_records_by_n_and_runs_by_one(
        self, spec, serial_records, tmp_path
    ):
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            spec_key = db.ensure_sweep(spec)
            db.record_run(
                spec_key, serial_records, executed=len(serial_records), skipped=0
            )
            assert db.data_version() == (len(serial_records), 1)

    def test_multi_write_in_one_run_transaction_is_a_single_version_step(
        self, spec, serial_records, tmp_path
    ):
        """All of a run's records land in one transaction: the version moves
        from the pre-run value straight to (records + N, runs + 1), never
        through intermediate states another connection could observe."""
        path = tmp_path / "sweeps.db"
        with SweepDatabase(path) as db, SweepDatabase.open_reader(path) as reader:
            spec_key = db.ensure_sweep(spec)
            before = reader.data_version()
            db.record_run(
                spec_key, serial_records, executed=len(serial_records), skipped=0
            )
            after = reader.data_version()
            assert before == (0, 0)
            assert after == (len(serial_records), 1)

    def test_merge_bumps_both_axes(self, spec, serial_records, tmp_path):
        shard_path = tmp_path / "shard.db"
        with SweepDatabase(shard_path) as shard:
            spec_key = shard.ensure_sweep(spec)
            shard.record_run(
                spec_key, serial_records, executed=len(serial_records), skipped=0
            )
        with SweepDatabase(tmp_path / "target.db") as target:
            before = target.data_version()
            with SweepDatabase.open_reader(shard_path) as shard:
                target.merge_all([shard])
            after = target.data_version()
        assert before == (0, 0)
        assert after == (len(serial_records), 1)

    def test_idempotent_re_merge_leaves_the_version_unchanged(
        self, spec, serial_records, tmp_path
    ):
        """A merge that inserts nothing adds no run row either, so the cache
        key the serve layer derives from the version stays warm."""
        shard_path = tmp_path / "shard.db"
        with SweepDatabase(shard_path) as shard:
            spec_key = shard.ensure_sweep(spec)
            shard.record_run(
                spec_key, serial_records, executed=len(serial_records), skipped=0
            )
        with SweepDatabase(tmp_path / "target.db") as target:
            with SweepDatabase.open_reader(shard_path) as shard:
                target.merge_all([shard])
                first = target.data_version()
                target.merge_all([shard])
                assert target.data_version() == first

    def test_history_carrying_merge_bumps_runs_by_the_shard_run_count(
        self, spec, serial_records, tmp_path
    ):
        shard_path = tmp_path / "shard.db"
        half = len(serial_records) // 2
        with SweepDatabase(shard_path) as shard:
            spec_key = shard.ensure_sweep(spec)
            shard.record_run(spec_key, serial_records[:half], executed=half, skipped=0)
            shard.record_run(
                spec_key,
                serial_records[half:],
                executed=len(serial_records) - half,
                skipped=0,
            )
        with SweepDatabase(tmp_path / "target.db") as target:
            with SweepDatabase.open_reader(shard_path) as shard:
                target.merge_all([shard])
                records, runs = target.data_version()
                assert records == len(serial_records)
                assert runs == 2
                # Idempotent: carrying the same shard again changes nothing.
                target.merge_all([shard])
                assert target.data_version() == (records, runs)


class TestOpenReader:
    def test_reader_sees_writer_content(self, spec, serial_records, tmp_path):
        path = tmp_path / "sweeps.db"
        with SweepDatabase(path) as db:
            spec_key = db.ensure_sweep(spec)
            db.record_run(
                spec_key, serial_records, executed=len(serial_records), skipped=0
            )
        with SweepDatabase.open_reader(path) as reader:
            assert reader.read_only
            assert reader.records(spec_key) == serial_records

    def test_reader_refuses_a_missing_store(self, tmp_path):
        with pytest.raises(ResultStoreError, match="cannot open"):
            SweepDatabase.open_reader(tmp_path / "absent.db")
        # And it must not have created the file as a side effect.
        assert not (tmp_path / "absent.db").exists()

    def test_reader_refuses_a_non_store_file(self, tmp_path):
        bogus = tmp_path / "bogus.db"
        bogus.write_bytes(b"not a sqlite store")
        with pytest.raises(ResultStoreError):
            SweepDatabase.open_reader(bogus)

    def test_write_operations_raise_through_a_reader(
        self, spec, serial_records, tmp_path
    ):
        path = tmp_path / "sweeps.db"
        with SweepDatabase(path) as db:
            spec_key = db.ensure_sweep(spec)
        with SweepDatabase.open_reader(path) as reader:
            with pytest.raises(ResultStoreError, match="read-only"):
                reader.ensure_sweep(spec)
            with pytest.raises(ResultStoreError, match="read-only"):
                reader.record_run(spec_key, serial_records, executed=1, skipped=0)
            with pytest.raises(ResultStoreError, match="read-only"):
                reader.merge_all([reader])
            with pytest.raises(ResultStoreError, match="read-only"):
                reader.merge_all([reader])

    def test_reader_export_matches_writer_export(
        self, spec, serial_records, tmp_path
    ):
        path = tmp_path / "sweeps.db"
        with SweepDatabase(path) as db:
            spec_key = db.ensure_sweep(spec)
            db.record_run(
                spec_key, serial_records, executed=len(serial_records), skipped=0
            )
            via_writer = db.export_document(tmp_path / "writer.json")
        with SweepDatabase.open_reader(path) as reader:
            via_reader = reader.export_document(tmp_path / "reader.json")
        assert via_reader.read_bytes() == via_writer.read_bytes()

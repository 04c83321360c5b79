"""Tests of the sqlite-backed sweep store and the incremental resume path."""

import sqlite3

import pytest

from repro.errors import ResultStoreError
from repro.runner.db import DB_SCHEMA_VERSION, MergeReport, SweepDatabase
from repro.runner.engine import SweepRunner
from repro.runner.spec import SweepSpec
from repro.runner.store import save_sweeps


@pytest.fixture(scope="module")
def spec():
    return SweepSpec(
        name="db-grid",
        systems=("d695_plasma",),
        processor_counts=(0, 2, 6),
        power_limits={"no power limit": None, "50% power limit": 0.5},
    )


@pytest.fixture(scope="module")
def serial_records(spec):
    """Records of a from-scratch serial full run — the equivalence baseline."""
    return [outcome.record() for outcome in SweepRunner(jobs=1).run(spec)]


def shard_store(spec, path, index, count, *, resume=False):
    """Run worker ``index`` of a ``count``-way round-robin split into
    ``path`` as ``repro sweep --points`` does."""
    indices = tuple(range(spec.point_count))[index::count]
    with SweepDatabase(path) as db:
        SweepRunner(jobs=1).run_points(spec, db, indices, resume=resume)
    return path


class TestRoundtrip:
    def test_records_round_trip(self, spec, serial_records, tmp_path):
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            spec_key = db.ensure_sweep(spec)
            db.record_run(
                spec_key, serial_records, executed=len(serial_records), skipped=0
            )
            assert db.records(spec_key) == serial_records
            assert db.record_count() == len(serial_records)

    def test_stored_sweep_integrity(self, spec, serial_records, tmp_path):
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            spec_key = db.ensure_sweep(spec)
            db.record_run(spec_key, serial_records, executed=6, skipped=0)
            stored = db.stored_sweep(spec_key)
            assert stored.spec == spec
            assert stored.spec_key == spec.content_key()
            assert list(stored.records) == serial_records

    def test_reopen_persists(self, spec, serial_records, tmp_path):
        path = tmp_path / "sweeps.db"
        with SweepDatabase(path) as db:
            spec_key = db.ensure_sweep(spec)
            db.record_run(spec_key, serial_records, executed=6, skipped=0)
        with SweepDatabase(path) as reopened:
            assert reopened.records(spec_key) == serial_records

    def test_wal_journaling(self, tmp_path):
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            row = db._connection.execute("PRAGMA journal_mode").fetchone()
            assert row[0] == "wal"

    def test_unknown_spec_key_rejected(self, tmp_path):
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            with pytest.raises(ResultStoreError, match="no sweep"):
                db.stored_sweep("0" * 64)


class TestIntegrityChecks:
    def test_not_a_sqlite_file(self, tmp_path):
        path = tmp_path / "bogus.db"
        path.write_text("definitely not sqlite", encoding="utf-8")
        with pytest.raises(ResultStoreError, match="not a usable sqlite"):
            SweepDatabase(path)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "sweeps.db"
        SweepDatabase(path).close()
        connection = sqlite3.connect(path)
        with connection:
            connection.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(DB_SCHEMA_VERSION + 1),),
            )
        connection.close()
        with pytest.raises(ResultStoreError, match="schema version"):
            SweepDatabase(path)

    def test_tampered_spec_key_rejected(self, spec, serial_records, tmp_path):
        """A stored spec that no longer hashes to its key must be refused:
        a stale key would drive resume to skip the wrong points."""
        path = tmp_path / "sweeps.db"
        with SweepDatabase(path) as db:
            spec_key = db.ensure_sweep(spec)
            db.record_run(spec_key, serial_records, executed=6, skipped=0)
        connection = sqlite3.connect(path)
        with connection:
            connection.execute(
                "UPDATE sweeps SET spec_json = replace(spec_json, 'db-grid', 'other')"
            )
        connection.close()
        with SweepDatabase(path) as db:
            with pytest.raises(ResultStoreError, match="hashes to"):
                db.stored_sweep(spec_key)


class TestResume:
    def test_resume_skips_existing_points(self, spec, tmp_path):
        runner = SweepRunner(jobs=1)
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            first = runner.run_stored(spec, db, resume=True)
            assert first.executed_count == spec.point_count
            assert first.skipped_count == 0
            second = runner.run_stored(spec, db, resume=True)
            assert second.executed_count == 0
            assert second.skipped_count == spec.point_count
            assert second.records == first.records

    def test_resume_from_reopened_store_returns_cold_records(self, spec, tmp_path):
        """A later process (fresh runner, reopened store) resumes to exactly
        the records the cold run wrote."""
        path = tmp_path / "sweeps.db"
        with SweepDatabase(path) as db:
            cold = SweepRunner(jobs=1).run_stored(spec, db, resume=True)
        with SweepDatabase(path) as db:
            warm = SweepRunner(jobs=1).run_stored(spec, db, resume=True)
        assert warm.executed_count == 0
        assert warm.skipped_count == spec.point_count
        assert warm.records == cold.records

    def test_interrupted_sweep_resumes_only_missing(self, spec, serial_records, tmp_path):
        """Seed the store with a partial run (as an interrupt would leave it);
        resume must execute exactly the missing points and converge on the
        serial full-run records."""
        partial = [r for r in serial_records if r["index"] in (0, 2, 5)]
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            spec_key = db.ensure_sweep(spec)
            db.record_run(spec_key, partial, executed=len(partial), skipped=0)
            report = SweepRunner(jobs=1).run_stored(spec, db, resume=True)
            assert report.executed_indices == (1, 3, 4)
            assert report.skipped_indices == (0, 2, 5)
            assert list(report.records) == serial_records

    def test_parallel_resumed_equals_serial_full(self, spec, serial_records, tmp_path):
        """A parallel resumed run over a partial store must be record-identical
        to a from-scratch serial run — the PR's acceptance criterion."""
        partial = [r for r in serial_records if r["index"] % 2 == 0]
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            spec_key = db.ensure_sweep(spec)
            db.record_run(spec_key, partial, executed=len(partial), skipped=0)
            report = SweepRunner(jobs=2).run_stored(spec, db, resume=True)
            assert report.executed_count == spec.point_count - len(partial)
            assert list(report.records) == serial_records

    def test_without_resume_reexecutes_everything(self, spec, tmp_path):
        runner = SweepRunner(jobs=1)
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            runner.run_stored(spec, db)
            report = runner.run_stored(spec, db)
            assert report.executed_count == spec.point_count
            assert report.skipped_count == 0
            assert db.record_count() == spec.point_count

    def test_resume_does_not_reuse_mismatched_characterization(self, spec, tmp_path):
        """Records written without characterisation (or with a different
        packet count) must not satisfy a characterising resume — reusing
        them would diverge from a from-scratch run."""
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            SweepRunner(jobs=1).run_stored(spec, db)  # characterize=False
            report = SweepRunner(
                jobs=1, characterize=True, packet_count=40
            ).run_stored(spec, db, resume=True)
            assert report.executed_count == spec.point_count
            assert report.skipped_count == 0
            assert all(
                record["characterization"]["packet_count"] == 40
                for record in report.records
            )
            # ...and a matching resume then reuses everything.
            again = SweepRunner(
                jobs=1, characterize=True, packet_count=40
            ).run_stored(spec, db, resume=True)
            assert again.executed_count == 0
            # A different packet count is again incompatible.
            other = SweepRunner(
                jobs=1, characterize=True, packet_count=60
            ).run_stored(spec, db, resume=True)
            assert other.executed_count == spec.point_count

    def test_earlier_runs_stay_in_history(self, spec, tmp_path):
        """Records append per run: re-running a grid must not erase the
        previous run's rows from the history (the makespan trajectory)."""
        runner = SweepRunner(jobs=1)
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            runner.run_stored(spec, db)
            runner.run_stored(spec, db)
            by_run: dict[int, int] = {}
            for row in db.history_rows():
                by_run[row["run_id"]] = by_run.get(row["run_id"], 0) + 1
            assert by_run == {1: spec.point_count, 2: spec.point_count}
            # Current state still reports one record per point.
            assert db.record_count() == spec.point_count

    def test_runs_table_records_counters(self, spec, tmp_path):
        runner = SweepRunner(jobs=1)
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            runner.run_stored(spec, db, resume=True)
            runner.run_stored(spec, db, resume=True)
            first, second = db.runs()
            assert first.executed_points == spec.point_count
            assert first.skipped_points == 0
            assert second.executed_points == 0
            assert second.skipped_points == spec.point_count
            assert second.run_id > first.run_id
            assert first.source == "sweep"


class TestMigration:
    def test_json_to_sqlite_to_json_round_trip(self, spec, tmp_path):
        outcomes = SweepRunner(jobs=1).run(spec)
        document = save_sweeps(tmp_path / "results.json", [(spec, outcomes)])
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            imported = db.import_document(document)
            assert imported == spec.point_count
            exported = db.export_document(tmp_path / "exported.json")
        assert exported.read_bytes() == document.read_bytes()

    def test_import_records_run_source(self, spec, serial_records, tmp_path):
        document = tmp_path / "results.json"
        outcomes = SweepRunner(jobs=1).run(spec)
        save_sweeps(document, [(spec, outcomes)])
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            db.import_document(document)
            (run,) = db.runs()
            assert run.source == "import:results.json"

    def test_export_matches_direct_save(self, spec, tmp_path):
        """Executing into the store then exporting equals saving the outcomes
        as JSON directly — byte for byte."""
        outcomes = SweepRunner(jobs=1).run(spec)
        direct = save_sweeps(tmp_path / "direct.json", [(spec, outcomes)])
        with SweepDatabase(tmp_path / "sweeps.db") as db:
            SweepRunner(jobs=1).run_stored(spec, db)
            exported = db.export_document(tmp_path / "exported.json")
        assert exported.read_bytes() == direct.read_bytes()


class TestMerge:
    def test_merged_shards_export_byte_identical_to_serial_run(self, tmp_path):
        """The PR's acceptance criterion on the d695 grid: a 3-shard run,
        merged, exports a schema-v1 document byte-identical to the document
        a serial full run writes."""
        from repro.experiments.figure1 import figure1_spec

        spec = figure1_spec("d695_leon")
        serial = save_sweeps(
            tmp_path / "serial.json", [(spec, SweepRunner(jobs=1).run(spec))]
        )
        with SweepDatabase(tmp_path / "merged.db") as merged:
            for index in range(3):
                path = shard_store(spec, tmp_path / f"shard-{index}.db", index, 3)
                with SweepDatabase(path) as shard:
                    (report,) = merged.merge_all([shard])
                assert report.identical == 0
            exported = merged.export_document(tmp_path / "merged.json")
        assert exported.read_bytes() == serial.read_bytes()

    def test_merge_empty_store_is_a_noop(self, spec, serial_records, tmp_path):
        with SweepDatabase(tmp_path / "target.db") as target:
            spec_key = target.ensure_sweep(spec)
            target.record_run(spec_key, serial_records, executed=6, skipped=0)
            with SweepDatabase(tmp_path / "empty.db") as empty:
                (report,) = target.merge_all([empty])
            assert report == MergeReport(spec_keys=(), inserted=0, identical=0)
            assert target.record_count() == len(serial_records)

    def test_merge_registered_sweep_without_records(self, spec, tmp_path):
        """An empty shard (sweep registered, zero records) still registers
        the sweep in the target but adds no run."""
        with SweepDatabase(tmp_path / "empty-shard.db") as shard:
            shard.ensure_sweep(spec)
        with SweepDatabase(tmp_path / "target.db") as target:
            with SweepDatabase(tmp_path / "empty-shard.db") as shard:
                (report,) = target.merge_all([shard])
            assert report.spec_keys == (spec.content_key(),)
            assert report.inserted == 0
            assert target.spec_keys() == [spec.content_key()]
            assert target.runs() == []

    def test_merge_identical_overlap_is_idempotent(self, spec, serial_records, tmp_path):
        """Merging the same shard twice changes nothing: overlapping
        byte-identical records are skipped, and no run row is added."""
        shard_path = tmp_path / "shard.db"
        with SweepDatabase(shard_path) as shard:
            spec_key = shard.ensure_sweep(spec)
            shard.record_run(spec_key, serial_records, executed=6, skipped=0)
        with SweepDatabase(tmp_path / "target.db") as target:
            with SweepDatabase(shard_path) as shard:
                (first,) = target.merge_all([shard])
            runs_after_first = len(target.runs())
            with SweepDatabase(shard_path) as shard:
                (second,) = target.merge_all([shard])
            assert first.inserted == len(serial_records)
            assert second.inserted == 0
            assert second.identical == len(serial_records)
            assert len(target.runs()) == runs_after_first
            assert target.records(spec.content_key()) == serial_records

    def test_merge_conflicting_record_rejected(self, spec, serial_records, tmp_path):
        """A shard holding a *different* record for an already-stored point
        must abort the merge and leave the target untouched."""
        conflicting = [dict(record) for record in serial_records]
        conflicting[2]["makespan"] = conflicting[2]["makespan"] + 1
        with SweepDatabase(tmp_path / "conflict.db") as shard:
            spec_key = shard.ensure_sweep(spec)
            shard.record_run(spec_key, conflicting, executed=6, skipped=0)
        with SweepDatabase(tmp_path / "target.db") as target:
            spec_key = target.ensure_sweep(spec)
            target.record_run(spec_key, serial_records, executed=6, skipped=0)
            runs_before = len(target.runs())
            with SweepDatabase(tmp_path / "conflict.db") as shard:
                with pytest.raises(ResultStoreError, match="point 2 conflicts"):
                    target.merge_all([shard])
            assert target.records(spec_key) == serial_records
            assert len(target.runs()) == runs_before

    def test_merge_mismatched_spec_key_rejected(self, spec, serial_records, tmp_path):
        """With expect_spec_keys, a shard of a grid outside the batch is refused."""
        other_spec = SweepSpec(
            name="other-grid", systems=("d695_leon",), processor_counts=(0,)
        )
        with SweepDatabase(tmp_path / "shard.db") as shard:
            shard.ensure_sweep(other_spec)
        with SweepDatabase(tmp_path / "target.db") as target:
            with SweepDatabase(tmp_path / "shard.db") as shard:
                with pytest.raises(ResultStoreError, match="different grid"):
                    target.merge_all([shard], expect_spec_keys={spec.content_key()})
            assert target.spec_keys() == []

    def test_merge_records_run_source(self, spec, serial_records, tmp_path):
        """The merged run keeps the shard's own source label and timestamp."""
        shard_path = tmp_path / "shard-a.db"
        with SweepDatabase(shard_path) as shard:
            spec_key = shard.ensure_sweep(spec)
            shard.record_run(
                spec_key,
                serial_records,
                executed=6,
                skipped=0,
                source="points:6",
                created_at="2026-07-01T00:00:00+00:00",
            )
        with SweepDatabase(tmp_path / "target.db") as target:
            with SweepDatabase(shard_path) as shard:
                target.merge_all([shard])
            (run,) = target.runs()
            assert run.source == "points:6"
            assert run.created_at == "2026-07-01T00:00:00+00:00"
            assert run.executed_points == len(serial_records)

    def test_merge_disjoint_sweeps_accumulates_both(self, spec, serial_records, tmp_path):
        """Merging stores that hold different grids keeps both sweeps."""
        other_spec = SweepSpec(
            name="other-grid", systems=("d695_plasma",), processor_counts=(0,)
        )
        other_records = [
            outcome.record() for outcome in SweepRunner(jobs=1).run(other_spec)
        ]
        with SweepDatabase(tmp_path / "a.db") as a:
            a.record_run(a.ensure_sweep(spec), serial_records, executed=6, skipped=0)
        with SweepDatabase(tmp_path / "b.db") as b:
            b.record_run(b.ensure_sweep(other_spec), other_records, executed=1, skipped=0)
        with SweepDatabase(tmp_path / "target.db") as target:
            for name in ("a.db", "b.db"):
                with SweepDatabase(tmp_path / name) as source:
                    target.merge_all([source])
            assert target.spec_keys() == [spec.content_key(), other_spec.content_key()]
            assert target.record_count() == len(serial_records) + len(other_records)


class TestCarryHistoryMerge:
    """merge_all carries every shard run: shard-side trajectories survive."""

    @staticmethod
    def _shard_slices(spec, serial_records, count=3):
        """(records, source, created_at) per shard, as 3 shard runs would
        commit them — timestamps pinned so stores are comparable row-for-row."""
        slices = []
        for index in range(count):
            indices = set(range(spec.point_count)[index::count])
            slices.append(
                (
                    [r for r in serial_records if r["index"] in indices],
                    f"shard:{index}/{count}",
                    f"2026-07-0{index + 1}T00:00:00+00:00",
                )
            )
        return slices

    def _shard_stores(self, spec, serial_records, tmp_path, count=3):
        paths = []
        for index, (records, source, created_at) in enumerate(
            self._shard_slices(spec, serial_records, count)
        ):
            path = tmp_path / f"carry-shard-{index}.db"
            with SweepDatabase(path) as shard:
                shard.record_run(
                    shard.ensure_sweep(spec),
                    records,
                    executed=len(records),
                    skipped=0,
                    source=source,
                    created_at=created_at,
                )
            paths.append(path)
        return paths

    def test_run_ids_remapped_collision_free(self, spec, serial_records, tmp_path):
        """Every shard store numbers its run 1; carried into a target that
        already has runs, each lands under a fresh id and no records are
        lost or overwritten."""
        paths = self._shard_stores(spec, serial_records, tmp_path)
        with SweepDatabase(tmp_path / "target.db") as target:
            # The target has its own history first: run id 1 is taken.
            target.record_run(
                target.ensure_sweep(spec),
                serial_records,
                executed=len(serial_records),
                skipped=0,
            )
            for path in paths:
                with SweepDatabase(path) as shard:
                    target.merge_all([shard])
            run_ids = [run.run_id for run in target.runs()]
            assert run_ids == [1, 2, 3, 4]
            assert [run.source for run in target.runs()[1:]] == [
                "shard:0/3",
                "shard:1/3",
                "shard:2/3",
            ]
            # Each carried run still holds exactly its shard's records.
            total = sum(len(target.run_records(run_id)) for run_id in run_ids)
            assert total == 2 * len(serial_records)
            assert target.records(spec.content_key()) == serial_records

    def test_carry_merge_idempotent(self, spec, serial_records, tmp_path):
        paths = self._shard_stores(spec, serial_records, tmp_path)
        with SweepDatabase(tmp_path / "target.db") as target:
            for path in paths:
                with SweepDatabase(path) as shard:
                    (first,) = target.merge_all([shard])
                assert first.runs_carried == 1
            runs_after = len(target.runs())
            for path in paths:
                with SweepDatabase(path) as shard:
                    (again,) = target.merge_all([shard])
                assert again.runs_carried == 0
                assert again.inserted == 0
                assert again.identical > 0
            assert len(target.runs()) == runs_after

    def test_history_equals_sequential_serial_store_row_for_row(
        self, spec, serial_records, tmp_path
    ):
        """The satellite acceptance: history_rows()/trajectory_rows() over a
        carry-merged store equal — row for row — those of a store where the
        same shard runs executed sequentially on one host."""
        slices = self._shard_slices(spec, serial_records)
        sequential_path = tmp_path / "sequential.db"
        with SweepDatabase(sequential_path) as sequential:
            key = sequential.ensure_sweep(spec)
            for records, source, created_at in slices:
                sequential.record_run(
                    key,
                    records,
                    executed=len(records),
                    skipped=0,
                    source=source,
                    created_at=created_at,
                )
        paths = self._shard_stores(spec, serial_records, tmp_path)
        with SweepDatabase(tmp_path / "merged.db") as merged:
            shards = [SweepDatabase(path) for path in paths]
            try:
                merged.merge_all(shards)
            finally:
                for shard in shards:
                    shard.close()
            with SweepDatabase(sequential_path) as sequential:
                assert list(merged.history_rows()) == list(sequential.history_rows())
                assert merged.trajectory_rows() == sequential.trajectory_rows()
                assert merged.win_rate_rows() == sequential.win_rate_rows()
                assert merged.run_count() == sequential.run_count() == 3

    def test_run_count_equals_sum_of_shard_run_counts(self, spec, tmp_path):
        """Through the real sliced-run path: the merged store's run count is
        the sum of the shard stores' (including a resumed shard's 2 runs)."""
        paths = []
        for index in range(3):
            path = shard_store(spec, tmp_path / f"real-shard-{index}.db", index, 3)
            if index == 0:  # a resumed re-run adds a second run row
                shard_store(spec, path, index, 3, resume=True)
            paths.append(path)
        with SweepDatabase(tmp_path / "merged.db") as merged:
            shard_runs = 0
            for path in paths:
                with SweepDatabase(path) as shard:
                    shard_runs += shard.run_count()
                    merged.merge_all([shard])
            assert shard_runs == 4
            assert merged.run_count() == shard_runs
            assert merged.record_count() == spec.point_count

    def test_carry_merge_conflict_rejected_before_writing(
        self, spec, serial_records, tmp_path
    ):
        conflicting = [dict(record) for record in serial_records]
        conflicting[1]["makespan"] += 1
        with SweepDatabase(tmp_path / "bad.db") as shard:
            shard.record_run(shard.ensure_sweep(spec), conflicting, executed=6, skipped=0)
        with SweepDatabase(tmp_path / "target.db") as target:
            key = target.ensure_sweep(spec)
            target.record_run(key, serial_records, executed=6, skipped=0)
            with SweepDatabase(tmp_path / "bad.db") as shard:
                with pytest.raises(ResultStoreError, match="point 1 conflicts"):
                    target.merge_all([shard])
            assert target.run_count() == 1
            assert target.records(spec.content_key()) == serial_records

    def test_carried_export_byte_identical_to_serial_store(
        self, spec, serial_records, tmp_path
    ):
        """Carrying history must not change the *current* records: the
        exported document equals that of a store holding the serial run."""
        paths = self._shard_stores(spec, serial_records, tmp_path)
        with SweepDatabase(tmp_path / "serial.db") as serial:
            serial.record_run(
                serial.ensure_sweep(spec),
                serial_records,
                executed=len(serial_records),
                skipped=0,
            )
            serial_doc = serial.export_document(tmp_path / "serial.json")
        with SweepDatabase(tmp_path / "carried.db") as carried:
            for path in paths:
                with SweepDatabase(path) as shard:
                    carried.merge_all([shard])
            carried_doc = carried.export_document(tmp_path / "carried.json")
        assert carried_doc.read_bytes() == serial_doc.read_bytes()


class TestMergeAll:
    @staticmethod
    def _store_with(path, spec, records):
        with SweepDatabase(path) as db:
            db.record_run(
                db.ensure_sweep(spec), records, executed=len(records), skipped=0
            )
        return path

    def test_merge_all_reports_per_source(self, spec, serial_records, tmp_path):
        a = self._store_with(tmp_path / "a.db", spec, serial_records[:3])
        b = self._store_with(tmp_path / "b.db", spec, serial_records[3:])
        with SweepDatabase(tmp_path / "target.db") as target:
            with SweepDatabase(a) as da, SweepDatabase(b) as db_:
                first, second = target.merge_all([da, db_])
            assert (first.inserted, second.inserted) == (3, 3)
            assert target.records(spec.content_key()) == serial_records

    def test_merge_all_duplicate_source_is_identical(self, spec, serial_records, tmp_path):
        a = self._store_with(tmp_path / "a.db", spec, serial_records)
        with SweepDatabase(tmp_path / "target.db") as target:
            with SweepDatabase(a) as first_open, SweepDatabase(a) as second_open:
                first, second = target.merge_all([first_open, second_open])
            assert first.inserted == len(serial_records)
            assert second.inserted == 0
            assert second.identical == len(serial_records)

    def test_merge_all_cross_source_conflict_writes_nothing(
        self, spec, serial_records, tmp_path
    ):
        """A conflict between two *sources* must surface during planning and
        leave the target completely untouched — even the valid source's
        records must not land."""
        conflicting = [dict(record) for record in serial_records]
        conflicting[4]["makespan"] += 1
        a = self._store_with(tmp_path / "a.db", spec, serial_records)
        b = self._store_with(tmp_path / "b.db", spec, conflicting)
        with SweepDatabase(tmp_path / "target.db") as target:
            with SweepDatabase(a) as da, SweepDatabase(b) as db_:
                with pytest.raises(ResultStoreError, match="point 4 conflicts"):
                    target.merge_all([da, db_])
            assert target.record_count() == 0
            assert target.spec_keys() == []
            assert target.runs() == []


class TestPointCosts:
    """Schema v4 point costs: control metadata feeding cost-based dispatch."""

    def test_costs_roundtrip_and_average_across_runs(self, spec, tmp_path):
        with SweepDatabase(tmp_path / "costs.db") as db:
            spec_key = db.ensure_sweep(spec)
            first = db.record_run(
                spec_key, [], executed=0, skipped=0, point_costs={0: 1.0, 1: 3.0}
            )
            db.record_run(
                spec_key, [], executed=0, skipped=0, point_costs={0: 2.0}
            )
            assert db.point_cost_rows(spec_key) == {0: 1.5, 1: 3.0}
            assert db.run_point_costs(first) == {0: 1.0, 1: 3.0}

    def test_serial_store_backed_run_records_its_costs(self, spec, tmp_path):
        """The serial backend measures per-point planning time and the
        engine persists it — the feedback loop cost-based sharding reads."""
        with SweepDatabase(tmp_path / "measured.db") as db:
            report = SweepRunner(jobs=1).run_stored(spec, db)
            costs = db.point_cost_rows(report.spec_key)
        assert set(costs) == {p.index for p in spec.points()}
        assert all(seconds >= 0.0 for seconds in costs.values())

    def test_costs_never_touch_byte_identity(self, spec, serial_records, tmp_path):
        """Costs are control metadata: two stores holding the same records,
        one with costs and one without, export byte-identically and agree
        on data_version."""
        exports = []
        versions = []
        for name, costs in (("plain", None), ("costed", {0: 1.25, 3: 0.5})):
            with SweepDatabase(tmp_path / f"{name}.db") as db:
                spec_key = db.ensure_sweep(spec)
                db.record_run(
                    spec_key,
                    serial_records,
                    executed=len(serial_records),
                    skipped=0,
                    point_costs=costs,
                )
                exports.append(
                    db.export_document(tmp_path / f"{name}.json").read_bytes()
                )
                versions.append(db.data_version())
        assert exports[0] == exports[1]
        assert versions[0] == versions[1]

    def test_history_carrying_merge_carries_costs(self, spec, tmp_path):
        with SweepDatabase(tmp_path / "shard.db") as shard:
            report = SweepRunner(jobs=1).run_stored(spec, shard)
            shard_costs = shard.point_cost_rows(report.spec_key)
            with SweepDatabase(tmp_path / "target.db") as target:
                target.merge_all([shard])
                assert target.point_cost_rows(report.spec_key) == shard_costs

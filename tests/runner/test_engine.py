"""Tests of the sweep engine: determinism, caching, parallel equivalence."""

import pytest

from repro.errors import ConfigurationError
from repro.runner.engine import SweepRunner
from repro.runner.spec import SweepSpec
from repro.runner.store import dump_sweep
from repro.schedule.planner import TestPlanner
from repro.schedule.result import validate_schedule
from repro.system.presets import build_paper_system


@pytest.fixture(scope="module")
def d695_spec():
    return SweepSpec(
        name="d695-grid",
        systems=("d695_leon",),
        processor_counts=(0, 2, 4),
        power_limits={"no power limit": None, "50% power limit": 0.5},
    )


@pytest.fixture(scope="module")
def serial_outcomes(d695_spec):
    return SweepRunner(jobs=1).run(d695_spec)


def shard_indices(spec, shard_index, shard_count, strided=False):
    """Worker ``shard_index``'s point list when ``spec`` is split ``shard_count``
    ways: a contiguous block of at most ceil(points / shards) indices, or
    every ``shard_count``-th index when ``strided``."""
    indices = tuple(range(spec.point_count))
    if strided:
        return indices[shard_index::shard_count]
    size = -(-spec.point_count // shard_count)
    return indices[shard_index * size : (shard_index + 1) * size]


def shard_run(spec, db, *, shard_index, shard_count, strided=False, resume=False):
    """Run one worker's list of ``spec`` into ``db`` as ``repro sweep --points`` does."""
    return SweepRunner(jobs=1).run_points(
        spec, db, shard_indices(spec, shard_index, shard_count, strided), resume=resume
    )


class TestSerialExecution:
    def test_outcomes_in_point_order(self, d695_spec, serial_outcomes):
        assert [o.point for o in serial_outcomes] == list(d695_spec.points())

    def test_schedules_valid(self, serial_outcomes):
        for outcome in serial_outcomes:
            validate_schedule(outcome.result)

    def test_matches_direct_planner_path(self, serial_outcomes):
        """The engine must reproduce the legacy serial loop exactly."""
        planner = TestPlanner(build_paper_system("d695_leon"))
        for outcome in serial_outcomes:
            direct = planner.plan(
                reused_processors=outcome.point.reused_processors,
                power_limit_fraction=outcome.point.power_limit_fraction,
            )
            assert outcome.makespan == direct.makespan
            assert [
                (a.core_id, a.start, a.interface_id)
                for a in outcome.result.assignments
            ] == [(a.core_id, a.start, a.interface_id) for a in direct.assignments]

    def test_system_built_once_per_soc(self, d695_spec):
        runner = SweepRunner(jobs=1)
        runner.run(d695_spec)
        assert runner.system_cache.stats.misses == 1
        assert runner.system_cache.stats.hits == d695_spec.point_count - 1

    def test_system_built_once_across_specs(self, d695_spec, serial_outcomes):
        """Related grids on one runner share the build: one per distinct
        SoC, not one per spec, and a re-run plans identically."""
        runner = SweepRunner(jobs=1)
        runner.run(
            SweepSpec(
                name="d695-other-grid",
                systems=("d695_leon",),
                processor_counts=(0, 6),
                power_limits={"no power limit": None},
            )
        )
        again = runner.run(d695_spec)
        assert runner.system_cache.stats.misses == 1
        assert [o.makespan for o in again] == [o.makespan for o in serial_outcomes]


class TestDeterminism:
    def test_same_spec_gives_byte_identical_store_json(self, d695_spec):
        first = dump_sweep(d695_spec, SweepRunner(jobs=1).run(d695_spec))
        second = dump_sweep(d695_spec, SweepRunner(jobs=1).run(d695_spec))
        assert first == second

    def test_characterized_run_is_deterministic(self, d695_spec, tmp_path):
        first = dump_sweep(
            d695_spec,
            SweepRunner(jobs=1, characterize=True, packet_count=40).run(d695_spec),
        )
        second = dump_sweep(
            d695_spec,
            SweepRunner(
                jobs=1, characterize=True, packet_count=40, cache_dir=tmp_path
            ).run(d695_spec),
        )
        assert first == second


class TestParallelExecution:
    def test_parallel_equals_serial(self, d695_spec, serial_outcomes):
        parallel = SweepRunner(jobs=2).run(d695_spec)
        assert [o.point for o in parallel] == [o.point for o in serial_outcomes]
        for par, ser in zip(parallel, serial_outcomes):
            assert par.makespan == ser.makespan
            assert [
                (a.core_id, a.start, a.interface_id) for a in par.result.assignments
            ] == [(a.core_id, a.start, a.interface_id) for a in ser.result.assignments]

    def test_parallel_store_json_identical(self, d695_spec, serial_outcomes):
        parallel = SweepRunner(jobs=2).run(d695_spec)
        assert dump_sweep(d695_spec, parallel) == dump_sweep(
            d695_spec, serial_outcomes
        )

    def test_parallel_builds_once_per_soc_in_parent(self, d695_spec):
        """The parent pre-builds and seeds the workers, so the cache stats
        reflect one build per SoC even on the pool path."""
        runner = SweepRunner(jobs=2)
        runner.run(d695_spec)
        assert runner.system_cache.stats.misses == 1


class TestCharacterization:
    def test_disabled_by_default(self, serial_outcomes):
        assert all(o.characterization is None for o in serial_outcomes)

    def test_one_characterization_per_soc(self, d695_spec):
        runner = SweepRunner(jobs=1, characterize=True, packet_count=40)
        outcomes = runner.run(d695_spec)
        assert runner.characterization_cache.stats.misses == 1
        characterizations = {id(o.characterization) for o in outcomes}
        assert len(characterizations) == 1
        assert outcomes[0].characterization.packet_count == 40

    def test_record_shape(self, d695_spec):
        runner = SweepRunner(jobs=1, characterize=True, packet_count=40)
        record = runner.run(d695_spec)[0].record()
        assert record["system"] == "d695_leon"
        assert record["makespan"] > 0
        assert record["scheduler_policy"] == "greedy-first-available"
        assert record["characterization"]["packet_count"] == 40


class TestRunnerConfiguration:
    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            SweepRunner(jobs=-2)

    def test_jobs_zero_means_cpu_count(self):
        assert SweepRunner(jobs=0).jobs >= 1

    def test_shared_system_cache(self, d695_spec):
        from repro.runner.cache import SystemCache

        shared = SystemCache()
        SweepRunner(jobs=1, system_cache=shared).run(d695_spec)
        SweepRunner(jobs=1, system_cache=shared).run(d695_spec)
        assert shared.stats.misses == 1


class TestShardExecution:
    def test_shard_executes_only_its_points(self, d695_spec, tmp_path):
        from repro.runner.db import SweepDatabase

        with SweepDatabase(tmp_path / "shard.db") as db:
            report = shard_run(d695_spec, db, shard_index=0, shard_count=3)
            expected = shard_indices(d695_spec, 0, 3)
            assert report.executed_indices == expected
            assert report.skipped_indices == ()
            assert tuple(r["index"] for r in report.records) == expected
            (run,) = db.runs()
            assert run.source == f"points:{len(expected)}"

    def test_sharded_stores_merge_to_serial_records(
        self, d695_spec, serial_outcomes, tmp_path
    ):
        """Running every shard into its own store and merging must be
        record-identical to a serial full run of the grid."""
        from repro.runner.db import SweepDatabase

        shard_paths = []
        for index in range(3):
            path = tmp_path / f"shard-{index}.db"
            with SweepDatabase(path) as db:
                shard_run(d695_spec, db, shard_index=index, shard_count=3)
            shard_paths.append(path)
        with SweepDatabase(tmp_path / "merged.db") as merged:
            for path in shard_paths:
                with SweepDatabase(path) as shard:
                    merged.merge_all([shard])
            records = merged.records(d695_spec.content_key())
        assert records == [outcome.record() for outcome in serial_outcomes]

    def test_strided_shards_merge_to_serial_records(
        self, d695_spec, serial_outcomes, tmp_path
    ):
        from repro.runner.db import SweepDatabase

        with SweepDatabase(tmp_path / "merged.db") as merged:
            for index in range(2):
                path = tmp_path / f"shard-{index}.db"
                with SweepDatabase(path) as db:
                    shard_run(d695_spec, db, shard_index=index, shard_count=2, strided=True)
                with SweepDatabase(path) as shard:
                    merged.merge_all([shard])
            records = merged.records(d695_spec.content_key())
        assert records == [outcome.record() for outcome in serial_outcomes]

    def test_shard_resume_skips_stored_points(self, d695_spec, tmp_path):
        from repro.runner.db import SweepDatabase

        with SweepDatabase(tmp_path / "shard.db") as db:
            first = shard_run(d695_spec, db, shard_index=1, shard_count=3, resume=True)
            again = shard_run(d695_spec, db, shard_index=1, shard_count=3, resume=True)
            assert first.executed_count == len(shard_indices(d695_spec, 1, 3))
            assert again.executed_count == 0
            assert again.skipped_indices == first.executed_indices
            assert again.records == first.records

    def test_invalid_shard_rejected(self, d695_spec, tmp_path):
        """A point list naming an index outside the grid is rejected."""
        from repro.runner.db import SweepDatabase

        with SweepDatabase(tmp_path / "shard.db") as db:
            with pytest.raises(ConfigurationError, match="out of range"):
                SweepRunner(jobs=1).run_points(d695_spec, db, [0, d695_spec.point_count])

    def test_empty_shards_run_merge_and_export_end_to_end(
        self, d695_spec, serial_outcomes, tmp_path
    ):
        """More shards than points (6 points, 10 shards): the empty shards
        must run (recording an empty run), merge, and the merged store must
        still export byte-identical to a serial full run's document."""
        from repro.runner.db import SweepDatabase
        from repro.runner.store import save_sweeps

        serial = save_sweeps(tmp_path / "serial.json", [(d695_spec, serial_outcomes)])
        shard_paths = []
        for index in range(10):
            path = tmp_path / f"shard-{index}.db"
            with SweepDatabase(path) as db:
                report = shard_run(d695_spec, db, shard_index=index, shard_count=10)
                if index >= d695_spec.point_count:
                    assert report.executed_count == 0
                    assert report.records == ()
                    (run,) = db.runs()
                    assert run.source == "points:0"
            shard_paths.append(path)
        with SweepDatabase(tmp_path / "merged.db") as merged:
            for path in shard_paths:
                with SweepDatabase(path) as shard:
                    merged.merge_all([shard])
            assert merged.record_count() == d695_spec.point_count
            exported = merged.export_document(tmp_path / "merged.json")
        assert exported.read_bytes() == serial.read_bytes()


class TestShardReportsOnSharedStore:
    def test_shard_report_holds_only_its_own_points(self, d695_spec, tmp_path):
        """Shards landing in the SAME store must not leak each other's
        records through their reports."""
        from repro.runner.db import SweepDatabase

        with SweepDatabase(tmp_path / "shared.db") as db:
            shard_run(d695_spec, db, shard_index=0, shard_count=3)
            second = shard_run(d695_spec, db, shard_index=1, shard_count=3)
            expected = shard_indices(d695_spec, 1, 3)
            assert tuple(r["index"] for r in second.records) == expected
            # ...while the store itself accumulates both shards.
            assert db.record_count(d695_spec.content_key()) == len(expected) * 2


class TestCheckpointedRuns:
    """checkpoint_every: chunked commits that make killed runs resumable."""

    def test_non_positive_checkpoint_rejected(self):
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            SweepRunner(checkpoint_every=0)

    def test_chunked_run_rows_and_identical_records(self, d695_spec, tmp_path):
        from repro.runner.db import SweepDatabase

        with SweepDatabase(tmp_path / "chunked.db") as db:
            SweepRunner(checkpoint_every=2).run_stored(d695_spec, db)
            runs = db.runs()
            records = db.records(d695_spec.content_key())
        # 6 points in chunks of 2 -> 3 run rows, executed counters intact.
        assert [run.executed_points for run in runs] == [2, 2, 2]
        assert sum(run.skipped_points for run in runs) == 0
        serial = [o.record() for o in SweepRunner(jobs=1).run(d695_spec)]
        assert records == serial

    def test_partial_checkpointed_run_resumes_to_the_serial_records(
        self, d695_spec, tmp_path
    ):
        """The requeue foundation: execute only part of the grid (as a
        killed checkpointing worker would leave it), then resume — the
        store must converge to the serial records."""
        from repro.runner.db import SweepDatabase

        runner = SweepRunner(checkpoint_every=1)
        with SweepDatabase(tmp_path / "partial.db") as db:
            runner.run_points(d695_spec, db, [0, 1], resume=False)
            report = runner.run_stored(d695_spec, db, resume=True)
            assert len(report.executed_indices) == d695_spec.point_count - 2
            assert report.skipped_indices == (0, 1)
            records = db.records(d695_spec.content_key())
        serial = [o.record() for o in SweepRunner(jobs=1).run(d695_spec)]
        assert records == serial


class TestPointSubsetRuns:
    def test_run_points_labels_its_source(self, d695_spec, tmp_path):
        from repro.runner.db import SweepDatabase

        with SweepDatabase(tmp_path / "points.db") as db:
            report = SweepRunner().run_points(d695_spec, db, [4, 2])
            (run,) = db.runs()
            assert run.source == "points:2"
            assert [r["reused_processors"] for r in db.records(report.spec_key)] == [
                d695_spec.points()[2].reused_processors,
                d695_spec.points()[4].reused_processors,
            ]

    def test_resumed_subset_skips_executed_points(self, d695_spec, tmp_path):
        from repro.runner.db import SweepDatabase

        runner = SweepRunner()
        with SweepDatabase(tmp_path / "points.db") as db:
            runner.run_points(d695_spec, db, [0, 1])
            report = runner.run_points(d695_spec, db, [0, 1, 2], resume=True)
            assert report.executed_indices == (2,)
            assert report.skipped_indices == (0, 1)

    def test_shard_worker_backend_cannot_run_points_inline(self):
        """The shard-worker orchestrator is no execution backend: a runner
        refuses it when built, so no entry point can mis-execute it."""
        from repro.runner.backends import ShardWorkerBackend

        with pytest.raises(ConfigurationError, match="ShardWorkerBackend"):
            SweepRunner(backend=ShardWorkerBackend(workers=2))

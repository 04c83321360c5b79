"""Chaos-driven integration tests of fault-tolerant orchestration.

The PR's acceptance criterion: with injected faults on up to half the
workers, ``orchestrate`` completes, retries are recorded, and the merged
export is byte-identical to a serial run — the merge invariant survives
every retry path.
"""

import json

import pytest

from repro.devtools.chaos import CHAOS_ENV
from repro.errors import OrchestrationError
from repro.experiments.figure1 import figure1_spec
from repro.runner.backends import ShardWorkerBackend, batch_dirname
from repro.runner.db import SweepDatabase
from repro.runner.dispatch import WorkerState
from repro.runner.engine import SweepRunner
from repro.runner.store import save_sweeps


@pytest.fixture(scope="module")
def spec():
    return figure1_spec("d695_leon")


@pytest.fixture(scope="module")
def serial_export(spec, tmp_path_factory):
    """The ground truth every chaos-ridden orchestration must reproduce."""
    out = tmp_path_factory.mktemp("serial") / "serial.json"
    return save_sweeps(out, [(spec, SweepRunner(jobs=1).run(spec))]).read_bytes()


def orchestrate_with_chaos(specs, tmp_path, monkeypatch, faults, **backend_kwargs):
    monkeypatch.setenv(CHAOS_ENV, json.dumps(faults))
    backend = ShardWorkerBackend(
        workers=3,
        max_retries=2,
        retry_backoff=0.05,
        checkpoint_every=1,
        **backend_kwargs,
    )
    with SweepDatabase(tmp_path / "merged.db") as db:
        report = backend.orchestrate(specs, db, workdir=tmp_path / "work")
        exported = db.export_document(tmp_path / "merged.json").read_bytes()
        run_count = db.run_count()
    return report, exported, run_count


def shard_run_counts(report):
    counts = []
    for worker in report.workers:
        with SweepDatabase(worker.plan.store_path) as shard:
            counts.append(shard.run_count())
    return counts


class TestCrashRequeue:
    def test_mid_shard_crash_retries_and_merges_byte_identical(
        self, spec, tmp_path, monkeypatch, serial_export
    ):
        """Kill worker 0 inside its first planned point, before that point
        commits; the retry resumes the shard store and the merged export
        matches serial byte for byte."""
        report, exported, run_count = orchestrate_with_chaos(
            [spec],
            tmp_path,
            monkeypatch,
            [{"kind": "crash", "shard": 0, "attempt": 1, "after_points": 1}],
        )
        assert exported == serial_export
        crashed = report.workers[0]
        assert crashed.retries == 1
        assert [a.state for a in crashed.attempts] == [
            WorkerState.FAILED,
            WorkerState.FINISHED,
        ]
        assert crashed.attempts[0].returncode == 70
        assert sum(w.retries for w in report.workers) == 1
        # The merge carried every shard run (partial + resumed) in.
        assert run_count == sum(shard_run_counts(report))

    def test_faults_on_half_the_fleet(
        self, spec, tmp_path, monkeypatch, serial_export
    ):
        """Crashes on two of four workers (the acceptance bound) still
        converge to the serial export."""
        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps(
                [
                    {"kind": "crash", "shard": 0, "attempt": 1, "after_points": 1},
                    {"kind": "crash", "shard": 2, "attempt": 1, "exit_code": 9},
                ]
            ),
        )
        backend = ShardWorkerBackend(
            workers=4, max_retries=2, retry_backoff=0.05, checkpoint_every=1
        )
        with SweepDatabase(tmp_path / "merged.db") as db:
            report = backend.orchestrate([spec], db, workdir=tmp_path / "work")
            exported = db.export_document(tmp_path / "merged.json").read_bytes()
        assert exported == serial_export
        assert sum(w.retries for w in report.workers) == 2
        assert all(w.state is WorkerState.FINISHED for w in report.workers)


class TestBatchCrashRequeue:
    def test_crash_in_a_two_spec_batch_resumes_both_specs(
        self, tmp_path, monkeypatch
    ):
        """Worker 0 of a d695_leon + d695_plasma batch commits one point of
        the first grid, then crashes; its one retry resumes the shard of
        both grids and the export still matches serial byte for byte."""
        specs = [figure1_spec("d695_leon"), figure1_spec("d695_plasma")]
        runner = SweepRunner(jobs=1)
        serial = save_sweeps(
            tmp_path / "serial.json", [(spec, runner.run(spec)) for spec in specs]
        ).read_bytes()
        report, exported, run_count = orchestrate_with_chaos(
            specs,
            tmp_path,
            monkeypatch,
            [{"kind": "crash", "shard": 0, "attempt": 1, "after_points": 2}],
        )
        assert exported == serial
        crashed = report.workers[0]
        assert [a.state for a in crashed.attempts] == [
            WorkerState.FAILED,
            WorkerState.FINISHED,
        ]
        assert sum(w.retries for w in report.workers) == 1
        assert run_count == sum(shard_run_counts(report))
        first, second = report.spec_keys
        with SweepDatabase(crashed.plan.store_path) as shard:
            runs = shard.runs()
            assert shard.record_count(first) == shard.record_count(second) == 3
        # Attempt 1 committed point 0 (checkpoint 1) before the crash; the
        # retry skipped it and executed the rest of both shards.
        assert [r.executed_points for r in runs if r.spec_key == first] == [1, 1, 1]
        assert sum(r.skipped_points for r in runs if r.spec_key == first) == 1
        assert sum(r.executed_points for r in runs if r.spec_key == second) == 3


class TestHangRequeue:
    def test_stale_heartbeat_worker_declared_lost_then_requeued(
        self, spec, tmp_path, monkeypatch, serial_export
    ):
        """A worker that stops beating mid-shard is declared Lost, killed,
        and its shard resumed on a fresh attempt."""
        report, exported, run_count = orchestrate_with_chaos(
            [spec],
            tmp_path,
            monkeypatch,
            [{"kind": "hang", "shard": 1, "attempt": 1, "after_points": 1}],
            heartbeat_timeout=1.5,
        )
        assert exported == serial_export
        hung = report.workers[1]
        assert hung.retries == 1
        assert hung.attempts[0].state is WorkerState.LOST
        assert hung.attempts[0].heartbeats >= 1
        assert run_count == sum(shard_run_counts(report))


class TestCorruptExitRequeue:
    def test_complete_shard_with_bad_exit_code_resumes_to_a_noop(
        self, spec, tmp_path, monkeypatch, serial_export
    ):
        """corrupt-exit completes the shard but exits nonzero: the retry's
        resume run must execute zero points and the export stays identical
        (idempotent merge, no duplicated records)."""
        report, exported, _ = orchestrate_with_chaos(
            [spec],
            tmp_path,
            monkeypatch,
            [{"kind": "corrupt-exit", "shard": 0, "attempt": 1, "exit_code": 41}],
        )
        assert exported == serial_export
        assert report.workers[0].retries == 1
        assert report.workers[0].attempts[0].returncode == 41
        # the shard store already held every record, so the resumed attempt
        # is a pure no-op on the data: its run row executes zero points and
        # skips all three of the shard's points (checkpoint_every=1 gave the
        # first attempt one run row per point).
        with SweepDatabase(report.workers[0].plan.store_path) as shard:
            runs = shard.runs()
        assert [run.executed_points for run in runs] == [1, 1, 1, 0]
        assert runs[-1].skipped_points == 3
        assert report.record_count == spec.point_count


class TestSlowStart:
    def test_straggler_completes_within_its_attempt(
        self, spec, tmp_path, monkeypatch, serial_export
    ):
        report, exported, _ = orchestrate_with_chaos(
            [spec],
            tmp_path,
            monkeypatch,
            [{"kind": "slow-start", "shard": 2, "delay": 0.5}],
        )
        assert exported == serial_export
        assert sum(w.retries for w in report.workers) == 0


class TestExhaustedRetries:
    def test_unrecoverable_shard_fails_the_orchestration_with_history(
        self, spec, tmp_path, monkeypatch
    ):
        """A fault matching every attempt exhausts the retry budget; the
        error carries the attempt count and the store is labelled orphaned."""
        monkeypatch.setenv(
            CHAOS_ENV, json.dumps([{"kind": "crash", "shard": 1, "after_points": 1}])
        )
        backend = ShardWorkerBackend(
            workers=3, max_retries=1, retry_backoff=0.05, checkpoint_every=1
        )
        with SweepDatabase(tmp_path / "merged.db") as db:
            with pytest.raises(OrchestrationError, match="exited 70") as excinfo:
                backend.orchestrate([spec], db, workdir=tmp_path / "work")
            assert "2 attempt(s)" in str(excinfo.value)
            assert db.record_count() == 0  # failed orchestration merges nothing
        (orphan,) = (tmp_path / "work").rglob("*.orphaned.txt")
        assert "failed permanently" in orphan.read_text(encoding="utf-8")


class TestResumeAfterAFailedRun:
    def test_resume_executes_exactly_the_points_the_crashed_shard_lost(
        self, spec, tmp_path, monkeypatch, serial_export
    ):
        """Measured costs size the split; worker 1 commits one point and
        crashes with no retry left, so the orchestration fails and the
        target stays as it was.  The resume therefore plans the same split,
        and only the crashed shard's uncommitted points execute again."""
        costs = {index: 4.0 if index == 0 else 1.0 for index in range(spec.point_count)}
        with SweepDatabase(tmp_path / "merged.db") as db:
            db.record_run(db.ensure_sweep(spec), [], executed=0, skipped=0, point_costs=costs)
        backend = ShardWorkerBackend(workers=3, checkpoint_every=1)
        batch = tmp_path / "work" / batch_dirname([spec])
        shards = [batch / f"shard-{index}-of-3.db" for index in range(3)]

        def executed_points():
            total = 0
            for path in shards:
                with SweepDatabase(path) as shard:
                    total += sum(run.executed_points for run in shard.runs())
            return total

        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps([{"kind": "crash", "shard": 1, "attempt": 1, "after_points": 2}]),
        )
        with SweepDatabase(tmp_path / "merged.db") as db:
            split = backend.plan_point_groups([spec], db)
            with pytest.raises(OrchestrationError, match="exited 70"):
                backend.orchestrate([spec], db, workdir=tmp_path / "work")
            assert db.record_count() == 0
        assert split == [((0,),), ((1, 3, 5, 7),), ((2, 4, 6),)]
        before = executed_points()
        assert before == spec.point_count - 3

        monkeypatch.delenv(CHAOS_ENV)
        with SweepDatabase(tmp_path / "merged.db") as db:
            report = backend.orchestrate(
                [spec], db, workdir=tmp_path / "work", resume=True
            )
            exported = db.export_document(tmp_path / "merged.json").read_bytes()
        assert executed_points() - before == 3
        assert [worker.plan.store_path for worker in report.workers] == shards
        assert exported == serial_export

"""Tests of the single-writer background sweep-job queue."""

import threading

import pytest

from repro.errors import ApiError
from repro.runner.db import SweepDatabase
from repro.runner.spec import SweepSpec
from repro.serve.jobs import JOB_STATES, SweepJobQueue
from repro.serve.service import PlanningService


def small_spec(name="serve-jobs", power_limits=None):
    return SweepSpec(
        name=name,
        systems=("d695_plasma",),
        processor_counts=(0, 2),
        power_limits=power_limits or {"no power limit": None},
    )


class Waiter:
    """Collects finished jobs and lets tests block until one lands."""

    def __init__(self):
        self.jobs = []
        self._event = threading.Event()

    def __call__(self, job):
        self.jobs.append(job)
        self._event.set()

    def wait(self, count=1, timeout=120.0):
        while len(self.jobs) < count:
            self._event.clear()
            assert self._event.wait(timeout), f"no job finished within {timeout}s"
        return self.jobs[count - 1]


@pytest.fixture
def waiter():
    return Waiter()


@pytest.fixture
def queue_factory(tmp_path, waiter):
    queues = []

    def make(**kwargs):
        queue = SweepJobQueue(
            tmp_path / "jobs.db", characterize=False, on_finished=waiter, **kwargs
        )
        queues.append(queue)
        return queue

    yield make
    for queue in queues:
        queue.close()


class TestSubmission:
    def test_job_executes_and_stores_records(self, queue_factory, waiter, tmp_path):
        queue = queue_factory()
        spec = small_spec()
        snapshot = queue.submit(spec)
        assert snapshot["status"] == "queued"
        assert snapshot["job_id"].startswith("job-1-")
        assert snapshot["job_id"].endswith(spec.content_key()[:8])
        finished = waiter.wait()
        assert finished.status == "finished"
        assert finished.executed_points == spec.point_count
        assert finished.skipped_points == 0
        assert finished.run_id is not None
        with SweepDatabase(tmp_path / "jobs.db") as db:
            assert db.record_count(spec.content_key()) == spec.point_count

    def test_run_is_attributed_to_the_job(self, queue_factory, waiter, tmp_path):
        queue = queue_factory()
        snapshot = queue.submit(small_spec())
        waiter.wait()
        with SweepDatabase(tmp_path / "jobs.db") as db:
            runs = db.runs()
        assert [run.source for run in runs] == [f"serve:{snapshot['job_id']}"]

    def test_resume_skips_stored_points(self, queue_factory, waiter):
        queue = queue_factory()
        spec = small_spec()
        queue.submit(spec)
        waiter.wait(1)
        queue.submit(spec, resume=True)
        finished = waiter.wait(2)
        assert finished.executed_points == 0
        assert finished.skipped_points == spec.point_count

    def test_orchestrated_jobs_count_points_like_serial_ones(self, queue_factory, waiter):
        """A shard-workers job reports the points it handed to workers and,
        resumed on a store holding the grid, executes none and skips all."""
        queue = queue_factory()
        spec = small_spec()
        queue.submit(spec, backend="shard-workers")
        first = waiter.wait(1)
        assert (first.executed_points, first.skipped_points) == (spec.point_count, 0)
        queue.submit(spec, backend="shard-workers", resume=True)
        finished = waiter.wait(2)
        assert finished.status == "finished"
        assert (finished.executed_points, finished.skipped_points) == (0, spec.point_count)

    def test_jobs_execute_in_submission_order(self, queue_factory, waiter):
        queue = queue_factory()
        first = queue.submit(small_spec("order-a"))
        second = queue.submit(small_spec("order-b"))
        waiter.wait(2)
        assert [job.job_id for job in waiter.jobs] == [
            first["job_id"],
            second["job_id"],
        ]

    def test_infeasible_job_fails_cleanly(self, queue_factory, waiter):
        queue = queue_factory()
        # A power ceiling far below any single test makes planning raise,
        # which must land as a failed job, not a dead worker thread.
        spec = small_spec("infeasible", power_limits={"tiny": 1e-9})
        snapshot = queue.submit(spec)
        finished = waiter.wait()
        assert finished.status == "failed"
        assert finished.error
        # The queue survives a failed job and keeps executing.
        queue.submit(small_spec("after-failure"))
        assert waiter.wait(2).status == "finished"
        assert queue.get(snapshot["job_id"])["status"] == "failed"


class TestValidation:
    def test_unknown_backend_rejected(self, queue_factory):
        queue = queue_factory()
        with pytest.raises(ApiError) as excinfo:
            queue.submit(small_spec(), backend="quantum")
        assert excinfo.value.status == 400
        assert "quantum" in str(excinfo.value)

    @pytest.mark.parametrize("backend, jobs", [("serial", 4), ("shard-workers", 3)])
    def test_jobs_the_backend_cannot_use_rejected_at_submit(self, tmp_path, backend, jobs):
        """No backend takes a ``jobs`` value any more: the field is an unknown
        one, a client error at submit time rather than a job that fails in
        the background, so nothing is queued or persisted."""
        service = PlanningService(tmp_path / "jobs.db", characterize=False)
        try:
            with pytest.raises(ApiError) as excinfo:
                service.submit_sweep(
                    {"spec": small_spec().to_dict(), "backend": backend, "jobs": jobs}
                )
            assert excinfo.value.status == 400
            assert "unknown sweep field(s) 'jobs'" in str(excinfo.value)
            assert service.jobs.job_count() == 0
        finally:
            service.close()
        with SweepDatabase(tmp_path / "jobs.db") as db:
            assert db.job_count() == 0

    def test_unknown_backend_lists_every_api_name(self, queue_factory):
        """The 400 names every backend the API accepts: in-process serial
        and the orchestrating one."""
        queue = queue_factory()
        with pytest.raises(ApiError) as excinfo:
            queue.submit(small_spec(), backend="quantum")
        assert excinfo.value.status == 400
        assert "known backends: serial, shard-workers" in str(excinfo.value)

    def test_pool_backend_is_rejected_before_anything_is_persisted(
        self, queue_factory, tmp_path
    ):
        """The process pool is gone: asking for it is a typed 400 that names
        the backends to use instead, and no job is queued or persisted."""
        queue = queue_factory()
        with pytest.raises(ApiError) as excinfo:
            queue.submit(small_spec(), backend="pool")
        assert excinfo.value.status == 400
        assert "'pool'" in str(excinfo.value)
        assert "serial" in str(excinfo.value) and "shard-workers" in str(excinfo.value)
        assert queue.job_count() == 0
        with SweepDatabase(tmp_path / "jobs.db") as db:
            assert db.job_count() == 0

    def test_remote_backend_is_unknown(self, queue_factory, tmp_path):
        """Workers are local subprocesses only: ``remote`` is an unknown
        backend like any other, refused before anything is persisted."""
        queue = queue_factory()
        with pytest.raises(ApiError) as excinfo:
            queue.submit(small_spec(), backend="remote")
        assert excinfo.value.status == 400
        assert "unknown backend 'remote'" in str(excinfo.value)
        assert queue.job_count() == 0
        with SweepDatabase(tmp_path / "jobs.db") as db:
            assert db.job_count() == 0

    def test_unknown_job_id_is_404(self, queue_factory):
        queue = queue_factory()
        with pytest.raises(ApiError) as excinfo:
            queue.get("job-999-deadbeef")
        assert excinfo.value.status == 404

    def test_submit_after_close_is_503(self, queue_factory):
        queue = queue_factory()
        queue.close()
        with pytest.raises(ApiError) as excinfo:
            queue.submit(small_spec())
        assert excinfo.value.status == 503

    def test_close_is_idempotent(self, queue_factory):
        queue = queue_factory()
        queue.close()
        queue.close()


class TestSnapshots:
    def test_snapshot_is_json_ready(self, queue_factory, waiter):
        import json

        queue = queue_factory()
        submitted = queue.submit(small_spec())
        waiter.wait()
        snapshot = queue.get(submitted["job_id"])
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["status"] in JOB_STATES
        assert snapshot["spec_name"] == "serve-jobs"
        assert snapshot["point_count"] == 2

    def test_a_finished_job_is_read_back_from_the_store(self, queue_factory, waiter):
        """Only queued and running jobs stay in memory; an ended one is
        served from its persisted row, with the same snapshot fields."""
        queue = queue_factory()
        submitted = queue.submit(small_spec())
        waiter.wait()
        assert queue._jobs == {}
        snapshot = queue.get(submitted["job_id"])
        assert snapshot.keys() == submitted.keys()
        assert snapshot["status"] == "finished"
        assert snapshot["executed_points"] == 2
        assert queue.job_count() == 1

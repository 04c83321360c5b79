"""Tests of job durability: snapshots in the store, restarts, interruption.

The end-to-end case runs a real daemon in a subprocess, SIGKILLs it mid-job
(the crash sqlite's WAL is built for) and asserts a fresh daemon over the
same store still serves the job — marked ``interrupted``.
"""

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.runner.db import SweepDatabase
from repro.serve import create_server
from repro.serve.jobs import SweepJobQueue

from .test_jobs import Waiter, small_spec

REPO_ROOT = Path(__file__).resolve().parents[2]


def job_row(job_id="job-7-deadbeef", number=7, status="running"):
    """A persisted-job snapshot as a dead daemon would have left it."""
    return {
        "job_id": job_id,
        "job_number": number,
        "status": status,
        "backend": "serial",
        "pool_jobs": 1,
        "resume": False,
        "spec_name": "left-behind",
        "spec_key": "deadbeef" * 8,
        "point_count": 4,
        "submitted_at": "2026-08-08T00:00:00+00:00",
        "started_at": "2026-08-08T00:00:01+00:00" if status == "running" else None,
        "finished_at": None,
        "error": None,
        "run_id": None,
        "executed_points": None,
        "skipped_points": None,
    }


class TestQueueRestart:
    def test_finished_job_survives_restart(self, tmp_path):
        path = tmp_path / "restart.db"
        waiter = Waiter()
        queue = SweepJobQueue(path, characterize=False, on_finished=waiter)
        snapshot = queue.submit(small_spec())
        waiter.wait()
        queue.close()

        revived = SweepJobQueue(path, characterize=False)
        try:
            assert revived.interrupted_on_boot == ()
            restored = revived.get(snapshot["job_id"])
            assert restored["status"] == "finished"
            assert restored["executed_points"] == 2
            assert restored["run_id"] is not None
            assert restored["spec_key"] == snapshot["spec_key"]
        finally:
            revived.close()

    def test_failed_job_survives_restart(self, tmp_path):
        path = tmp_path / "restart.db"
        waiter = Waiter()
        queue = SweepJobQueue(path, characterize=False, on_finished=waiter)
        snapshot = queue.submit(small_spec("doomed", power_limits={"tiny": 1e-9}))
        waiter.wait()
        queue.close()

        revived = SweepJobQueue(path, characterize=False)
        try:
            restored = revived.get(snapshot["job_id"])
            assert restored["status"] == "failed"
            assert restored["error"]
        finally:
            revived.close()

    def test_id_sequence_continues_across_restarts(self, tmp_path):
        path = tmp_path / "restart.db"
        waiter = Waiter()
        queue = SweepJobQueue(path, characterize=False, on_finished=waiter)
        first = queue.submit(small_spec("first"))
        waiter.wait()
        queue.close()

        revived_waiter = Waiter()
        revived = SweepJobQueue(path, characterize=False, on_finished=revived_waiter)
        try:
            second = revived.submit(small_spec("second"))
            assert second["job_number"] == first["job_number"] + 1
            assert second["job_id"] != first["job_id"]
            assert revived.job_count() == 2
            assert revived.get(first["job_id"])["job_number"] == first["job_number"]
            assert revived.get(second["job_id"])["job_number"] == second["job_number"]
            revived_waiter.wait()
        finally:
            revived.close()

    @pytest.mark.parametrize("status", ["queued", "running"])
    def test_live_states_left_behind_become_interrupted(self, tmp_path, status):
        path = tmp_path / "interrupted.db"
        with SweepDatabase(path) as db:
            db.upsert_job(job_row(status=status), spec_json="{}")

        queue = SweepJobQueue(path, characterize=False)
        try:
            assert queue.interrupted_on_boot == ("job-7-deadbeef",)
            restored = queue.get("job-7-deadbeef")
            assert restored["status"] == "interrupted"
            assert status in restored["error"]
            assert restored["finished_at"] is not None
        finally:
            queue.close()

    def test_terminal_states_are_left_alone_on_boot(self, tmp_path):
        path = tmp_path / "terminal.db"
        with SweepDatabase(path) as db:
            db.upsert_job(
                job_row("job-3-aaaaaaaa", 3, status="finished"), spec_json="{}"
            )
        queue = SweepJobQueue(path, characterize=False)
        try:
            assert queue.interrupted_on_boot == ()
            assert queue.get("job-3-aaaaaaaa")["status"] == "finished"
        finally:
            queue.close()

    def test_an_older_daemons_pool_job_still_reads_back(self, tmp_path):
        """Daemons that still ran the process pool persisted its worker
        count in ``pool_jobs``; the column stays, so such a job reads back
        unchanged while new jobs write 1."""
        path = tmp_path / "pool.db"
        row = job_row("job-4-bbbbbbbb", 4, status="finished")
        row.update(backend="pool", pool_jobs=2)
        with SweepDatabase(path) as db:
            db.upsert_job(row, spec_json="{}")
        waiter = Waiter()
        queue = SweepJobQueue(path, characterize=False, on_finished=waiter)
        try:
            restored = queue.get("job-4-bbbbbbbb")
            assert (restored["backend"], restored["pool_jobs"]) == ("pool", 2)
            assert restored["status"] == "finished"
            fresh = queue.submit(small_spec())
            assert fresh["pool_jobs"] == 1
            waiter.wait()
        finally:
            queue.close()
        with SweepDatabase(path) as db:
            assert db.job_row(fresh["job_id"])["pool_jobs"] == 1


class TestRetiredBackendRows:
    def test_an_older_daemons_remote_job_still_reads_back_over_http(self, tmp_path):
        """Daemons that still dispatched onto a host pool stored jobs under
        backend ``remote``.  Such a finished row is served unchanged, while a
        new submission naming ``remote`` is an unknown backend (400) that
        queues and persists nothing."""
        path = tmp_path / "remote.db"
        row = job_row("job-5-cccccccc", 5, status="finished")
        row.update(
            backend="remote",
            started_at="2026-08-08T00:00:01+00:00",
            finished_at="2026-08-08T00:00:09+00:00",
            executed_points=4,
            skipped_points=0,
        )
        with SweepDatabase(path) as db:
            db.upsert_job(row, spec_json="{}")
        server = create_server(path, port=0, characterize=False)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()

        def status():
            with urllib.request.urlopen(
                server.url + "/sweeps/job-5-cccccccc", timeout=30
            ) as response:
                return json.loads(response.read())["job"]

        try:
            assert status() == row
            body = json.dumps({"spec": small_spec().to_dict(), "backend": "remote"})
            request = urllib.request.Request(
                server.url + "/sweeps",
                data=body.encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
            assert "unknown backend 'remote'" in error
            assert "known backends: serial, shard-workers" in error
            assert status() == row
            assert server.service.jobs.job_count() == 1
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=10)
        with SweepDatabase(path) as db:
            assert db.job_count() == 1


DAEMON_SCRIPT = """
import sys
from repro.serve import create_server
server = create_server(sys.argv[1], port=0, characterize=False)
print(server.url, flush=True)
server.serve_forever()
"""


class TestDaemonKilledMidJob:
    def test_killed_daemon_job_is_interrupted_after_restart(self, tmp_path):
        """enqueue -> SIGKILL the daemon -> restart -> GET serves the job."""
        store = tmp_path / "killed.db"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        process = subprocess.Popen(
            [sys.executable, "-c", DAEMON_SCRIPT, str(store)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            url = process.stdout.readline().strip()
            assert url.startswith("http://"), f"daemon never came up: {url!r}"
            # A grid big enough (~2s serial) that SIGKILL lands mid-job.
            spec = {
                "name": "kill-me",
                "systems": ["p93791_leon", "p93791_plasma"],
                "processor_counts": [0, 1, 2, 3, 4, 5, 6, 7, 8],
                "power_limits": [["no power limit", None], ["50% power limit", 0.5]],
                "schedulers": ["greedy", "fastest-completion"],
            }
            request = urllib.request.Request(
                url + "/sweeps",
                data=json.dumps({"spec": spec}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                job = json.loads(response.read())
            assert job["status"] == "queued"
        finally:
            process.kill()  # SIGKILL: no shutdown hooks, no final commits
            process.wait(timeout=30)
            process.stdout.close()

        server = create_server(store, port=0, characterize=False)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(
                server.url + "/sweeps/" + job["job_id"], timeout=30
            ) as response:
                status = json.loads(response.read())
            assert status["job"]["status"] == "interrupted"
            assert "daemon stopped" in status["job"]["error"]
            with urllib.request.urlopen(server.url + "/healthz", timeout=30) as response:
                health = json.loads(response.read())
            assert job["job_id"] in health["interrupted_on_boot"]
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=10)

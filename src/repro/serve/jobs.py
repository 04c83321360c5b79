"""Background sweep-job execution for the daemon (the store's job writer).

``POST /sweeps`` must answer immediately while grids of arbitrary size
execute; :class:`SweepJobQueue` is the seam that makes that safe on sqlite.
One worker thread owns the store's long-lived **run writer connection** and
executes jobs strictly in submission order through the sweep engine: the
WAL journal
then guarantees that every concurrent HTTP read — served from per-request
reader connections — sees a consistent committed snapshot, never a
half-written run.  That is the one-writer/many-readers model documented in
``docs/architecture.md``.

Jobs are **durable** (schema v3): every state change is upserted into the
store's ``jobs`` table, so ``GET /sweeps/<id>`` answers across daemon
restarts, and a booting queue marks jobs the previous daemon left queued or
running as ``interrupted`` (their committed points are durable; only the
job's completion is unknown — re-submit with ``resume`` to finish).  The
submission-side upsert is the one exception to the single-writer rule: it
is a tiny serialized write through a short-lived writer connection, queued
behind the run writer by sqlite's busy handler (see
``docs/architecture.md``).

The queue is also **bounded** (``max_queue``): once that many jobs are
waiting, further submissions fail with a 503 carrying ``Retry-After``, so
overload sheds load at the door instead of growing an unbounded backlog.

Jobs carry no planning logic of their own: a job is a
:class:`~repro.runner.spec.SweepSpec` plus one of the :data:`JOB_BACKENDS`
names.  ``serial`` runs on the worker thread via
:meth:`SweepRunner.run_stored <repro.runner.engine.SweepRunner.run_stored>`,
with the run recorded under source ``serve:<job id>`` so ``repro history``
attributes API-submitted runs; ``shard-workers`` and ``remote`` are mapped here to a
:class:`~repro.runner.backends.ShardWorkerBackend` whose
:meth:`~repro.runner.backends.ShardWorkerBackend.orchestrate` runs the job
(local workers, or the daemon's host pool).  Jobs may only ask for
``remote`` when the daemon was started with a host list
(``--dispatch-hosts``); without one such submissions are rejected with 400.
"""

from __future__ import annotations

import itertools
import json
import queue
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import ApiError, ConfigurationError, ReproError
from repro.runner.backends import ShardWorkerBackend
from repro.runner.cache import CharacterizationCache, SystemCache
from repro.runner.db import SweepDatabase
from repro.runner.engine import SweepRunner
from repro.runner.spec import SweepSpec

#: Every state a job moves through, in lifecycle order.  ``interrupted`` is
#: assigned at boot to persisted jobs a dead daemon left queued or running.
JOB_STATES: tuple[str, ...] = (
    "queued",
    "running",
    "finished",
    "failed",
    "interrupted",
)

#: ``Retry-After`` value (seconds) a full queue answers 503 with.
RETRY_AFTER_SECONDS = 2

#: The ``backend`` names ``POST /sweeps`` accepts: in-process ``serial``,
#: then the two that orchestrate shard workers (``remote`` over the
#: daemon's ``--dispatch-hosts``).
JOB_BACKENDS: tuple[str, ...] = ("serial", "shard-workers", "remote")


def _utcnow() -> str:
    """Current UTC time in the store's ISO timestamp format."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class SweepJob:
    """One submitted sweep grid and its execution state.

    Mutated only by the queue's worker thread; HTTP threads read it through
    :meth:`SweepJobQueue.get`, which returns a locked snapshot.

    Attributes:
        job_id: store-unique identifier (``job-<n>-<spec key prefix>``).
        job_number: the ``<n>`` of the id — persisted so a restarted daemon
            continues the sequence instead of re-issuing taken ids.
        spec: the submitted grid.
        spec_key: the spec's content key (how the store indexes it).
        backend: execution backend name (a :data:`JOB_BACKENDS` entry).
        resume: whether points already stored are skipped instead of re-run.
        status: one of :data:`JOB_STATES`.
        submitted_at / started_at / finished_at: ISO UTC timestamps.
        error: failure message once ``status == "failed"``.
        run_id: the store's run id once finished (``None`` for orchestrated
            jobs, which record one run per shard instead).
        executed_points / skipped_points: the finished run's counters.
    """

    job_id: str
    job_number: int
    spec: SweepSpec
    spec_key: str
    backend: str
    resume: bool
    status: str = "queued"
    submitted_at: str = field(default_factory=_utcnow)
    started_at: str | None = None
    finished_at: str | None = None
    error: str | None = None
    run_id: int | None = None
    executed_points: int | None = None
    skipped_points: int | None = None

    def snapshot(self) -> dict:
        """JSON-ready view of the job (what ``GET /sweeps/<id>`` serves).

        The same shape a restored job row carries (minus the persisted
        spec JSON), so clients cannot tell a live job from one served
        across a restart.
        """
        return {
            "job_id": self.job_id,
            "job_number": self.job_number,
            "status": self.status,
            "backend": self.backend,
            # The process pool is gone; the field stays in the wire format
            # and the jobs table, where an older daemon's pool job keeps
            # its count.
            "pool_jobs": 1,
            "resume": self.resume,
            "spec_name": self.spec.name,
            "spec_key": self.spec_key,
            "point_count": self.spec.point_count,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "run_id": self.run_id,
            "executed_points": self.executed_points,
            "skipped_points": self.skipped_points,
        }

    def spec_json(self) -> str:
        """The submitted spec as canonical JSON (what the store persists)."""
        return json.dumps(self.spec.to_dict(), sort_keys=True, separators=(",", ":"))


class SweepJobQueue:
    """Executes submitted sweep jobs on one writer thread, in order.

    The worker thread opens the store's single writer connection lazily (a
    sqlite connection is bound to its thread) and keeps it for the queue's
    lifetime; every job commits through it.  Submission, status reads and
    shutdown are thread-safe.

    Args:
        store_path: sqlite store every job writes into.
        characterize: forward the runner's characterisation switch to jobs.
        packet_count: characterisation campaign size.
        cache_dir: persisted characterisation-cache directory for jobs.
        system_cache: share one build cache across jobs (and with the
            synchronous ``/plan`` path); defaults to a fresh cache.
        characterization_cache: share one characterisation cache across
            jobs; defaults to a fresh cache persisted under ``cache_dir``.
        workdir: directory for the shard-worker backend's stores and logs
            (default: ``<store>.workers`` next to the store).
        dispatch_hosts: host list offered to jobs that ask for the remote
            backend (default: ``None`` — such jobs are rejected with 400).
        dispatch_launcher: launcher name for remote jobs (a
            :data:`~repro.runner.launch.LAUNCHERS` key; default ``None``
            keeps the remote backend's ssh default).
        max_queue: jobs allowed to wait in the queue; a submission beyond
            that fails with 503 + ``Retry-After`` (0 = unbounded).
        on_finished: test/observability hook called with each job after it
            reaches a terminal state.

    Raises:
        ApiError: from :meth:`submit`/:meth:`get` for invalid input.
        ConfigurationError: for a negative ``max_queue``.
    """

    def __init__(
        self,
        store_path: str | Path,
        *,
        characterize: bool = False,
        packet_count: int = 200,
        cache_dir: str | Path | None = None,
        system_cache: SystemCache | None = None,
        characterization_cache: CharacterizationCache | None = None,
        workdir: str | Path | None = None,
        dispatch_hosts: Sequence[str] | None = None,
        dispatch_launcher: str | None = None,
        max_queue: int = 0,
        on_finished: Callable[[SweepJob], None] | None = None,
    ) -> None:
        if max_queue < 0:
            raise ConfigurationError("max_queue must be >= 0 (0 = unbounded)")
        self.store_path = Path(store_path)
        self.characterize = characterize
        self.packet_count = packet_count
        self.cache_dir = cache_dir
        self.system_cache = system_cache if system_cache is not None else SystemCache()
        self.characterization_cache = (
            characterization_cache
            if characterization_cache is not None
            else CharacterizationCache(cache_dir)
        )
        self.workdir = (
            Path(workdir)
            if workdir is not None
            else self.store_path.with_name(self.store_path.name + ".workers")
        )
        self.dispatch_hosts = list(dispatch_hosts) if dispatch_hosts else None
        self.dispatch_launcher = dispatch_launcher
        self.max_queue = max_queue
        self._on_finished = on_finished
        # Create (and validate/migrate) the store before the daemon opens
        # any reader, recover the jobs a dead daemon left behind, and
        # continue the persisted id sequence.  The queue owns the store's
        # writer role, so schema creation is its job, and readers opened
        # later never race it.
        with SweepDatabase(self.store_path) as db:
            self.interrupted_on_boot = tuple(
                db.mark_interrupted_jobs(finished_at=_utcnow())
            )
            self._restored: dict[str, dict] = {}
            for row in db.job_rows():
                row.pop("spec_json", None)
                self._restored[row["job_id"]] = row
            next_number = db.max_job_number() + 1
        self._jobs: dict[str, SweepJob] = {}
        self._lock = threading.Lock()
        self._queue: "queue.Queue[SweepJob | None]" = queue.Queue()
        self._counter = itertools.count(next_number)
        self._closed = False
        self._worker = threading.Thread(
            target=self._run_worker, name="repro-serve-jobs", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Submission and lookup (called from HTTP threads).
    # ------------------------------------------------------------------
    def submit(
        self, spec: SweepSpec, *, backend: str = "serial", resume: bool = False
    ) -> dict:
        """Enqueue one grid for background execution; returns the job snapshot.

        Args:
            spec: the grid to execute.
            backend: execution backend name (a :data:`JOB_BACKENDS`
                entry; ``shard-workers`` and ``remote`` orchestrate,
                ``serial`` runs in-process on the worker thread).
            resume: skip points the store already holds compatible records
                for (see :meth:`SweepRunner.run_stored
                <repro.runner.engine.SweepRunner.run_stored>`).

        Raises:
            ApiError: for an unknown backend name (400), the remote
                backend without configured dispatch hosts (400), a full
                queue (503 with ``Retry-After``), or a queue that is
                shutting down (503).
        """
        # Built once here only to validate, so a job the worker thread
        # could never run is refused before anything is queued or persisted.
        self._orchestrator(backend)
        with self._lock:
            if self._closed:
                raise ApiError("the job queue is shutting down", status=503)
            waiting = sum(1 for job in self._jobs.values() if job.status == "queued")
            if self.max_queue and waiting >= self.max_queue:
                raise ApiError(
                    f"job queue is full ({waiting} job(s) waiting, "
                    f"max_queue={self.max_queue}); retry later",
                    status=503,
                    headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
                )
            spec_key = spec.content_key()
            number = next(self._counter)
            job = SweepJob(
                job_id=f"job-{number}-{spec_key[:8]}",
                job_number=number,
                spec=spec,
                spec_key=spec_key,
                backend=backend,
                resume=resume,
            )
            self._jobs[job.job_id] = job
            # Persist the queued state before acknowledging: a job the
            # client was told about must be visible after a restart (as
            # `interrupted` if the daemon dies before it finishes).  A
            # short-lived writer serialized under this lock; sqlite's busy
            # handler queues it behind the worker's run commits.
            self._persist(job)
            self._queue.put(job)
            return job.snapshot()

    def get(self, job_id: str) -> dict:
        """Snapshot of one job, live or persisted by an earlier daemon.

        Raises:
            ApiError: for an unknown job id (404).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job.snapshot()
            restored = self._restored.get(job_id)
            if restored is not None:
                return dict(restored)
            raise ApiError(f"no sweep job {job_id!r}", status=404)

    def jobs(self) -> list[dict]:
        """Snapshots of every job — restored then live — in submission order."""
        with self._lock:
            restored = [dict(row) for row in self._restored.values()]
            live = [job.snapshot() for job in self._jobs.values()]
            return sorted(restored + live, key=lambda job: job["job_number"])

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def close(self, *, timeout: float | None = 30.0) -> None:
        """Stop accepting jobs, drain the queue, and join the worker thread."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        self._worker.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Worker thread.
    # ------------------------------------------------------------------
    def _run_worker(self) -> None:
        """Main loop of the writer thread: execute jobs until the sentinel."""
        store: SweepDatabase | None = None
        try:
            while True:
                job = self._queue.get()
                if job is None:
                    return
                if store is None:
                    # The one writer connection, opened in the thread that
                    # uses it (sqlite connections are thread-bound).
                    store = SweepDatabase(self.store_path)
                self._execute(job, store)
        finally:
            if store is not None:
                store.close()

    def _persist(self, job: SweepJob, store: SweepDatabase | None = None) -> None:
        """Upsert ``job``'s snapshot into the store's ``jobs`` table.

        The worker thread passes its long-lived connection; the submission
        path passes ``None`` and a short-lived writer is opened (serialized
        under the queue lock, queued behind run commits by sqlite's busy
        handler).
        """
        snapshot = job.snapshot()
        spec_json = job.spec_json()
        if store is not None:
            store.upsert_job(snapshot, spec_json=spec_json)
            return
        with SweepDatabase(self.store_path) as db:
            db.upsert_job(snapshot, spec_json=spec_json)

    def _orchestrator(self, name: str) -> ShardWorkerBackend | None:
        """The orchestrator a job named ``name`` runs on.

        ``None`` for ``serial``, which runs in-process on the worker thread;
        the two orchestrating names map to a :class:`ShardWorkerBackend` —
        remote jobs dispatch onto the daemon's ``--dispatch-hosts`` through
        its ``--dispatch-launcher``.

        Raises:
            ApiError: (400) for an unknown backend name (``pool`` among
                them) or the remote backend without configured dispatch
                hosts.
        """
        if name not in JOB_BACKENDS:
            known = ", ".join(sorted(JOB_BACKENDS))
            raise ApiError(f"unknown backend {name!r}; known backends: {known}")
        if name == "remote" and not self.dispatch_hosts:
            raise ApiError(
                "the remote backend needs a host list; start the daemon "
                "with --dispatch-hosts"
            )
        if name == "serial":
            return None
        try:
            if name == "remote":
                return ShardWorkerBackend(
                    hosts=self.dispatch_hosts, launcher=self.dispatch_launcher
                )
            return ShardWorkerBackend()
        except ConfigurationError as error:
            raise ApiError(str(error)) from error

    def _execute(self, job: SweepJob, store: SweepDatabase) -> None:
        """Run one job against the writer connection and record its outcome."""
        with self._lock:
            job.status = "running"
            job.started_at = _utcnow()
            self._persist(job, store)
        try:
            backend = self._orchestrator(job.backend)
            if backend is not None:
                report = backend.orchestrate(
                    [job.spec],
                    store,
                    resume=job.resume,
                    characterize=self.characterize,
                    packet_count=self.packet_count,
                    cache_dir=self.cache_dir,
                    workdir=self.workdir,
                )
                executed, skipped = report.executed_count, report.skipped_count
                run_id = None
            else:
                runner = SweepRunner(
                    cache_dir=self.cache_dir,
                    characterize=self.characterize,
                    packet_count=self.packet_count,
                    system_cache=self.system_cache,
                    characterization_cache=self.characterization_cache,
                )
                stored = runner.run_stored(
                    job.spec, store, resume=job.resume, source=f"serve:{job.job_id}"
                )
                executed = stored.executed_count
                skipped = stored.skipped_count
                run_id = stored.run_id
        except ReproError as error:
            with self._lock:
                job.status = "failed"
                job.error = str(error)
                job.finished_at = _utcnow()
                self._persist(job, store)
        else:
            with self._lock:
                job.status = "finished"
                job.executed_points = executed
                job.skipped_points = skipped
                job.run_id = run_id
                job.finished_at = _utcnow()
                self._persist(job, store)
        if self._on_finished is not None:
            self._on_finished(job)

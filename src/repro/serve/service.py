"""The service layer behind the HTTP handlers (planning-as-a-service).

:class:`PlanningService` is the only thing the HTTP layer talks to, and the
library is the only thing the service talks to — handlers parse, dispatch
and serialize; every decision about *planning* stays in
:mod:`repro.schedule`, :mod:`repro.runner` and :mod:`repro.analysis`:

* ``plan`` builds the requested system through the shared
  :class:`~repro.runner.cache.SystemCache` and runs the library's
  :class:`~repro.schedule.planner.TestPlanner` synchronously;
* ``submit_sweep`` / ``sweep_status`` delegate to the single-writer
  :class:`~repro.serve.jobs.SweepJobQueue`;
* the history reads open a short-lived WAL **reader** connection per call
  and serve :meth:`SweepDatabase.win_rate_rows
  <repro.runner.db.SweepDatabase.win_rate_rows>` /
  :meth:`trajectory_rows <repro.runner.db.SweepDatabase.trajectory_rows>`
  through a :class:`~repro.serve.cache.TTLCache` keyed by the query plus
  the store's :meth:`data_version
  <repro.runner.db.SweepDatabase.data_version>`.

Every public method takes parsed request data (mappings, strings) and
returns a JSON-ready dict; invalid input raises
:class:`~repro.errors.ApiError` with the HTTP status the daemon answers
with.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Mapping, Sequence

from repro import __version__
from repro.analysis.export import schedule_to_rows
from repro.errors import ApiError, ConfigurationError, ReproError
from repro.runner.cache import CharacterizationCache, SystemCache
from repro.runner.db import SweepDatabase
from repro.runner.schedulers import make_scheduler
from repro.runner.spec import SweepSpec, canonical_scheduler_name, power_series_label
from repro.schedule.planner import TestPlanner
from repro.schedule.power import require_positive_finite
from repro.serve.cache import TTLCache
from repro.serve.jobs import SweepJobQueue
from repro.system.paper import PAPER_SYSTEMS

#: Fields a single plan point accepts (anything else is a 400).
PLAN_FIELDS: frozenset[str] = frozenset(
    {
        "system",
        "reused_processors",
        "power_limit_fraction",
        "scheduler",
        "flit_width",
        "include_assignments",
    }
)

#: Most plan points accepted in one batch ``POST /plan`` request.  Bounds
#: per-request work the same way ``max_body_bytes`` bounds per-request
#: parsing; batch clients should chunk above this.
MAX_BATCH_POINTS = 256

#: Fields :meth:`PlanningService.submit_sweep` accepts.
SWEEP_FIELDS: frozenset[str] = frozenset({"spec", "backend", "resume"})


def _require_type(payload: Mapping, name: str, kinds: tuple[type, ...], note: str) -> object:
    """Fetch ``payload[name]`` checked against ``kinds`` (``None`` passes)."""
    value = payload.get(name)
    if value is not None and not isinstance(value, kinds):
        raise ApiError(f"field {name!r} must be {note}")
    return value


class PlanningService:
    """Serves plans, sweep jobs and history queries over one sqlite store.

    Args:
        store_path: the daemon's sqlite sweep store (created on startup if
            missing, so readers never race its schema creation).
        cache_ttl: TTL of the history read cache *and* the deterministic
            plan-result cache, in seconds (0 disables both).
        characterize: characterise NoCs for API-submitted sweep jobs.
        packet_count: characterisation campaign size for sweep jobs.
        cache_dir: persisted cache directory (characterisation records and
            system builds) shared by jobs and the ``/plan`` path; a restart
            reloads system builds from it instead of rebuilding.
        max_queue: sweep jobs allowed to wait in the queue before
            submissions are answered 503 (0 = unbounded).
        dispatch_hosts: host list offered to sweep jobs that ask for the
            remote backend (default: ``None`` — such jobs are rejected).
        dispatch_launcher: launcher name for remote sweep jobs (default
            ``None`` keeps the remote backend's ssh default).

    Raises:
        ResultStoreError: when ``store_path`` exists but is not a sweep
            store of a supported schema version.
    """

    def __init__(
        self,
        store_path: str | Path,
        *,
        cache_ttl: float = 2.0,
        characterize: bool = False,
        packet_count: int = 200,
        cache_dir: str | Path | None = None,
        max_queue: int = 0,
        dispatch_hosts: Sequence[str] | None = None,
        dispatch_launcher: str | None = None,
    ) -> None:
        self.store_path = Path(store_path)
        # Disk-backed when a cache directory is configured: a restarted
        # daemon reloads its system builds instead of re-running them.
        self.system_cache = SystemCache(cache_dir)
        self.characterization_cache = CharacterizationCache(cache_dir)
        self._system_lock = threading.Lock()
        self.read_cache = TTLCache(cache_ttl)
        # Plans are pure functions of their request (RL001 keeps the
        # planner deterministic), so identical points can be served from
        # cache; the TTL only bounds staleness of nothing — it is reused
        # here purely as a memory bound.
        self.plan_cache = TTLCache(cache_ttl)
        self.jobs = SweepJobQueue(
            self.store_path,
            characterize=characterize,
            packet_count=packet_count,
            cache_dir=cache_dir,
            system_cache=self.system_cache,
            characterization_cache=self.characterization_cache,
            max_queue=max_queue,
            dispatch_hosts=dispatch_hosts,
            dispatch_launcher=dispatch_launcher,
        )
        self._started_at = time.monotonic()

    def close(self) -> None:
        """Drain the job queue and release the writer connection."""
        self.jobs.close()

    # ------------------------------------------------------------------
    # Health.
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The ``GET /healthz`` payload: liveness plus store/cache vitals."""
        with self._reader() as db:
            records, runs = db.data_version()
        return {
            "status": "ok",
            "version": __version__,
            "store": str(self.store_path),
            "store_version": {"records": records, "runs": runs},
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "cache": {
                "hits": self.read_cache.stats.hits,
                "misses": self.read_cache.stats.misses,
                "ttl_seconds": self.read_cache.ttl_seconds,
            },
            "plan_cache": {
                "hits": self.plan_cache.stats.hits,
                "misses": self.plan_cache.stats.misses,
                "ttl_seconds": self.plan_cache.ttl_seconds,
            },
            "system_cache": self.system_cache.stats.as_dict(),
            "characterization_cache": self.characterization_cache.stats.as_dict(),
            "jobs": len(self.jobs.jobs()),
            "max_queue": self.jobs.max_queue,
            "interrupted_on_boot": list(self.jobs.interrupted_on_boot),
        }

    # ------------------------------------------------------------------
    # Synchronous planning.
    # ------------------------------------------------------------------
    def plan(self, payload: Mapping) -> dict:
        """Plan synchronously (the ``POST /plan`` handler's core).

        Two request shapes share the endpoint: a single plan point (the
        :data:`PLAN_FIELDS` object) answered with one plan, and a batch —
        ``{"points": [<point>, ...]}`` — answered with one plan per point,
        amortising the HTTP round trip and the shared system-build cache
        across the list.

        Raises:
            ApiError: for unknown fields, a missing/unknown system, or
                mistyped values (all 400; batch errors name the offending
                ``points[i]``), or a batch above :data:`MAX_BATCH_POINTS`.
        """
        if "points" in payload:
            return self._plan_batch(payload)
        return self._plan_point(self._validate_plan_point(payload))

    def _plan_batch(self, payload: Mapping) -> dict:
        """Plan a list of points in one request (``{"points": [...]}``).

        The whole batch is validated before any planning work starts, so a
        malformed point fails the request without wasting plan time.
        """
        unknown = set(payload) - {"points"}
        if unknown:
            raise ApiError(
                "unknown batch plan field(s) "
                + ", ".join(sorted(repr(name) for name in unknown))
                + "; a batch request carries only 'points'"
            )
        points = payload["points"]
        if not isinstance(points, list) or not points:
            raise ApiError("field 'points' must be a non-empty list of plan objects")
        if len(points) > MAX_BATCH_POINTS:
            raise ApiError(
                f"a batch plans at most {MAX_BATCH_POINTS} points; "
                f"got {len(points)} — split the request"
            )
        started = time.perf_counter()
        validated = []
        for index, point in enumerate(points):
            if not isinstance(point, Mapping):
                raise ApiError(f"points[{index}] must be a plan object")
            try:
                validated.append(self._validate_plan_point(point))
            except ApiError as exc:
                raise ApiError(f"points[{index}]: {exc}", status=exc.status) from exc
        results = [self._plan_point(fields) for fields in validated]
        return {
            "results": results,
            "count": len(results),
            "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }

    def _validate_plan_point(self, payload: Mapping) -> dict:
        """Normalise one plan point's fields (shared by single and batch).

        Raises:
            ApiError: for unknown fields, a missing/unknown system, or
                mistyped values (all 400).
        """
        unknown = set(payload) - PLAN_FIELDS
        if unknown:
            raise ApiError(
                "unknown plan field(s) "
                + ", ".join(sorted(repr(name) for name in unknown))
                + "; accepted: "
                + ", ".join(sorted(PLAN_FIELDS))
            )
        system_name = payload.get("system")
        if not isinstance(system_name, str) or system_name.lower() not in PAPER_SYSTEMS:
            known = ", ".join(sorted(PAPER_SYSTEMS))
            raise ApiError(
                f"field 'system' must name a paper system ({known}); "
                f"got {system_name!r}"
            )
        reused = _require_type(
            payload, "reused_processors", (int,), "an integer or null (= all processors)"
        )
        if isinstance(reused, bool) or (isinstance(reused, int) and reused < 0):
            raise ApiError("field 'reused_processors' must be a non-negative integer")
        fraction = _require_type(
            payload, "power_limit_fraction", (int, float), "a number or null (= unlimited)"
        )
        if isinstance(fraction, bool):
            raise ApiError("field 'power_limit_fraction' must be a positive number")
        if fraction is not None:
            try:
                require_positive_finite(fraction, "field 'power_limit_fraction'")
            except ConfigurationError as exc:
                raise ApiError(str(exc)) from exc
        flit_width = payload.get("flit_width", 32)
        if isinstance(flit_width, bool) or not isinstance(flit_width, int) or flit_width <= 0:
            raise ApiError("field 'flit_width' must be a positive integer")
        scheduler_name = payload.get("scheduler", "greedy")
        if not isinstance(scheduler_name, str):
            raise ApiError("field 'scheduler' must be a scheduler name")
        try:
            scheduler_name = canonical_scheduler_name(scheduler_name)
        except ConfigurationError as exc:
            raise ApiError(str(exc)) from exc
        return {
            "system": system_name.lower(),
            "reused": reused,
            "fraction": fraction,
            "scheduler": scheduler_name,
            "flit_width": flit_width,
            "include_assignments": bool(payload.get("include_assignments")),
        }

    def _plan_point(self, fields: dict) -> dict:
        """Plan one validated point, served from the plan cache when possible.

        A plan is a pure function of its request (determinism is the
        RL001 invariant), so a cached result is exactly what replanning
        would produce; ``cached`` tells the client which happened.
        """
        started = time.perf_counter()
        key = (
            "plan",
            fields["system"],
            fields["reused"],
            fields["fraction"],
            fields["scheduler"],
            fields["flit_width"],
            fields["include_assignments"],
        )
        cached = self.plan_cache.get(key)
        if cached is not None:
            response = dict(cached, cached=True)
            response["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
            return response
        with self._system_lock:
            system = self.system_cache.get(fields["system"], flit_width=fields["flit_width"])
        planner = TestPlanner(system, scheduler=make_scheduler(fields["scheduler"]))
        try:
            result = planner.plan(
                reused_processors=fields["reused"],
                power_limit_fraction=fields["fraction"],
            )
        except ReproError as exc:
            # An infeasible request (e.g. a power ceiling below any single
            # test) is the caller's input problem, not a server fault.
            raise ApiError(f"planning failed: {exc}") from exc
        payload = {
            "system": fields["system"],
            "scheduler": fields["scheduler"],
            "reused_processors": fields["reused"],
            "power_limit_fraction": fields["fraction"],
            "power_label": power_series_label(fields["fraction"]),
            "flit_width": fields["flit_width"],
            "makespan": result.makespan,
            "test_count": result.test_count,
            "peak_power": round(result.peak_power(), 6),
            "average_parallelism": round(result.average_parallelism(), 6),
        }
        if fields["include_assignments"]:
            rows = schedule_to_rows(result)
            for row in rows:
                row["power"] = round(float(row["power"]), 6)
            payload["assignments"] = rows
        self.plan_cache.put(key, payload)
        response = dict(payload, cached=False)
        response["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
        return response

    # ------------------------------------------------------------------
    # Background sweeps.
    # ------------------------------------------------------------------
    def submit_sweep(self, payload: Mapping) -> dict:
        """Enqueue one sweep grid (the ``POST /sweeps`` handler's core).

        Args:
            payload: the request object — ``spec`` (a
                :meth:`SweepSpec.to_dict <repro.runner.spec.SweepSpec.to_dict>`
                object, required), ``backend``, ``resume``.

        Raises:
            ApiError: for unknown fields, a malformed spec, or an unknown
                backend (400); queue shutdown (503).
        """
        unknown = set(payload) - SWEEP_FIELDS
        if unknown:
            raise ApiError(
                "unknown sweep field(s) "
                + ", ".join(sorted(repr(name) for name in unknown))
                + "; accepted: "
                + ", ".join(sorted(SWEEP_FIELDS))
            )
        spec_data = payload.get("spec")
        if not isinstance(spec_data, Mapping):
            raise ApiError("field 'spec' must be a sweep-spec object (SweepSpec.to_dict)")
        try:
            spec = SweepSpec.from_dict(spec_data)
        except ConfigurationError as exc:
            raise ApiError(f"invalid sweep spec: {exc}") from exc
        backend = payload.get("backend", "serial")
        if not isinstance(backend, str):
            raise ApiError("field 'backend' must be a backend name")
        resume = payload.get("resume", False)
        if not isinstance(resume, bool):
            raise ApiError("field 'resume' must be a boolean")
        snapshot = self.jobs.submit(spec, backend=backend, resume=resume)
        snapshot["url"] = f"/sweeps/{snapshot['job_id']}"
        return snapshot

    def sweep_status(self, job_id: str) -> dict:
        """Job snapshot plus store-side progress (``GET /sweeps/<id>``).

        Progress comes from the store's per-run counters and record counts,
        read through a fresh WAL reader — the job's writer thread is never
        consulted, so a status poll can never block execution.

        Raises:
            ApiError: for an unknown job id (404).
        """
        job = self.jobs.get(job_id)
        with self._reader() as db:
            stored_records = db.record_count(job["spec_key"])
            run_count = db.run_count(job["spec_key"])
        point_count = job["point_count"]
        return {
            "job": job,
            "progress": {
                "stored_records": stored_records,
                "point_count": point_count,
                "fraction": (stored_records / point_count) if point_count else 1.0,
                "run_count": run_count,
            },
        }

    # ------------------------------------------------------------------
    # History reads (cached).
    # ------------------------------------------------------------------
    def win_rates(self, *, system: str | None = None) -> dict:
        """Scheduler win-rate rows (``GET /history/win-rates``).

        Rows are exactly :meth:`SweepDatabase.win_rate_rows
        <repro.runner.db.SweepDatabase.win_rate_rows>` — the same SQL
        aggregation ``repro history`` prints — cached per
        ``(query, store version)``.

        Raises:
            ApiError: for an unknown ``system`` filter (400).
        """
        return self._cached_history(
            "win-rates", system, lambda db, wanted: db.win_rate_rows(system=wanted)
        )

    def trajectory(self, *, system: str | None = None) -> dict:
        """Makespan-over-runs rows (``GET /history/trajectory``).

        Rows are :meth:`SweepDatabase.trajectory_rows
        <repro.runner.db.SweepDatabase.trajectory_rows>` with the mean
        derived the same way :func:`repro.analysis.history.makespan_trajectory_sql`
        derives it, cached per ``(query, store version)``.

        Raises:
            ApiError: for an unknown ``system`` filter (400).
        """

        def rows(db: SweepDatabase, wanted: str | None) -> list[dict]:
            out = []
            for row in db.trajectory_rows(system=wanted):
                row = dict(row)
                row["mean_makespan"] = row["total_makespan"] / row["record_count"]
                out.append(row)
            return out

        return self._cached_history("trajectory", system, rows)

    def _cached_history(self, what: str, system: str | None, query) -> dict:
        """Serve one history aggregation through the TTL cache."""
        wanted = self._validate_system(system)
        with self._reader() as db:
            version = db.data_version()
            key = (what, wanted, version)
            cached = self.read_cache.get(key)
            if cached is not None:
                return dict(cached, cached=True)
            payload = {
                "rows": query(db, wanted),
                "system": wanted,
                "store_version": {"records": version[0], "runs": version[1]},
            }
        self.read_cache.put(key, payload)
        return dict(payload, cached=False)

    def _validate_system(self, system: str | None) -> str | None:
        """Normalise an optional ``system`` query parameter.

        Raises:
            ApiError: when the value names no paper system.
        """
        if system is None:
            return None
        if system.lower() not in PAPER_SYSTEMS:
            known = ", ".join(sorted(PAPER_SYSTEMS))
            raise ApiError(f"unknown system {system!r}; known systems: {known}")
        return system.lower()

    def _reader(self) -> SweepDatabase:
        """A fresh short-lived read-only connection onto the store.

        The job queue (created in ``__init__``) guarantees the store exists
        by the time any request-path reader opens it.
        """
        return SweepDatabase.open_reader(self.store_path)

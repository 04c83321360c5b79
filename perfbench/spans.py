"""In-memory span recorder used by the benchmark's traced runs.

Spans are recorded from the benchmark's own files only: :meth:`Tracer.wrap`
replaces a public function or method of the program with a wrapper that
opens a span around each call, and :func:`install_layer_spans` wraps the
calls that mark each layer boundary.  Nothing in ``src/`` knows about it.

Each span keeps its name, start, end, parent and the id of the top-level
request that caused it.  A span's self time is its duration minus the time
its direct children covered.  Spans stay in memory until the run ends;
:meth:`Tracer.dump` writes them out as JSON and :func:`aggregate` folds
them into per-layer count, busy time and self time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable


class Tracer:
    """Records nested spans per thread; cheap enough to wrap per-plan calls."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, float, str | None, int]] = []
        self.events: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requests = itertools.count(1)

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        """Open a span named ``name`` on the calling thread."""
        stack = self._stack()
        request = stack[-1][3] if stack else next(self._requests)
        stack.append([name, time.perf_counter(), 0.0, request])

    def end(self) -> None:
        """Close the innermost open span of the calling thread."""
        ended = time.perf_counter()
        stack = self._stack()
        name, started, children, request = stack.pop()
        duration = ended - started
        parent = None
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        with self._lock:
            self.spans.append((name, started, ended, duration - children, parent, request))

    def record(self, name: str, duration: float, parent: str | None = None) -> None:
        """Add a span measured elsewhere (a child process, a server's own clock)."""
        ended = time.perf_counter()
        with self._lock:
            self.spans.append((name, ended - duration, ended, duration, parent, 0))

    def add(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the counter ``name``."""
        with self._lock:
            self.events[name] = self.events.get(name, 0.0) + value

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str | Callable[..., str],
        *,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attribute`` with a spanned wrapper.

        ``name`` may be a callable of the call's arguments, for one wrapper
        that serves several layers (the scheduler loop of each policy).
        ``after(result, *args, **kwargs)`` runs outside the span and may
        derive counts from the call's result.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            tracer.begin(name(*args, **kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(owner, attribute, spanned)

    def count(self, owner: object, attribute: str, counter: str) -> None:
        """Replace ``owner.attribute`` with a wrapper that only counts calls."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.add(counter)
            return original(*args, **kwargs)

        setattr(owner, attribute, counted)

    def dump(self, path: str | Path, details: dict | None = None) -> None:
        """Write every span and counter (and ``details``) as one JSON document."""
        with self._lock:
            document = {
                "details": details or {},
                "spans": [
                    {
                        "name": name,
                        "start": start,
                        "end": end,
                        "self": self_time,
                        "parent": parent,
                        "request": request,
                    }
                    for name, start, end, self_time, parent, request in self.spans
                ],
                "events": dict(self.events),
            }
        Path(path).write_text(json.dumps(document), encoding="utf-8")

    def load(self, path: str | Path) -> None:
        """Fold a document written by :meth:`dump` (in a child process) in."""
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        with self._lock:
            for span in document["spans"]:
                self.spans.append(
                    (
                        span["name"],
                        span["start"],
                        span["end"],
                        span["self"],
                        span["parent"],
                        span["request"],
                    )
                )
            for name, value in document["events"].items():
                self.events[name] = self.events.get(name, 0.0) + value


def aggregate(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: call count, busy seconds and self seconds."""
    layers: dict[str, dict[str, float]] = {}
    for name, start, end, self_time, _, _ in tracer.spans:
        layer = layers.setdefault(name, {"count": 0, "busy": 0.0, "self": 0.0})
        layer["count"] += 1
        layer["busy"] += end - start
        layer["self"] += self_time
    return layers


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public call at each layer boundary of the program.

    The layers, named after the modules that own them:

    * ``system.build`` — a system build on a cache miss (itc02 parsing,
      wrapper design, placement, NoC construction);
    * ``noc.characterize`` — one NoC characterisation campaign;
    * ``schedule.plan`` — one :meth:`TestPlanner.plan_request`, holding
      ``schedule.interfaces``, the scheduler loop (``schedule.greedy`` or
      ``schedule.fastest_completion``) and ``schedule.validate``;
    * ``runner.serial_execute`` / ``runner.pool_execute`` — a backend's
      execution of a point list;
    * ``runner.orchestrate`` — a shard-worker fan-out and its merge;
    * ``runner.db.*`` — store commits, record reads, exports, history
      aggregations and merges;
    * ``serve.plan`` / ``serve.history`` / ``serve.job_run`` — the daemon's
      service calls (only reached in a traced ``repro serve``).
    """
    from repro import cli
    from repro.runner import backends, cache, db, engine
    from repro.runner.spec import scheduler_spec_name
    from repro.schedule import greedy, planner
    from repro.serve import jobs, service
    from repro.system import builder

    tracer.wrap(cache, "build_point_system", "system.build")
    tracer.wrap(cache, "characterize_noc", "noc.characterize")
    # Lookups against builds give the caches' hit ratios in any process.
    tracer.count(cache.SystemCache, "get", "runner.cache.system_lookups")
    tracer.count(cache.CharacterizationCache, "get", "runner.cache.characterization_lookups")
    tracer.wrap(
        planner.TestPlanner,
        "plan_request",
        "schedule.plan",
        after=lambda result, *a, **k: tracer.add("schedule.assignments", result.test_count),
    )
    tracer.wrap(builder.SocSystem, "interfaces", "schedule.interfaces")

    def scheduler_layer(scheduler, *args, **kwargs) -> str:
        return "schedule." + scheduler_spec_name(scheduler).replace("-", "_")

    tracer.wrap(greedy.EventDrivenScheduler, "schedule", scheduler_layer)
    tracer.wrap(planner, "validate_schedule", "schedule.validate")
    tracer.wrap(backends.SerialBackend, "execute", "runner.serial_execute")
    tracer.wrap(backends.ProcessPoolBackend, "execute", "runner.pool_execute")

    def count_attempts(report, *args, **kwargs) -> None:
        for worker in report.workers:
            for attempt in worker.attempts:
                tracer.add("runner.dispatch.attempts")
                tracer.record("runner.dispatch.worker", attempt.duration, "runner.orchestrate")

    tracer.wrap(
        backends.ShardWorkerBackend, "orchestrate", "runner.orchestrate", after=count_attempts
    )
    database = db.SweepDatabase
    tracer.wrap(database, "record_run", "runner.db.commit")
    tracer.wrap(database, "records", "runner.db.records")
    # Both export paths (`sweep --out` and `export_document`) serialise
    # through save_stored_sweeps; each module holds its own reference.
    tracer.wrap(cli, "save_stored_sweeps", "runner.db.export")
    tracer.wrap(db, "save_stored_sweeps", "runner.db.export")
    tracer.wrap(database, "win_rate_rows", "runner.db.history")
    tracer.wrap(database, "trajectory_rows", "runner.db.history")
    tracer.wrap(database, "merge_all", "runner.db.merge")

    tracer.wrap(service.PlanningService, "plan", "serve.plan")
    tracer.wrap(service.PlanningService, "win_rates", "serve.history")
    tracer.wrap(service.PlanningService, "trajectory", "serve.history")

    submitted: dict[str, float] = {}

    def note_submit(snapshot, *args, **kwargs) -> None:
        submitted[snapshot["job_id"]] = time.perf_counter()

    tracer.wrap(jobs.SweepJobQueue, "submit", "serve.submit", after=note_submit)

    def job_layer(runner, spec, store, *, source="sweep", **kwargs) -> str:
        if source.startswith("serve:"):
            queued = submitted.pop(source.split(":", 1)[1], None)
            if queued is not None:
                tracer.record("serve.job_wait", time.perf_counter() - queued)
            return "serve.job_run"
        return "runner.run_stored"

    tracer.wrap(engine.SweepRunner, "run_stored", job_layer)

"""Pluggable execution backends for the sweep engine.

The :class:`~repro.runner.engine.SweepRunner` decides *what* to run — which
points, what to characterise, what lands in which store — but delegates *how*
the points execute to an :class:`ExecutionBackend`.  Three backends ship:

:class:`SerialBackend`
    Plans every point in-process, one after the other.
:class:`ProcessPoolBackend`
    The ``jobs=N`` ``multiprocessing`` pool: order-preserving ``map`` over
    the points, workers seeded with the parent's warm system cache, so a
    pool run is byte-for-byte identical to a serial one.
:class:`ShardWorkerBackend`
    The local stand-in for SSH/CI fan-out: partitions a grid with
    :meth:`SweepSpec.shard <repro.runner.spec.SweepSpec.shard>`, spawns one
    detached ``repro sweep --shard-index i --shard-count n --store``
    subprocess per shard (each writing its own
    :class:`~repro.runner.db.SweepDatabase`), supervises them through the
    fault-tolerant dispatch layer (:mod:`repro.runner.dispatch`: worker
    state machine, heartbeats, retry/requeue with resume), and folds the
    shard stores into the target store with
    :meth:`SweepDatabase.merge_all <repro.runner.db.SweepDatabase.merge_all>`
    (``carry_history=True``, so per-shard run trajectories survive the
    merge).  A ``worker_command`` hook rewrites the spawned command line,
    which is where a custom dispatcher (a CI job submitter) slots in.
:class:`RemoteDispatchBackend`
    The shard-worker backend pointed at a real host pool (``--hosts``):
    worker commands go through a pluggable *launcher* (``ssh`` by default,
    plain subprocess for tests), shards are sized by measured per-point
    cost from the history store when available, and retries requeue onto
    surviving hosts.

Backends differ in *capability*, not just speed: the first two execute
arbitrary point sequences in-process (``supports_inline``) and therefore
serve every ``SweepRunner`` entry point, while the shard-worker backends
only orchestrate whole grids into a store (``supports_orchestration``) — the
runner checks the capability at the call site and fails with a clear
:class:`~repro.errors.ConfigurationError` instead of mis-executing.

New execution scenarios (a batch-queue submitter, an async in-process
executor) are new :class:`ExecutionBackend` subclasses registered in
:data:`BACKEND_FACTORIES`; the engine itself needs no further surgery.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ConfigurationError, OrchestrationError
from repro.runner.atomic import atomic_write_text
from repro.runner.cache import SystemCache
from repro.runner.launch import Launcher, beat_heartbeat, make_launcher
from repro.runner.spec import SHARD_STRATEGIES, SweepPoint, SweepSpec, make_scheduler
from repro.schedule.planner import TestPlanner
from repro.schedule.result import ScheduleResult

# Imported lazily at runtime: db imports the store layer, and the dispatch
# supervisor (with subprocess) is only needed by a process that orchestrates.
if TYPE_CHECKING:
    from repro.runner.db import MergeReport, SweepDatabase
    from repro.runner.dispatch import AttemptRecord, ShardOutcome, WorkerState


def execute_point(point: SweepPoint, system_cache: SystemCache) -> ScheduleResult:
    """Plan one sweep point, building its system through ``system_cache``."""
    system = system_cache.get(
        point.system,
        flit_width=point.flit_width,
        pattern_penalty=point.pattern_penalty,
    )
    planner = TestPlanner(system, scheduler=make_scheduler(point.scheduler))
    result = planner.plan(
        reused_processors=point.reused_processors,
        power_limit_fraction=point.power_limit_fraction,
        label=point.label,
    )
    # Progress heartbeat for dispatched workers (no-op elsewhere): beating
    # after the plan means a hung planner stops beating and gets caught by
    # the supervisor's staleness check.
    beat_heartbeat()
    if os.environ.get("REPRO_CHAOS"):
        # Fault injection for dispatch tests; imported lazily so production
        # runs never touch the devtools package.
        from repro.devtools.chaos import on_point_planned

        on_point_planned()
    return result


#: Per-process system cache used by pool workers.  The pool initializer
#: replaces it with a copy of the parent runner's warm cache, so workers
#: never rebuild a system the parent already built.
_WORKER_SYSTEM_CACHE = SystemCache()


def _init_worker(cache: SystemCache) -> None:
    global _WORKER_SYSTEM_CACHE
    _WORKER_SYSTEM_CACHE = cache


def _pool_worker(point: SweepPoint) -> ScheduleResult:
    return execute_point(point, _WORKER_SYSTEM_CACHE)


@dataclass(frozen=True)
class WorkerPlan:
    """One planned shard worker (what :class:`ShardWorkerBackend` will spawn).

    Attributes:
        shard_index: which shard of the grid this worker executes.
        shard_count: total number of shards the grid is split into.
        spec_path: JSON file holding the sweep spec (``SweepSpec.to_dict``).
        store_path: sqlite store the worker writes its shard into.
        log_path: file capturing the worker's stdout/stderr.
        argv: the default local command line.  A ``worker_command`` hook
            receives this plan and may return a different command (e.g.
            ``["ssh", host, *plan.argv]``) — the dispatch seam for remote
            fan-out.
        heartbeat_path: file the worker touches to prove progress (the
            supervisor's liveness signal; defaults next to the log file).
        point_indices: explicit grid indices this worker executes when the
            grid was cost-sized (``None`` for equal index/count shards).
    """

    shard_index: int
    shard_count: int
    spec_path: Path
    store_path: Path
    log_path: Path
    argv: tuple[str, ...]
    heartbeat_path: Path | None = None
    point_indices: tuple[int, ...] | None = None


@dataclass(frozen=True)
class WorkerOutcome:
    """One finished shard worker (its final state and attempt history).

    Attributes:
        shard_index / shard_count / store_path / log_path: the worker's
            plan coordinates.
        returncode: exit code of the final attempt.
        state: the shard's terminal :class:`~repro.runner.dispatch.WorkerState`.
        attempts: per-attempt history (states, durations, heartbeat ages) —
            what ``repro orchestrate`` prints per worker.
    """

    shard_index: int
    shard_count: int
    store_path: Path
    log_path: Path
    returncode: int
    state: WorkerState
    attempts: tuple[AttemptRecord, ...] = ()

    @property
    def retries(self) -> int:
        """Attempts beyond the first."""
        return max(len(self.attempts) - 1, 0)


@dataclass(frozen=True)
class OrchestrationReport:
    """The outcome of one orchestrated grid run.

    Attributes:
        spec: the grid that was orchestrated.
        spec_key: the spec's content key in the target store.
        workers: every shard worker, in shard order.
        merge_reports: one merge report per shard store, in shard order.
        record_count: current records the target store holds for the spec.
        run_count: runs the target store holds for the spec — with history
            carried, the sum of the shard stores' run counts.
        workdir: directory holding the shard stores, spec file and logs.
    """

    spec: SweepSpec
    spec_key: str
    workers: tuple[WorkerOutcome, ...]
    merge_reports: tuple["MergeReport", ...]
    record_count: int
    run_count: int
    workdir: Path


class ExecutionBackend:
    """Strategy interface: how a sweep's points actually execute.

    Capabilities:

    * ``supports_inline`` — the backend can execute an arbitrary point
      sequence in-process and return results in point order; required by
      :meth:`SweepRunner.run <repro.runner.engine.SweepRunner.run>`,
      :meth:`run_stored <repro.runner.engine.SweepRunner.run_stored>` and
      :meth:`run_shard <repro.runner.engine.SweepRunner.run_shard>`.
    * ``supports_orchestration`` — the backend can run a whole grid into a
      :class:`~repro.runner.db.SweepDatabase` on its own (dispatching
      workers, merging stores); required by :meth:`SweepRunner.orchestrate
      <repro.runner.engine.SweepRunner.orchestrate>`.
    """

    #: Canonical backend name (the ``--backend`` value).
    name = "abstract"
    supports_inline = False
    supports_orchestration = False

    @property
    def worker_count(self) -> int:
        """How many workers this backend runs points on."""
        return 1

    def execute(
        self, points: Sequence[SweepPoint], *, system_cache: SystemCache
    ) -> list[ScheduleResult]:
        """Execute ``points`` in order and return one result per point.

        Raises:
            ConfigurationError: when the backend cannot execute points
                in-process (``supports_inline`` is false).
        """
        raise ConfigurationError(
            f"backend {self.name!r} cannot execute sweep points in-process"
        )

    def measured_costs(self) -> dict[int, float] | None:
        """Measured wall-clock seconds per point index of the last :meth:`execute`.

        ``None`` when the backend does not measure (the default).  Costs
        are control metadata for cost-based shard sizing — they never enter
        records, exports or fingerprints.
        """
        return None

    def orchestrate(
        self,
        spec: SweepSpec,
        store: "SweepDatabase",
        *,
        resume: bool = False,
        characterize: bool = False,
        packet_count: int = 200,
        cache_dir: str | Path | None = None,
        workdir: str | Path | None = None,
    ) -> OrchestrationReport:
        """Run the whole grid of ``spec`` into ``store`` via dispatched workers.

        Raises:
            ConfigurationError: when the backend cannot orchestrate
                (``supports_orchestration`` is false).
        """
        raise ConfigurationError(
            f"backend {self.name!r} cannot orchestrate a grid into a store; "
            "use the shard-workers backend (repro orchestrate)"
        )


class SerialBackend(ExecutionBackend):
    """Execute every point in-process, one after the other.

    The serial backend also measures each point's wall-clock planning time
    (:meth:`measured_costs`); store-backed runs persist the measurements to
    the ``point_costs`` table, which is what feeds cost-based shard sizing
    on the next orchestration of the same grid.
    """

    name = "serial"
    supports_inline = True

    def __init__(self) -> None:
        self._last_costs: dict[int, float] = {}

    def execute(
        self, points: Sequence[SweepPoint], *, system_cache: SystemCache
    ) -> list[ScheduleResult]:
        """Plan each point in submission order on the calling thread."""
        self._last_costs = {}
        results = []
        for point in points:
            started = time.perf_counter()
            results.append(execute_point(point, system_cache))
            self._last_costs[point.index] = time.perf_counter() - started
        return results

    def measured_costs(self) -> dict[int, float]:
        """Per-point planning seconds measured by the last :meth:`execute`."""
        return dict(self._last_costs)


class ProcessPoolBackend(ExecutionBackend):
    """Execute points on a ``multiprocessing`` pool, byte-identical to serial.

    The parent pre-builds every distinct system so each worker starts from
    the warm cache, and the order-preserving ``map`` returns results in
    point order no matter which worker finishes first.

    Args:
        jobs: worker processes; ``None`` or 0 uses one per CPU.

    Raises:
        ConfigurationError: for a negative worker count.
    """

    name = "pool"
    supports_inline = True

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is None or jobs == 0:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ConfigurationError("jobs must be a positive worker count")
        self.jobs = jobs

    @property
    def worker_count(self) -> int:
        """Resolved worker-process count (CPU count substituted for 0)."""
        return self.jobs

    def execute(
        self, points: Sequence[SweepPoint], *, system_cache: SystemCache
    ) -> list[ScheduleResult]:
        """Plan the points on the pool, returning results in point order."""
        if self.jobs == 1 or len(points) <= 1:
            return [execute_point(point, system_cache) for point in points]
        # Build every distinct system once in the parent so each worker
        # starts from the warm cache (and the cache stats reflect one build
        # per SoC, not one per worker).
        for point in points:
            system_cache.get(
                point.system,
                flit_width=point.flit_width,
                pattern_penalty=point.pattern_penalty,
            )
        import multiprocessing

        workers = min(self.jobs, len(points))
        with multiprocessing.Pool(
            processes=workers, initializer=_init_worker, initargs=(system_cache,)
        ) as pool:
            return pool.map(_pool_worker, points, chunksize=1)


class ShardWorkerBackend(ExecutionBackend):
    """Orchestrate a grid as detached per-shard subprocess workers.

    Each worker is an independent ``repro sweep --spec-json ...
    --shard-index i --shard-count n --store`` process writing its own sqlite
    store; the backend monitors them and merges the shard stores into the
    target with history carried, so the merged store's export is
    byte-identical to a serial run's while ``repro history`` still sees one
    run per shard.  Locally this proves out the multi-host flow; pointing
    ``worker_command`` at a remote dispatcher turns it into real fan-out
    without touching the engine.

    Args:
        workers: number of shards (and worker processes) per grid.
        strategy: shard partition strategy (see :meth:`SweepSpec.shard
            <repro.runner.spec.SweepSpec.shard>`).
        worker_command: optional hook mapping a :class:`WorkerPlan` to the
            command line actually spawned (default: the plan's local argv).
        python: interpreter for the default local command
            (default: ``sys.executable``).
        timeout: wall-clock budget per worker *attempt*; an attempt still
            running after this long is killed and marked ``TimedOut``
            (``None`` waits forever).
        poll_interval: seconds between liveness polls.
        max_retries: extra attempts a failed/timed-out/lost shard may get
            before the orchestration fails (default 0: fail fast, the
            historical behaviour).  Retries resume the partial shard store
            instead of discarding it.
        retry_backoff: base delay before the first retry; doubles per
            further retry, with deterministic jitter
            (:meth:`DispatchPolicy.backoff_delay
            <repro.runner.dispatch.DispatchPolicy.backoff_delay>`).
        heartbeat_timeout: seconds after a worker's last observed heartbeat
            before it is declared ``Lost`` and killed.
        hosts: host-pool slot names to schedule attempts on (``None``:
            synthetic ``local/<i>`` slots, one per worker).
        launcher: launcher name from :data:`~repro.runner.launch.LAUNCHERS`
            or a launcher callable; maps ``(host, argv, env)`` to the
            spawned command (default ``"local"``).
        cost_sizing: size shards by measured per-point planning cost from
            the target store (``point_costs``) instead of equal point
            counts, when measurements exist (default off).
        checkpoint_every: forwarded to workers as ``--checkpoint``: commit
            every N points so a killed attempt leaves its completed work
            resumable (``None`` keeps single-transaction shard commits).

    Raises:
        ConfigurationError: for a non-positive worker count, an unknown
            shard strategy or launcher, a non-positive ``checkpoint_every``,
            or invalid retry/heartbeat parameters.
    """

    name = "shard-workers"
    supports_orchestration = True

    def __init__(
        self,
        workers: int = 2,
        *,
        strategy: str = "contiguous",
        worker_command: Callable[[WorkerPlan], Sequence[str]] | None = None,
        python: str | None = None,
        timeout: float | None = None,
        poll_interval: float = 0.05,
        max_retries: int = 0,
        retry_backoff: float = 0.5,
        heartbeat_timeout: float = 30.0,
        hosts: Sequence[str] | None = None,
        launcher: str | Launcher = "local",
        cost_sizing: bool = False,
        checkpoint_every: int | None = None,
    ) -> None:
        from repro.runner.dispatch import DispatchPolicy

        if workers < 1:
            raise ConfigurationError("shard workers must be a positive worker count")
        if strategy not in SHARD_STRATEGIES:
            known = ", ".join(SHARD_STRATEGIES)
            raise ConfigurationError(
                f"unknown shard strategy {strategy!r}; known strategies: {known}"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError(
                "checkpoint_every must be a positive number of points (or None)"
            )
        self.workers = workers
        self.strategy = strategy
        self.worker_command = worker_command
        self.python = python or sys.executable
        self.timeout = timeout
        self.poll_interval = poll_interval
        # Validates max_retries/retry_backoff/heartbeat_timeout eagerly, so
        # a bad flag fails at construction rather than mid-orchestration.
        self.policy = DispatchPolicy(
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            heartbeat_timeout=heartbeat_timeout,
            attempt_timeout=timeout,
            poll_interval=poll_interval,
        )
        self.hosts = list(hosts) if hosts is not None else None
        self.launcher = launcher if callable(launcher) else make_launcher(launcher)
        self.cost_sizing = cost_sizing
        self.checkpoint_every = checkpoint_every

    @property
    def worker_count(self) -> int:
        """Number of shard workers spawned per grid."""
        return self.workers

    # ------------------------------------------------------------------
    # Planning.
    # ------------------------------------------------------------------
    def plan_workers(
        self,
        spec: SweepSpec,
        workdir: Path,
        *,
        resume: bool = False,
        characterize: bool = False,
        packet_count: int = 200,
        cache_dir: str | Path | None = None,
        point_groups: Sequence[Sequence[int]] | None = None,
    ) -> list[WorkerPlan]:
        """Lay out the shard workers for ``spec`` under ``workdir``.

        Writes the spec as JSON once (workers rebuild it with
        ``repro sweep --spec-json``, so arbitrary grids orchestrate — not
        just the ones expressible through grid flags) and plans one worker
        per shard, each with its own store, log and heartbeat file.
        Everything lands in a per-grid subdirectory (keyed by the spec's
        content hash), so one ``workdir`` serves any number of orchestrated
        grids without their shard stores colliding.

        ``point_groups`` (one index set per worker, from cost-based sizing)
        switches the worker command line from ``--shard-index/--shard-count``
        to an explicit ``--points`` list; the groups must be a disjoint
        cover of the grid, which keeps the merged result byte-identical to
        any other partition.
        """
        workdir = workdir / spec.content_key()[:12]
        workdir.mkdir(parents=True, exist_ok=True)
        spec_path = workdir / "spec.json"
        # Atomic: a worker (or a resumed orchestration) must never read a
        # torn spec file.
        atomic_write_text(
            spec_path,
            json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n",
        )
        if point_groups is not None and len(point_groups) != self.workers:
            raise ConfigurationError(
                f"cost sizing produced {len(point_groups)} point group(s) "
                f"for {self.workers} worker(s)"
            )
        plans = []
        for index in range(self.workers):
            store_path = workdir / f"shard-{index}-of-{self.workers}.db"
            argv = [
                self.python,
                "-m",
                "repro.cli",
                "sweep",
                "--spec-json",
                str(spec_path),
                "--store",
                str(store_path),
            ]
            indices: tuple[int, ...] | None = None
            if point_groups is not None:
                indices = tuple(sorted(point_groups[index]))
                argv.extend(["--points", ",".join(str(i) for i in indices)])
            else:
                argv.extend(
                    [
                        "--shard-index",
                        str(index),
                        "--shard-count",
                        str(self.workers),
                        "--shard-strategy",
                        self.strategy,
                    ]
                )
            if resume:
                argv.append("--resume")
            if characterize:
                argv.extend(["--packets", str(packet_count)])
            else:
                argv.append("--no-characterize")
            if cache_dir is not None:
                argv.extend(["--cache-dir", str(cache_dir)])
            if self.checkpoint_every is not None:
                argv.extend(["--checkpoint", str(self.checkpoint_every)])
            plans.append(
                WorkerPlan(
                    shard_index=index,
                    shard_count=self.workers,
                    spec_path=spec_path,
                    store_path=store_path,
                    log_path=workdir / f"shard-{index}.log",
                    argv=tuple(argv),
                    heartbeat_path=workdir / f"shard-{index}.heartbeat",
                    point_indices=indices,
                )
            )
        return plans

    def plan_point_groups(
        self, spec: SweepSpec, store: "SweepDatabase"
    ) -> list[tuple[int, ...]] | None:
        """Cost-balanced index groups for ``spec``, one per worker.

        Reads the measured mean per-point planning cost from the target
        store (``SweepDatabase.point_cost_rows``, fed by earlier serial or
        orchestrated runs of the grid) and packs points onto workers with
        the greedy longest-processing-time heuristic: points sorted by
        descending cost, each assigned to the currently lightest worker.
        Points without a measurement get the mean of the measured costs.
        Deterministic throughout (stable sort keys, index tie-breaks).

        Returns ``None`` — meaning "fall back to equal sharding" — when the
        store holds no measurements for this grid or the grid has fewer
        points than workers (equal sharding already handles the empty-shard
        case).
        """
        costs = store.point_cost_rows(spec.content_key())
        if not costs:
            return None
        points = spec.points()
        if len(points) < self.workers:
            return None
        mean_cost = sum(costs.values()) / len(costs)
        weighted = sorted(
            ((costs.get(point.index, mean_cost), point.index) for point in points),
            key=lambda pair: (-pair[0], pair[1]),
        )
        loads = [0.0] * self.workers
        groups: list[list[int]] = [[] for _ in range(self.workers)]
        for cost, index in weighted:
            lightest = min(range(self.workers), key=lambda w: (loads[w], w))
            loads[lightest] += cost
            groups[lightest].append(index)
        return [tuple(sorted(group)) for group in groups]

    # ------------------------------------------------------------------
    # Orchestration.
    # ------------------------------------------------------------------
    def orchestrate(
        self,
        spec: SweepSpec,
        store: "SweepDatabase",
        *,
        resume: bool = False,
        characterize: bool = False,
        packet_count: int = 200,
        cache_dir: str | Path | None = None,
        workdir: str | Path | None = None,
    ) -> OrchestrationReport:
        """Fan the grid out over shard workers and merge the results.

        The shard stores are merged with ``carry_history=True``: every
        shard-side run lands in the target (run ids remapped), so the
        target's run count grows by the sum of the shard run counts while
        its exported document stays byte-identical to a serial full run's.

        Workers run under the fault-tolerant supervisor
        (:class:`~repro.runner.dispatch.WorkerSupervisor`): failed, hung or
        lost attempts are retried with backoff up to ``max_retries`` times,
        resuming the partial shard store — the merge invariant holds on
        every retry path because records are keyed by global point index
        and merges are idempotent.

        Args:
            spec: the grid to orchestrate.
            store: target store the merged shard results land in.
            resume: forward ``--resume`` to the workers (effective when the
                shard stores of an earlier run persist under ``workdir``).
            characterize / packet_count / cache_dir: the runner's
                characterisation settings, forwarded as worker flags.
            workdir: directory for shard stores, the spec file, heartbeats
                and worker logs; defaults to a fresh temporary directory
                (kept on failure so the logs stay inspectable, referenced
                in the raised error).

        Raises:
            OrchestrationError: when a worker exhausts its attempts (exit
                code, last heartbeat age and log tail are included) or an
                attempt exceeds the timeout with no retries left.
            ResultStoreError: when the returned shard stores fail merge
                validation (conflicting records, foreign spec keys).
        """
        from repro.runner.db import SweepDatabase
        from repro.runner.dispatch import failure_detail

        if workdir is None:
            workdir = Path(tempfile.mkdtemp(prefix="repro-orchestrate-"))
        else:
            workdir = Path(workdir)
        point_groups = (
            self.plan_point_groups(spec, store) if self.cost_sizing else None
        )
        plans = self.plan_workers(
            spec,
            workdir,
            resume=resume,
            characterize=characterize,
            packet_count=packet_count,
            cache_dir=cache_dir,
            point_groups=point_groups,
        )
        shard_outcomes = self._dispatch(plans)
        failed = [outcome for outcome in shard_outcomes if not outcome.succeeded]
        if failed:
            details = "; ".join(
                failure_detail(outcome, attempt_timeout=self.timeout)
                for outcome in failed
            )
            raise OrchestrationError(
                f"{len(failed)} of {len(shard_outcomes)} shard worker(s) failed "
                f"(logs under {workdir}): {details}"
            )
        outcomes = [
            WorkerOutcome(
                shard_index=outcome.plan.shard_index,
                shard_count=outcome.plan.shard_count,
                store_path=outcome.plan.store_path,
                log_path=outcome.plan.log_path,
                returncode=outcome.returncode if outcome.returncode is not None else -1,
                state=outcome.state,
                attempts=outcome.attempts,
            )
            for outcome in shard_outcomes
        ]

        spec_key = store.ensure_sweep(spec)
        shard_stores = [SweepDatabase.open_reader(plan.store_path) for plan in plans]
        try:
            merge_reports = store.merge_all(
                shard_stores, expect_spec_key=spec_key, carry_history=True
            )
        finally:
            for shard in shard_stores:
                shard.close()
        return OrchestrationReport(
            spec=spec,
            spec_key=spec_key,
            workers=tuple(outcomes),
            merge_reports=merge_reports,
            record_count=store.record_count(spec_key),
            run_count=store.run_count(spec_key),
            workdir=workdir,
        )

    def _dispatch_hosts(self) -> list[str]:
        """The host-pool slots attempts are scheduled on."""
        if self.hosts:
            return list(self.hosts)
        return [f"local/{index}" for index in range(self.workers)]

    def _worker_env(self) -> dict[str, str]:
        """Environment for spawned workers (repro importable sans install)."""
        env = os.environ.copy()
        # Workers must import the same `repro` as the parent even when the
        # package is not installed (the PYTHONPATH=src development setup).
        src_root = str(Path(__file__).resolve().parent.parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else os.pathsep.join([src_root, existing])
        )
        return env

    def _dispatch(self, plans: Sequence[WorkerPlan]) -> list[ShardOutcome]:
        """Run the planned workers under the fault-tolerant supervisor."""
        from repro.runner.dispatch import WorkerSupervisor

        supervisor = WorkerSupervisor(
            plans,
            hosts=self._dispatch_hosts(),
            policy=self.policy,
            launcher=self.launcher,
            worker_command=self.worker_command,
            base_env=self._worker_env(),
        )
        return supervisor.run()


class RemoteDispatchBackend(ShardWorkerBackend):
    """Shard-worker orchestration over a real host pool.

    Identical mechanics to :class:`ShardWorkerBackend` — per-shard stores,
    heartbeats, retry/requeue, history-carrying merge — with remote-leaning
    defaults: worker commands go through a launcher (``ssh`` by default;
    ``local`` spawns plain subprocesses, which is how tests and CI exercise
    the remote path without real hosts), concurrency follows the host list,
    shards are cost-sized from the history store when measurements exist,
    workers checkpoint every point so a killed host loses at most one
    point's work, and failed shards retry twice by default.  The workdir
    must be reachable by every host (a shared filesystem) — the same
    assumption the merge step already makes about shard stores.

    Args:
        hosts: host names to dispatch onto (required, non-empty).
        workers: shard count (default: one per host).
        launcher: launcher registry name or callable (default ``"ssh"``).
        max_retries / retry_backoff / heartbeat_timeout / cost_sizing /
            checkpoint_every: as on :class:`ShardWorkerBackend`, with the
            fault-tolerant defaults described above.

    Raises:
        ConfigurationError: for an empty host list (and everything the base
            class rejects).
    """

    name = "remote"

    def __init__(
        self,
        hosts: Sequence[str],
        *,
        workers: int | None = None,
        strategy: str = "contiguous",
        worker_command: Callable[[WorkerPlan], Sequence[str]] | None = None,
        python: str | None = None,
        timeout: float | None = None,
        poll_interval: float = 0.05,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        heartbeat_timeout: float = 30.0,
        launcher: str | Launcher = "ssh",
        cost_sizing: bool = True,
        checkpoint_every: int | None = 1,
    ) -> None:
        cleaned = [host.strip() for host in hosts if host and host.strip()]
        if not cleaned:
            raise ConfigurationError(
                "the remote backend needs at least one host "
                "(--hosts h1,h2,... or --hosts-file)"
            )
        super().__init__(
            workers=workers if workers is not None else len(cleaned),
            strategy=strategy,
            worker_command=worker_command,
            python=python,
            timeout=timeout,
            poll_interval=poll_interval,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            heartbeat_timeout=heartbeat_timeout,
            hosts=cleaned,
            launcher=launcher,
            cost_sizing=cost_sizing,
            checkpoint_every=checkpoint_every,
        )


#: Execution backends a runner can name, keyed by their canonical name.
#: New execution scenarios register here (mirroring
#: :data:`repro.runner.spec.SCHEDULER_FACTORIES` for schedulers).
BACKEND_FACTORIES: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
    ShardWorkerBackend.name: ShardWorkerBackend,
    RemoteDispatchBackend.name: RemoteDispatchBackend,
}


def make_backend(
    name: str,
    *,
    jobs: int | None = 1,
    workers: int | None = 2,
    strategy: str = "contiguous",
    worker_command: Callable[[WorkerPlan], Sequence[str]] | None = None,
    hosts: Sequence[str] | None = None,
    launcher: str | Launcher | None = None,
) -> ExecutionBackend:
    """Instantiate the execution backend called ``name``.

    ``jobs`` configures the pool backend; ``workers``/``strategy``/
    ``worker_command`` the shard-worker backends; ``hosts``/``launcher``
    the remote backend (``workers=None`` there defaults to one shard per
    host).  Parameters that do not apply to the named backend are checked,
    not silently dropped.

    Raises:
        ConfigurationError: for an unknown backend name, hosts given to a
            non-remote backend, the remote backend without hosts, or for
            the serial backend combined with a multi-process ``jobs`` value
            (that contradiction almost certainly means ``--backend pool``
            was intended).
    """
    if name not in BACKEND_FACTORIES:
        known = ", ".join(sorted(BACKEND_FACTORIES))
        raise ConfigurationError(f"unknown backend {name!r}; known backends: {known}")
    if hosts is not None and name != RemoteDispatchBackend.name:
        raise ConfigurationError(
            f"hosts only apply to the remote backend, not {name!r} "
            "(--backend remote)"
        )
    if name == SerialBackend.name:
        if jobs is not None and jobs != 1:
            raise ConfigurationError(
                f"the serial backend runs in-process; jobs={jobs} needs the "
                "pool backend (--backend pool)"
            )
        return SerialBackend()
    if name == ProcessPoolBackend.name:
        return ProcessPoolBackend(jobs=jobs)
    if jobs is not None and jobs != 1:
        raise ConfigurationError(
            f"the {name} backend is sized with workers, not jobs={jobs}; "
            "use --workers (jobs configures the in-process backends)"
        )
    if name == RemoteDispatchBackend.name:
        if hosts is None:
            raise ConfigurationError(
                "the remote backend needs at least one host "
                "(--hosts h1,h2,... or --hosts-file)"
            )
        return RemoteDispatchBackend(
            hosts,
            workers=workers,
            strategy=strategy,
            worker_command=worker_command,
            launcher=launcher if launcher is not None else "ssh",
        )
    return ShardWorkerBackend(
        workers=workers if workers is not None else 2,
        strategy=strategy,
        worker_command=worker_command,
    )

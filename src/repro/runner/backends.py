"""In-process point execution for the sweep engine, and the shard-worker orchestrator.

:class:`SerialBackend` is how every :class:`~repro.runner.engine.SweepRunner`
plans its points: in-process, one after the other, in point order, timing
each plan so store-backed runs can record per-point costs.
:class:`ProcessPoolBackend` survives only as a deprecated, empty subclass
of it that nothing in the package instantiates; see its docstring.

:class:`ShardWorkerBackend` is the one parallel path.  It splits a batch of
grids into one explicit point list per worker and grid with
:func:`lpt_split` over the points' measured planning costs
(:meth:`ShardWorkerBackend.plan_point_groups`; a resumed batch plans only
the points the target store cannot already reuse), spawns
one detached ``repro sweep --spec-json ... --points ... --store``
subprocess per worker (each running its lists of every grid of the batch
into its own :class:`~repro.runner.db.SweepDatabase`), so a batch is one
dispatch round on N workers; it supervises them through the fault-tolerant
dispatch layer (:mod:`repro.runner.dispatch`: worker state machine,
heartbeats, retry/requeue with resume), and folds the shard stores into
the target store with :meth:`SweepDatabase.merge_all
<repro.runner.db.SweepDatabase.merge_all>`, which carries every shard run
so per-worker run trajectories survive the merge.  Without hosts the workers
are local subprocesses; given a host pool (``hosts``) it derives
remote-leaning defaults — one worker per host, the ``ssh`` launcher,
retries and per-point checkpoints.  The *launcher* hook
maps each worker's command line to the spawned command, which is where a
custom dispatcher (a CI job submitter) slots in.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Collection, Sequence

from repro.errors import ConfigurationError, OrchestrationError
from repro.runner.atomic import atomic_write_text
from repro.runner.launch import Launcher, beat_heartbeat, make_launcher
from repro.runner.spec import SweepPoint, SweepSpec

# Imported lazily at runtime: db imports the store layer, the dispatch
# supervisor (with subprocess) is only needed by a process that orchestrates,
# and the planning core only by a process that plans (SerialBackend.execute).
if TYPE_CHECKING:
    from repro.runner.cache import SystemCache
    from repro.runner.db import MergeReport, SweepDatabase
    from repro.runner.dispatch import ShardOutcome
    from repro.schedule.greedy import EventDrivenScheduler
    from repro.schedule.planner import TestPlanner
    from repro.schedule.result import ScheduleResult
    from repro.system.builder import SocSystem


def _planning_core() -> tuple[type[TestPlanner], Callable[[str], EventDrivenScheduler]]:
    """The planner class and scheduler factory the point loop uses.

    Imported on the first call: this module loads none of the planning
    core until a point is actually planned.
    """
    from repro.runner.schedulers import make_scheduler
    from repro.schedule.planner import TestPlanner

    return TestPlanner, make_scheduler


def _plan_point(point: SweepPoint, system: SocSystem) -> ScheduleResult:
    """Plan one sweep point on its built ``system``."""
    TestPlanner, make_scheduler = _planning_core()
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


def batch_dirname(specs: Sequence[SweepSpec]) -> str:
    """The workdir subdirectory name of an orchestrated batch of specs.

    A hash of the batch's spec keys, in batch order.  A one-spec batch keeps
    the spec's own ``content_key()[:12]``, so single-grid workdirs written
    before batching still resume.
    """
    keys = [spec.content_key() for spec in specs]
    if len(keys) == 1:
        return keys[0][:12]
    return hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()[:12]


def lpt_split(costs: Sequence[float], loads: list[float]) -> tuple[tuple[int, ...], ...]:
    """Pack points onto ``len(loads)`` workers by longest processing time.

    The one way a grid is split.  ``costs[i]`` is point ``i``'s planning
    cost.  Points are taken by descending cost (lower index first on ties)
    and each goes to the currently lightest worker (lower worker first on
    ties), so unit costs on fresh loads deal the points round-robin.
    ``loads`` holds each worker's cost so far and is updated in place, so
    the grids of a batch balance together.  Returns one ascending index
    tuple per worker; with more workers than points the surplus tuples are
    empty.
    """
    groups: list[list[int]] = [[] for _ in loads]
    for index in sorted(range(len(costs)), key=lambda i: (-costs[i], i)):
        lightest = min(range(len(loads)), key=lambda w: (loads[w], w))
        loads[lightest] += costs[index]
        groups[lightest].append(index)
    return tuple(tuple(sorted(group)) for group in groups)


@dataclass(frozen=True)
class WorkerPlan:
    """One planned shard worker (what :class:`ShardWorkerBackend` will spawn).

    Attributes:
        shard_index: the worker's position in the batch's split.
        shard_count: how many workers the batch was split for (idle ones,
            which are not spawned, included).
        spec_path: JSON file holding the batch's spec list
            (``SweepSpec.to_dict`` per spec, in batch order).
        store_path: sqlite store the worker writes its points into.
        log_path: file capturing the worker's stdout/stderr.
        argv: the worker's ``repro sweep --points`` command line.  The
            backend's launcher maps it, with the attempt's host and dispatch
            environment, to the command actually spawned (e.g. ``ssh host
            ...``) — the dispatch seam for remote fan-out.
        heartbeat_path: file the worker touches to prove progress (the
            supervisor's liveness signal; defaults next to the log file).
    """

    shard_index: int
    shard_count: int
    spec_path: Path
    store_path: Path
    log_path: Path
    argv: tuple[str, ...]
    heartbeat_path: Path | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.shard_index < self.shard_count:
            raise ConfigurationError(
                f"shard index {self.shard_index} out of range for "
                f"{self.shard_count} shard(s): need 0 <= shard_index < shard_count"
            )


@dataclass(frozen=True)
class OrchestrationReport:
    """The outcome of one orchestrated batch of grids (one dispatch round).

    Attributes:
        specs: the grids that were orchestrated, in batch order.
        spec_keys: their content keys in the target store, in batch order.
        workers: the dispatch outcome (final state, attempt history) of
            every spawned worker, in shard order; each one ran its point
            lists of every grid of the batch.
        merge_reports: one merge report per shard store, in shard order.
        record_count: current records the target store holds for the
            batch's grids.
        run_count: runs the target store holds for the batch's grids — with
            history carried, the sum of the shard stores' run counts.
        executed_count: points handed to the workers, over the batch.
        skipped_count: points a resumed batch left out because the target
            store already held a reusable record (0 without resume).
        workdir: directory holding the batch's subdirectory of shard
            stores, spec file and logs; ``None`` once it no longer exists
            (the temporary one a successful merge removes).
    """

    specs: tuple[SweepSpec, ...]
    spec_keys: tuple[str, ...]
    workers: tuple["ShardOutcome", ...]
    merge_reports: tuple["MergeReport", ...]
    record_count: int
    run_count: int
    executed_count: int
    skipped_count: int
    workdir: Path | None


class SerialBackend:
    """Execute every point in-process, one after the other.

    The one in-process loop: every :class:`~repro.runner.engine.SweepRunner`
    plans its points here.  It also measures each point's wall-clock
    planning time (:meth:`measured_costs`); store-backed runs persist the
    measurements to the ``point_costs`` table, which is what sizes the
    shards of the next orchestration of the same grid.  The clock covers the
    plan only: the point's system build and the first import of the planning
    core are one-off work that would otherwise land on whichever point comes
    first.
    """

    def __init__(self) -> None:
        self._last_costs: dict[int, float] = {}

    def execute(
        self, points: Sequence[SweepPoint], *, system_cache: SystemCache
    ) -> list[ScheduleResult]:
        """Plan each point in submission order on the calling thread."""
        self._last_costs = {}
        results = []
        _planning_core()
        for point in points:
            system = system_cache.get(
                point.system,
                flit_width=point.flit_width,
                pattern_penalty=point.pattern_penalty,
            )
            started = time.perf_counter()
            results.append(_plan_point(point, system))
            self._last_costs[point.index] = time.perf_counter() - started
        return results

    def measured_costs(self) -> dict[int, float]:
        """Per-point planning seconds measured by the last :meth:`execute`."""
        return dict(self._last_costs)


class ProcessPoolBackend(SerialBackend):
    """Deprecated: the process pool is gone, and this plans serially.

    Pool worker processes never paid for themselves on a planning step of a
    few milliseconds per point, so every in-process run plans through
    :class:`SerialBackend`.  The name is kept, without an ``execute`` of its
    own, only because the repo benchmark's layer spans
    (``perfbench/spans.py``) wrap it by name; nothing in the package
    instantiates it, so its span counts no calls.  ``repro orchestrate
    --workers N`` is the parallel path.
    """


class ShardWorkerBackend:
    """Orchestrate a batch of grids as detached per-shard subprocess workers.

    Each worker is an independent ``repro sweep --spec-json ... --points
    ... --store`` process that runs its point list of every grid in the
    batch's spec file into its own sqlite store, so a batch of any size is
    one dispatch round on at most ``workers`` processes (a worker whose
    lists are all empty is not spawned).  The backend monitors them and
    merges the shard stores into the target with history carried, so the
    merged store's export is byte-identical to a serial run's while
    ``repro history`` still sees one run per worker per grid.

    Without ``hosts`` the workers run as local subprocesses.  Given a host
    pool the settings left at ``None`` are derived for real fan-out: one
    worker per host, the ``ssh`` launcher, two retries and a checkpoint
    every point so a killed host loses at most one point's
    work.  The workdir must then be reachable by every host (a shared
    filesystem) — the same assumption the merge step already makes about
    shard stores.

    Args:
        workers: number of shards (and at most that many worker
            processes) per batch (default: 2, or one per host).
        timeout: wall-clock budget per worker *attempt*; an attempt still
            running after this long is killed and marked ``TimedOut``
            (``None`` waits forever).
        poll_interval: seconds between liveness polls.
        max_retries: extra attempts a failed/timed-out/lost shard may get
            before the orchestration fails (default: 0, fail fast; 2 with
            hosts).  Retries resume the partial shard store instead of
            discarding it.
        retry_backoff: base delay before the first retry; doubles per
            further retry, with deterministic jitter
            (:meth:`DispatchPolicy.backoff_delay
            <repro.runner.dispatch.DispatchPolicy.backoff_delay>`).
        heartbeat_timeout: seconds after a worker's last observed heartbeat
            before it is declared ``Lost`` and killed.
        hosts: host-pool slot names to schedule attempts on; blank names are
            dropped (``None``: synthetic ``local/<i>`` slots, one per
            worker).
        launcher: launcher name from :data:`~repro.runner.launch.LAUNCHERS`
            or a launcher callable; maps ``(host, argv, env)`` to the
            spawned command (default: ``"local"``, or ``"ssh"`` with hosts).
        checkpoint_every: forwarded to workers as ``--checkpoint``: commit
            every N points so a killed attempt leaves its completed work
            resumable (default: single-transaction shard commits, or every
            point with hosts).

    The timeout, poll interval and retry settings live only in
    :attr:`policy`, the :class:`~repro.runner.dispatch.DispatchPolicy` the
    supervisor reads.

    Raises:
        ConfigurationError: for a host list without a host, a non-positive
            worker count, an unknown launcher, a non-positive
            ``checkpoint_every``, or invalid retry/heartbeat parameters.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        timeout: float | None = None,
        poll_interval: float = 0.05,
        max_retries: int | None = None,
        retry_backoff: float = 0.5,
        heartbeat_timeout: float = 30.0,
        hosts: Sequence[str] | None = None,
        launcher: str | Launcher | None = None,
        checkpoint_every: int | None = None,
    ) -> None:
        from repro.runner.dispatch import DispatchPolicy

        pool = hosts is not None
        if pool:
            hosts = [host.strip() for host in hosts if host and host.strip()]
            if not hosts:
                raise ConfigurationError(
                    "a host pool needs at least one host "
                    "(--hosts h1,h2,... or --hosts-file)"
                )
        if workers is None:
            workers = len(hosts) if pool else 2
        if max_retries is None:
            max_retries = 2 if pool else 0
        if checkpoint_every is None and pool:
            checkpoint_every = 1
        if launcher is None:
            launcher = "ssh" if pool else "local"
        if workers < 1:
            raise ConfigurationError("shard workers must be a positive worker count")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError(
                "checkpoint_every must be a positive number of points (or None)"
            )
        self.workers = workers
        # Validates max_retries/retry_backoff/heartbeat_timeout eagerly, so
        # a bad flag fails at construction rather than mid-orchestration.
        self.policy = DispatchPolicy(
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            heartbeat_timeout=heartbeat_timeout,
            attempt_timeout=timeout,
            poll_interval=poll_interval,
        )
        self.hosts = hosts
        self.launcher = launcher if callable(launcher) else make_launcher(launcher)
        self.checkpoint_every = checkpoint_every

    # ------------------------------------------------------------------
    # Planning.
    # ------------------------------------------------------------------
    def plan_workers(
        self,
        specs: Sequence[SweepSpec],
        workdir: Path,
        point_groups: Sequence[Sequence[Sequence[int]]],
        *,
        resume: bool = False,
        characterize: bool = False,
        packet_count: int = 200,
        cache_dir: str | Path | None = None,
    ) -> list[WorkerPlan]:
        """Lay out the shard workers for the batch ``specs`` under ``workdir``.

        ``point_groups`` holds, per worker, one index list per spec (see
        :meth:`plan_point_groups`); each spec's lists must be a disjoint
        cover of its grid, which keeps the merged result byte-identical to
        any other partition.  Writes the batch as one JSON spec list
        (workers rebuild it with ``repro sweep --spec-json``, so arbitrary
        grids orchestrate — not just the ones expressible through grid
        flags) and plans one worker per non-empty entry, each running
        ``--points`` (one comma list per spec, joined by ``;``) into its
        own store, with its own log and heartbeat file.  A worker whose
        lists are all empty would only record empty runs, so it is not
        planned.  Everything lands in a per-batch subdirectory (see
        :func:`batch_dirname`), so one ``workdir`` serves any number of
        orchestrated batches without their shard stores colliding.
        """
        workdir = workdir / batch_dirname(specs)
        workdir.mkdir(parents=True, exist_ok=True)
        spec_path = workdir / "spec.json"
        # Atomic: a worker (or a resumed orchestration) must never read a
        # torn spec file.
        atomic_write_text(
            spec_path,
            json.dumps([spec.to_dict() for spec in specs], indent=2, sort_keys=True)
            + "\n",
        )
        count = len(point_groups)
        plans = []
        for index, groups in enumerate(point_groups):
            if not any(groups):
                continue
            store_path = workdir / f"shard-{index}-of-{count}.db"
            argv = [
                sys.executable,
                "-m",
                "repro.cli",
                "sweep",
                "--spec-json",
                str(spec_path),
                "--store",
                str(store_path),
                "--points",
                ";".join(",".join(map(str, group)) for group in groups),
            ]
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
                    shard_count=count,
                    spec_path=spec_path,
                    store_path=store_path,
                    log_path=workdir / f"shard-{index}.log",
                    argv=tuple(argv),
                    heartbeat_path=workdir / f"shard-{index}.heartbeat",
                )
            )
        return plans

    def plan_point_groups(
        self,
        specs: Sequence[SweepSpec],
        store: "SweepDatabase",
        held: Sequence[Collection[int]] | None = None,
    ) -> list[tuple[tuple[int, ...], ...]]:
        """The batch's split: per worker, one ascending index tuple per spec.

        Every grid of the batch is packed by :func:`lpt_split` over one
        shared ``loads`` list, so the whole batch is balanced, not each grid
        on its own.  A point costs its measured mean planning seconds from
        the target store (``SweepDatabase.point_cost_rows``, fed by earlier
        serial or orchestrated runs), else the mean of its grid's measured
        points, else the mean of the batch's measured points, else 1.0 — so
        a store without measurements deals the points round-robin.
        ``held`` names, per spec, the points to leave out of the split (a
        resumed batch's reusable points).  Deterministic throughout.
        """
        if held is None:
            held = [()] * len(specs)
        measured = [store.point_cost_rows(spec.content_key()) for spec in specs]
        batch_costs = [cost for costs in measured for cost in costs.values()]
        batch_mean = sum(batch_costs) / len(batch_costs) if batch_costs else 1.0
        loads = [0.0] * self.workers
        per_spec = []
        for spec, costs, skip in zip(specs, measured, held):
            fallback = sum(costs.values()) / len(costs) if costs else batch_mean
            pending = [index for index in range(spec.point_count) if index not in skip]
            groups = lpt_split([costs.get(index, fallback) for index in pending], loads)
            per_spec.append(
                tuple(tuple(pending[position] for position in group) for group in groups)
            )
        return [
            tuple(spec_groups[worker] for spec_groups in per_spec)
            for worker in range(self.workers)
        ]

    # ------------------------------------------------------------------
    # Orchestration.
    # ------------------------------------------------------------------
    def orchestrate(
        self,
        specs: Sequence[SweepSpec],
        store: "SweepDatabase",
        *,
        resume: bool = False,
        characterize: bool = False,
        packet_count: int = 200,
        cache_dir: str | Path | None = None,
        workdir: str | Path | None = None,
    ) -> OrchestrationReport:
        """Fan a batch of grids out over the shard workers and merge the results.

        The whole batch is one dispatch round: at most ``workers``
        processes in total, each running its point lists of every spec
        (:meth:`plan_point_groups`), then one merge, which carries every
        shard-side run into the target (run ids remapped), so the
        target's run count grows by the sum of the shard run counts while
        its exported document stays byte-identical to a serial full run's
        of the same specs in the same order.

        Workers run under the fault-tolerant supervisor
        (:class:`~repro.runner.dispatch.WorkerSupervisor`): failed, hung or
        lost attempts are retried with backoff up to ``max_retries`` times,
        resuming the partial shard store — the merge invariant holds on
        every retry path because records are keyed by global point index
        and merges are idempotent.

        Args:
            specs: the grids to orchestrate (a single grid is a one-element
                sequence).
            store: target store the merged shard results land in.
            resume: plan only the points whose record in ``store`` this
                run cannot reuse (:meth:`SweepDatabase.reusable_indices
                <repro.runner.db.SweepDatabase.reusable_indices>`, the rule
                ``repro sweep --resume`` applies), and forward ``--resume``
                to the workers, so they resume the shard stores an earlier
                run left under ``workdir``.  When the target holds every
                point, nothing is dispatched or merged.
            characterize / packet_count / cache_dir: the runner's
                characterisation settings, forwarded as worker flags.
            workdir: directory for shard stores, the spec file, heartbeats
                and worker logs, never removed; defaults to a fresh
                temporary directory that is removed after a successful
                merge and kept on failure, so the logs stay inspectable
                (the raised error names it).

        Raises:
            ConfigurationError: for an empty batch, or a bare spec where a
                sequence of specs is expected.
            OrchestrationError: when a worker exhausts its attempts (exit
                code, last heartbeat age and log tail are included) or an
                attempt exceeds the timeout with no retries left.
            ResultStoreError: when the returned shard stores fail merge
                validation (conflicting records, foreign spec keys).
        """
        from repro.runner.db import SweepDatabase
        from repro.runner.dispatch import failure_detail

        if isinstance(specs, SweepSpec):
            raise ConfigurationError(
                "orchestrate takes a sequence of specs; pass a single grid as [spec]"
            )
        specs = tuple(specs)
        if not specs:
            raise ConfigurationError("orchestrate needs at least one sweep spec")
        # The target changes only through a successful merge, so after a
        # failed run the held points, the costs and hence the split are the
        # same again, and every worker resumes its own shard store.
        held = [
            store.reusable_indices(
                spec.content_key(), characterize=characterize, packet_count=packet_count
            )
            if resume
            else frozenset()
            for spec in specs
        ]
        point_groups = self.plan_point_groups(specs, store, held)
        temporary = workdir is None
        workdir = Path(tempfile.mkdtemp(prefix="repro-orchestrate-") if temporary else workdir)
        plans = self.plan_workers(
            specs,
            workdir,
            point_groups,
            resume=resume,
            characterize=characterize,
            packet_count=packet_count,
            cache_dir=cache_dir,
        )
        outcomes = self._dispatch(plans) if plans else []
        failed = [outcome for outcome in outcomes if not outcome.succeeded]
        if failed:
            details = "; ".join(
                failure_detail(outcome, attempt_timeout=self.policy.attempt_timeout)
                for outcome in failed
            )
            raise OrchestrationError(
                f"{len(failed)} of {len(outcomes)} shard worker(s) failed "
                f"(logs under {workdir}): {details}"
            )

        # Registered in batch order before the merge, so the target lists
        # the sweeps (and exports them) in the order a serial run would.
        spec_keys = tuple(store.ensure_sweep(spec) for spec in specs)
        shard_stores = [SweepDatabase.open_reader(plan.store_path) for plan in plans]
        try:
            merge_reports = store.merge_all(
                shard_stores, expect_spec_keys=frozenset(spec_keys)
            )
        finally:
            for shard in shard_stores:
                shard.close()
        if temporary:
            shutil.rmtree(workdir, ignore_errors=True)
        distinct_keys = set(spec_keys)
        return OrchestrationReport(
            specs=specs,
            spec_keys=spec_keys,
            workers=tuple(outcomes),
            merge_reports=merge_reports,
            record_count=sum(store.record_count(key) for key in distinct_keys),
            run_count=sum(store.run_count(key) for key in distinct_keys),
            executed_count=sum(len(group) for groups in point_groups for group in groups),
            skipped_count=sum(len(skip) for skip in held),
            workdir=workdir if workdir.exists() else None,
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
            base_env=self._worker_env(),
        )
        return supervisor.run()

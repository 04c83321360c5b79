"""Fault-tolerant worker dispatch for orchestrated sweeps.

:class:`~repro.runner.backends.ShardWorkerBackend` used to spawn its shard
workers and simply wait: one crashed, hung or slow worker failed the whole
sweep.  This module is the reliability layer underneath it — every worker
attempt is an explicit state machine

.. code-block:: text

    NotReady ──▶ Ready ──▶ Running ──▶ Finished
                   │          │    ├──▶ Failed    (non-zero exit)
                   │          │    ├──▶ TimedOut  (attempt deadline hit)
                   └──────────┴────┴──▶ Lost      (heartbeat went stale)

driven by :class:`WorkerSupervisor`:

* **Heartbeats.**  Each spawned worker inherits ``REPRO_HEARTBEAT_FILE``
  and touches that file on startup and after every planned point
  (:func:`beat_heartbeat`, called from the worker entry point and
  :meth:`repro.runner.backends.SerialBackend.execute`).  The supervisor watches the
  file's mtime and declares a worker ``Lost`` once a previously observed
  heartbeat goes stale for longer than
  :attr:`DispatchPolicy.heartbeat_timeout` — a planner that stopped making
  progress is killed instead of blocking the sweep forever.
* **Retry with backoff.**  A ``Failed``/``TimedOut``/``Lost`` shard is
  requeued as a *new* attempt (state machines are per attempt, so
  transitions stay monotonic) after an exponential, deterministically
  jittered delay (:meth:`DispatchPolicy.backoff_delay`), up to
  :attr:`DispatchPolicy.max_retries` retries.
* **Resume, not discard.**  Retry attempts pass ``--resume``: the partial
  shard store a killed attempt committed is picked up where it stopped, and
  the idempotent :meth:`SweepDatabase.merge_all
  <repro.runner.db.SweepDatabase.merge_all>` keeps the byte-identical merge
  invariant intact across every retry path.  A shard store that no longer
  validates (torn beyond sqlite's own crash safety) is renamed to a
  clearly-labelled ``*.corrupt-attempt<n>`` file and the attempt starts
  fresh.

The supervisor never raises for worker failures — it returns one
:class:`ShardOutcome` per plan (with the full per-attempt history) and the
calling orchestrator decides how to report them
(:func:`failure_detail` builds the diagnosable message: exit code, last
heartbeat age, log tail).

Every worker is a local subprocess.  A *launcher* maps ``(argv, env)`` to
the command actually spawned; the default, :func:`local_launcher`, runs the
worker's own command line, and tests put a fake command in its place.  The
heartbeat environment lives in :mod:`repro.runner.launch` (and is
re-exported here), so workers use it without importing this module.
"""

from __future__ import annotations

import contextlib
import enum
import os
import random
import signal
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.errors import ConfigurationError, OrchestrationError
from repro.runner.atomic import atomic_write_text
from repro.runner.launch import ATTEMPT_ENV, HEARTBEAT_ENV, SHARD_ENV, beat_heartbeat

if TYPE_CHECKING:  # imported lazily at runtime (backends imports this module)
    from repro.runner.backends import WorkerPlan

__all__ = [
    "ATTEMPT_ENV",
    "AttemptRecord",
    "DispatchPolicy",
    "HEARTBEAT_ENV",
    "Launcher",
    "SHARD_ENV",
    "ShardOutcome",
    "WorkerState",
    "WorkerSupervisor",
    "WORKER_TRANSITIONS",
    "beat_heartbeat",
    "failure_detail",
    "local_launcher",
    "log_tail",
]


#: A launcher maps ``(argv, dispatch_env)`` to the command to spawn.
Launcher = Callable[[Sequence[str], Mapping[str, str]], "list[str]"]


def local_launcher(argv: Sequence[str], env: Mapping[str, str]) -> list[str]:
    """Run the worker's own command line (``env`` rides via Popen)."""
    return list(argv)


class WorkerState(enum.Enum):
    """Lifecycle of one worker *attempt* (see the module diagram).

    States only ever move forward (:data:`WORKER_TRANSITIONS`); a retried
    shard gets a fresh attempt with a fresh state machine instead of
    rewinding this one.  Lifecycle changes happen only inside this module:
    ``_Attempt`` advances through :data:`WORKER_TRANSITIONS`, and the
    records it hands out are frozen.
    """

    NOT_READY = "NotReady"
    READY = "Ready"
    RUNNING = "Running"
    FINISHED = "Finished"
    FAILED = "Failed"
    TIMED_OUT = "TimedOut"
    LOST = "Lost"

    @property
    def is_terminal(self) -> bool:
        """Whether the attempt has ended (no further transitions)."""
        return not WORKER_TRANSITIONS[self]

    @property
    def is_success(self) -> bool:
        """Whether the attempt completed its shard."""
        return self is WorkerState.FINISHED


#: The legal (monotonic) state transitions.  ``Ready`` may end without ever
#: reaching ``Running``: a worker that exits before its first heartbeat is
#: observed (fast shards, or a command that never beats) finishes directly.
WORKER_TRANSITIONS: dict[WorkerState, frozenset[WorkerState]] = {
    WorkerState.NOT_READY: frozenset({WorkerState.READY}),
    WorkerState.READY: frozenset(
        {
            WorkerState.RUNNING,
            WorkerState.FINISHED,
            WorkerState.FAILED,
            WorkerState.TIMED_OUT,
            WorkerState.LOST,
        }
    ),
    WorkerState.RUNNING: frozenset(
        {
            WorkerState.FINISHED,
            WorkerState.FAILED,
            WorkerState.TIMED_OUT,
            WorkerState.LOST,
        }
    ),
    WorkerState.FINISHED: frozenset(),
    WorkerState.FAILED: frozenset(),
    WorkerState.TIMED_OUT: frozenset(),
    WorkerState.LOST: frozenset(),
}


@dataclass(frozen=True)
class DispatchPolicy:
    """Retry and heartbeat parameters of one dispatch.

    Attributes:
        max_retries: additional attempts a failed/timed-out/lost shard may
            get (0 = fail on the first bad attempt, the historical
            behaviour).
        retry_backoff: base delay in seconds before the first retry; each
            further retry doubles it.
        backoff_jitter: fractional jitter added to each backoff delay,
            derived from a deterministically seeded RNG so reruns schedule
            identically.
        heartbeat_timeout: seconds after the last observed heartbeat before
            a worker is declared ``Lost`` and killed.  Staleness only
            applies once a first beat was seen — a command that never beats
            (e.g. a test's fake command) is governed solely by
            ``attempt_timeout``.
        attempt_timeout: wall-clock budget per attempt; an attempt still
            running after this long is killed and marked ``TimedOut``
            (``None`` waits forever).
        poll_interval: seconds between supervisor liveness polls.

    Raises:
        ConfigurationError: for negative or non-sensical parameters.
    """

    max_retries: int = 0
    retry_backoff: float = 0.5
    backoff_jitter: float = 0.25
    heartbeat_timeout: float = 30.0
    attempt_timeout: float | None = None
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ConfigurationError("retry_backoff must be >= 0 seconds")
        if not 0 <= self.backoff_jitter <= 1:
            raise ConfigurationError("backoff_jitter must be within [0, 1]")
        if self.heartbeat_timeout <= 0:
            raise ConfigurationError("heartbeat_timeout must be > 0 seconds")
        if self.attempt_timeout is not None and self.attempt_timeout <= 0:
            raise ConfigurationError("attempt_timeout must be > 0 seconds (or None)")
        if self.poll_interval <= 0:
            raise ConfigurationError("poll_interval must be > 0 seconds")

    def backoff_delay(self, shard_index: int, attempt: int) -> float:
        """Delay before ``attempt`` (2-based: the first retry) of a shard.

        Exponential in the retry count with deterministic jitter: the RNG
        is seeded from ``(shard, attempt)``, so a re-run of the same
        dispatch schedules identically (lint rule RL001 holds) while
        distinct shards still decorrelate.
        """
        base = self.retry_backoff * (2 ** max(attempt - 2, 0))
        rng = random.Random(f"repro-dispatch:{shard_index}:{attempt}")
        return base * (1.0 + self.backoff_jitter * rng.random())


@dataclass(frozen=True)
class AttemptRecord:
    """One finished worker attempt (a row of the per-shard history).

    Attributes:
        shard_index: the shard this attempt executed.
        attempt: 1-based attempt number.
        state: the attempt's terminal :class:`WorkerState`.
        returncode: the process exit code (``None`` if it never spawned).
        duration: seconds from spawn to the terminal state.
        heartbeats: heartbeat updates the supervisor observed.
        last_heartbeat_age: seconds between the last observed beat and the
            attempt's end (``None`` when no beat was ever observed).
    """

    shard_index: int
    attempt: int
    state: WorkerState
    returncode: int | None
    duration: float
    heartbeats: int
    last_heartbeat_age: float | None

    def describe(self) -> str:
        """One-line human summary (what ``repro orchestrate`` prints)."""
        detail = f"{self.state.value} in {self.duration:.2f}s"
        if self.returncode not in (None, 0):
            detail += f", exit {self.returncode}"
        if self.last_heartbeat_age is not None and not self.state.is_success:
            detail += f", last heartbeat {self.last_heartbeat_age:.1f}s before the end"
        return detail


@dataclass(frozen=True)
class ShardOutcome:
    """Final dispatch result of one shard, with its full attempt history."""

    plan: "WorkerPlan"
    state: WorkerState
    returncode: int | None
    attempts: tuple[AttemptRecord, ...]

    @property
    def shard_index(self) -> int:
        """The shard's index within the grid partition."""
        return self.plan.shard_index

    @property
    def retries(self) -> int:
        """Attempts beyond the first."""
        return max(len(self.attempts) - 1, 0)

    @property
    def succeeded(self) -> bool:
        """Whether the shard eventually finished."""
        return self.state.is_success


def log_tail(path: Path, *, limit: int = 400) -> str:
    """The last ``limit`` characters of a worker log, flattened to one line."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace").strip()
    except OSError:
        return "(no log)"
    if not text:
        return "(empty log)"
    tail = text[-limit:]
    return " ".join(tail.split())


def failure_detail(outcome: ShardOutcome, *, attempt_timeout: float | None = None) -> str:
    """Diagnosable one-line description of a failed shard.

    Includes the exit code, the last heartbeat age and the log tail, so an
    orchestration error is actionable without opening log files.
    """
    plan = outcome.plan
    last = outcome.attempts[-1] if outcome.attempts else None
    if last is None or last.last_heartbeat_age is None:
        heartbeat = "no heartbeat observed"
    else:
        heartbeat = f"last heartbeat {last.last_heartbeat_age:.1f}s before the end"
    attempts = f"{len(outcome.attempts)} attempt(s)"
    tail = log_tail(plan.log_path)
    if outcome.state is WorkerState.TIMED_OUT:
        budget = f"{attempt_timeout:g}s" if attempt_timeout is not None else "its deadline"
        return (
            f"shard {plan.shard_index}/{plan.shard_count} still running after "
            f"{budget}; killed ({attempts}; {heartbeat}): {tail}"
        )
    if outcome.state is WorkerState.LOST:
        return (
            f"shard {plan.shard_index}/{plan.shard_count} declared lost — "
            f"heartbeat went stale; killed ({attempts}; {heartbeat}): {tail}"
        )
    return (
        f"shard {plan.shard_index}/{plan.shard_count} exited "
        f"{outcome.returncode} ({attempts}; {heartbeat}): {tail}"
    )


def _kill_group(process: subprocess.Popen) -> None:
    """Kill a worker's whole process group, then reap the worker.

    Workers start in their own session, so their group id is their pid and
    the group holds any child they spawned.
    """
    with contextlib.suppress(ProcessLookupError):
        os.killpg(process.pid, signal.SIGKILL)
    process.wait()


class _Attempt:
    """Mutable tracker of one live attempt — the state machine's single owner."""

    def __init__(self, plan: "WorkerPlan", number: int) -> None:
        self.plan = plan
        self.number = number
        self._state = WorkerState.NOT_READY
        self.process: subprocess.Popen | None = None
        self.log_file = None
        self.spawned_at = 0.0
        self.ended_at = 0.0
        self.heartbeats = 0
        self.last_beat_at: float | None = None
        self._beat_mtime: int | None = None

    @property
    def state(self) -> WorkerState:
        return self._state

    def advance(self, target: WorkerState) -> None:
        """Move the attempt to ``target``, enforcing monotonic transitions.

        Raises:
            OrchestrationError: for a transition outside
                :data:`WORKER_TRANSITIONS` (a supervisor bug, surfaced loudly
                instead of silently corrupting the attempt history).
        """
        if target not in WORKER_TRANSITIONS[self._state]:
            raise OrchestrationError(
                f"illegal worker state transition {self._state.value} -> "
                f"{target.value} for shard {self.plan.shard_index} "
                f"attempt {self.number}"
            )
        self._state = target

    def heartbeat_file(self) -> Path:
        path = self.plan.heartbeat_path
        if path is None:
            path = self.plan.log_path.with_suffix(".heartbeat")
        return path

    def observe_heartbeat(self, now: float) -> bool:
        """Poll the heartbeat file; returns whether a new beat was seen."""
        try:
            mtime = self.heartbeat_file().stat().st_mtime_ns
        except OSError:
            return False
        if mtime == self._beat_mtime:
            return False
        self._beat_mtime = mtime
        self.last_beat_at = now
        self.heartbeats += 1
        return True

    def snapshot_heartbeat(self) -> None:
        """Record the pre-spawn mtime so a stale file never counts as a beat."""
        try:
            self._beat_mtime = self.heartbeat_file().stat().st_mtime_ns
        except OSError:
            self._beat_mtime = None

    def record(self) -> AttemptRecord:
        """Freeze the attempt into its immutable history record."""
        return AttemptRecord(
            shard_index=self.plan.shard_index,
            attempt=self.number,
            state=self._state,
            returncode=self.process.returncode if self.process is not None else None,
            duration=max(self.ended_at - self.spawned_at, 0.0),
            heartbeats=self.heartbeats,
            last_heartbeat_age=(
                max(self.ended_at - self.last_beat_at, 0.0)
                if self.last_beat_at is not None
                else None
            ),
        )


@dataclass
class _Task:
    """One shard's dispatch bookkeeping across attempts."""

    plan: "WorkerPlan"
    attempts: list[AttemptRecord] = field(default_factory=list)
    ready_at: float = 0.0


class WorkerSupervisor:
    """Drives a set of worker plans to completion with retry.

    Each plan holds at most one live attempt, and every ready attempt is
    started at once: the plans are already capped at the backend's worker
    count, so there is no slot pool to wait for.

    Args:
        plans: the shard workers to run (see
            :meth:`ShardWorkerBackend.plan_workers
            <repro.runner.backends.ShardWorkerBackend.plan_workers>`).
        policy: retry/heartbeat parameters.
        launcher: maps ``(argv, dispatch_env)`` to the spawned command
            (default: the worker's own command line).
        base_env: environment for spawned workers (default: a copy of this
            process's, with the dispatch variables layered on top).

    Raises:
        ConfigurationError: for an empty plan list.
    """

    def __init__(
        self,
        plans: Sequence["WorkerPlan"],
        *,
        policy: DispatchPolicy | None = None,
        launcher: Launcher = local_launcher,
        base_env: Mapping[str, str] | None = None,
    ) -> None:
        if not plans:
            raise ConfigurationError("nothing to dispatch: the plan list is empty")
        self.plans = list(plans)
        self.policy = policy if policy is not None else DispatchPolicy()
        self.launcher = launcher
        self.base_env = dict(base_env) if base_env is not None else os.environ.copy()
        self._tasks: dict[int, _Task] = {}

    # ------------------------------------------------------------------
    # The supervision loop.
    # ------------------------------------------------------------------
    def run(self) -> list[ShardOutcome]:
        """Dispatch every plan; returns one outcome per plan, in plan order.

        Worker failures never raise — they are reported in the outcomes'
        terminal states and attempt histories.  Shard stores of permanently
        failed shards get a ``*.orphaned.txt`` label next to them so the
        workdir explains itself.
        """
        pending: list[_Task] = [_Task(plan) for plan in self.plans]
        active: list[_Attempt] = []
        self._tasks = {task.plan.shard_index: task for task in pending}
        outcomes: dict[int, ShardOutcome] = {}
        try:
            while pending or active:
                started = self._start_ready(pending, active, time.monotonic())
                settled = self._settle_terminal(pending, active, outcomes)
                if (pending or active) and not (started or settled):
                    time.sleep(self.policy.poll_interval)
        except BaseException:
            for attempt in active:
                if attempt.process is not None and attempt.process.poll() is None:
                    _kill_group(attempt.process)
                if attempt.log_file is not None:
                    attempt.log_file.close()
            raise
        self._cleanup_heartbeats()
        return [outcomes[plan.shard_index] for plan in self.plans]

    def _start_ready(self, pending: list[_Task], active: list[_Attempt], now: float) -> bool:
        """Spawn every queued task whose backoff elapsed."""
        ready = [task for task in pending if task.ready_at <= now]
        for task in ready:
            pending.remove(task)
            active.append(self._spawn(task))
        return bool(ready)

    def _settle_terminal(
        self,
        pending: list[_Task],
        active: list[_Attempt],
        outcomes: dict[int, ShardOutcome],
    ) -> bool:
        """Observe active attempts and settle the ones that ended."""
        settled = False
        for attempt in list(active):
            self._observe(attempt)
            if not attempt.state.is_terminal:
                continue
            settled = True
            active.remove(attempt)
            if attempt.log_file is not None:
                attempt.log_file.close()
                attempt.log_file = None
            record = attempt.record()
            task = self._tasks[attempt.plan.shard_index]
            task.attempts.append(record)
            if attempt.state.is_success:
                outcomes[record.shard_index] = self._outcome(task, record)
                continue
            if len(task.attempts) <= self.policy.max_retries:
                task.ready_at = time.monotonic() + self.policy.backoff_delay(
                    record.shard_index, len(task.attempts) + 1
                )
                pending.append(task)
            else:
                outcomes[record.shard_index] = self._outcome(task, record)
                self._label_orphan(task, record)
        return settled

    # ------------------------------------------------------------------
    # Spawning and observing attempts.
    # ------------------------------------------------------------------
    def _spawn(self, task: _Task) -> _Attempt:
        number = len(task.attempts) + 1
        attempt = _Attempt(task.plan, number)
        self._reset_corrupt_store(task.plan, number)
        argv = self._attempt_argv(task.plan, number)
        dispatch_env = {
            HEARTBEAT_ENV: str(attempt.heartbeat_file()),
            SHARD_ENV: str(task.plan.shard_index),
            ATTEMPT_ENV: str(number),
        }
        command = self.launcher(argv, dispatch_env)
        env = dict(self.base_env)
        env.update(dispatch_env)
        attempt.snapshot_heartbeat()
        # A live subprocess stream, not an artifact — atomic staging cannot
        # apply to a file written while the worker runs.  Append mode keeps
        # one log per shard across attempts.
        log_file = open(task.plan.log_path, "ab")  # repro-lint: disable=RL003
        log_file.write(f"=== attempt {number} ===\n".encode("utf-8"))
        log_file.flush()
        attempt.log_file = log_file
        attempt.process = subprocess.Popen(
            command,
            stdout=log_file,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=env,
            start_new_session=True,
        )
        attempt.spawned_at = time.monotonic()
        attempt.advance(WorkerState.READY)
        return attempt

    def _attempt_argv(self, plan: "WorkerPlan", number: int) -> list[str]:
        argv = list(plan.argv)
        if number > 1 and "--resume" not in argv:
            # Retries resume the partial shard store the previous attempt
            # committed instead of discarding it.
            argv.append("--resume")
        return argv

    def _observe(self, attempt: _Attempt) -> None:
        now = time.monotonic()
        if attempt.observe_heartbeat(now) and attempt.state is WorkerState.READY:
            attempt.advance(WorkerState.RUNNING)
        process = attempt.process
        assert process is not None  # set by _spawn before any observation
        returncode = process.poll()
        if returncode is not None:
            attempt.ended_at = now
            attempt.advance(
                WorkerState.FINISHED if returncode == 0 else WorkerState.FAILED
            )
            return
        timeout = self.policy.attempt_timeout
        if timeout is not None and now - attempt.spawned_at > timeout:
            _kill_group(process)
            attempt.ended_at = time.monotonic()
            attempt.advance(WorkerState.TIMED_OUT)
            return
        if (
            attempt.last_beat_at is not None
            and now - attempt.last_beat_at > self.policy.heartbeat_timeout
        ):
            _kill_group(process)
            attempt.ended_at = time.monotonic()
            attempt.advance(WorkerState.LOST)

    # ------------------------------------------------------------------
    # Outcomes and workdir hygiene.
    # ------------------------------------------------------------------
    @staticmethod
    def _outcome(task: _Task, last: AttemptRecord) -> ShardOutcome:
        return ShardOutcome(
            plan=task.plan,
            state=last.state,
            returncode=last.returncode,
            attempts=tuple(task.attempts),
        )

    def _reset_corrupt_store(self, plan: "WorkerPlan", number: int) -> None:
        """Set aside a shard store that no longer validates before retrying.

        A store sqlite itself refuses (torn beyond WAL crash safety) would
        fail the resumed attempt and the final merge; it is renamed to a
        clearly-labelled ``*.corrupt-attempt<n>`` file so the fresh attempt
        starts clean and the evidence stays inspectable.
        """
        from repro.errors import ResultStoreError
        from repro.runner.db import SweepDatabase

        if not plan.store_path.exists():
            return
        try:
            SweepDatabase.open_reader(plan.store_path).close()
        except ResultStoreError:
            label = f"{plan.store_path.name}.corrupt-attempt{number - 1}"
            with contextlib.suppress(OSError):
                os.replace(plan.store_path, plan.store_path.with_name(label))
            for suffix in ("-wal", "-shm"):
                sidecar = Path(f"{plan.store_path}{suffix}")
                with contextlib.suppress(OSError):
                    sidecar.unlink()

    def _label_orphan(self, task: _Task, last: AttemptRecord) -> None:
        """Label a permanently failed shard's store so the workdir explains itself."""
        plan = task.plan
        lines = [
            f"shard {plan.shard_index}/{plan.shard_count} failed permanently "
            f"({last.state.value} after {len(task.attempts)} attempt(s)).",
            f"store: {plan.store_path.name} (partial; resume with --resume "
            "once the cause is fixed)",
            f"log: {plan.log_path.name}",
            "attempts:",
        ]
        lines.extend(f"  {record.attempt}: {record.describe()}" for record in task.attempts)
        atomic_write_text(
            plan.store_path.with_name(plan.store_path.name + ".orphaned.txt"),
            "\n".join(lines) + "\n",
        )

    def _cleanup_heartbeats(self) -> None:
        for plan in self.plans:
            path = plan.heartbeat_path
            if path is None:
                path = plan.log_path.with_suffix(".heartbeat")
            with contextlib.suppress(OSError):
                path.unlink()

"""Tests of the fault-tolerant dispatch layer (state machine, heartbeats,
retry, the launcher seam) underneath the shard-worker backend."""

import dataclasses
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, OrchestrationError
from repro.runner.backends import WorkerPlan
from repro.runner.dispatch import (
    ATTEMPT_ENV,
    HEARTBEAT_ENV,
    SHARD_ENV,
    DispatchPolicy,
    WORKER_TRANSITIONS,
    AttemptRecord,
    ShardOutcome,
    WorkerState,
    WorkerSupervisor,
    _Attempt,
    beat_heartbeat,
    failure_detail,
    local_launcher,
    log_tail,
)


def make_plan(tmp_path, index=0, count=1, argv=("true",)):
    return WorkerPlan(
        shard_index=index,
        shard_count=count,
        spec_path=tmp_path / "spec.json",
        store_path=tmp_path / f"shard-{index}-of-{count}.db",
        log_path=tmp_path / f"shard-{index}.log",
        argv=tuple(argv),
        heartbeat_path=tmp_path / f"shard-{index}.heartbeat",
    )


def python_command(body):
    """A worker command running ``body`` (dedented) in this interpreter."""
    return (sys.executable, "-c", textwrap.dedent(body))


#: A fast supervision cadence so the retry tests stay subsecond.
FAST = dict(poll_interval=0.01, retry_backoff=0.01, backoff_jitter=0.0)


class TestStateMachine:
    def test_every_state_has_a_transition_row(self):
        assert set(WORKER_TRANSITIONS) == set(WorkerState)

    def test_terminal_states_have_no_successors(self):
        for state in (
            WorkerState.FINISHED,
            WorkerState.FAILED,
            WorkerState.TIMED_OUT,
            WorkerState.LOST,
        ):
            assert state.is_terminal
            assert not WORKER_TRANSITIONS[state]
        assert WorkerState.FINISHED.is_success
        assert not WorkerState.FAILED.is_success

    def test_live_states_are_not_terminal(self):
        for state in (WorkerState.NOT_READY, WorkerState.READY, WorkerState.RUNNING):
            assert not state.is_terminal

    def test_legal_walk(self, tmp_path):
        attempt = _Attempt(make_plan(tmp_path), 1)
        assert attempt.state is WorkerState.NOT_READY
        attempt.advance(WorkerState.READY)
        attempt.advance(WorkerState.RUNNING)
        attempt.advance(WorkerState.FINISHED)
        assert attempt.state.is_terminal

    def test_illegal_transition_raises(self, tmp_path):
        attempt = _Attempt(make_plan(tmp_path), 1)
        with pytest.raises(OrchestrationError, match="illegal worker state transition"):
            attempt.advance(WorkerState.RUNNING)  # skips Ready
        attempt.advance(WorkerState.READY)
        attempt.advance(WorkerState.FINISHED)
        with pytest.raises(OrchestrationError, match="Finished -> Running"):
            attempt.advance(WorkerState.RUNNING)  # terminal states are final

    def test_finished_records_refuse_a_state_assignment(self, tmp_path):
        """Outside the supervisor a worker's state can only be read: the
        attempt and shard records are frozen, so no caller can make a
        terminal worker look live again."""
        record = AttemptRecord(
            shard_index=0,
            attempt=1,
            state=WorkerState.FINISHED,
            returncode=0,
            duration=0.1,
            heartbeats=1,
            last_heartbeat_age=None,
        )
        outcome = ShardOutcome(
            plan=make_plan(tmp_path),
            state=WorkerState.FINISHED,
            returncode=0,
            attempts=(record,),
        )
        for frozen in (record, outcome):
            with pytest.raises(dataclasses.FrozenInstanceError):
                frozen.state = WorkerState.RUNNING
            assert frozen.state is WorkerState.FINISHED


class TestDispatchPolicy:
    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"max_retries": -1}, "max_retries"),
            ({"retry_backoff": -0.1}, "retry_backoff"),
            ({"backoff_jitter": 1.5}, "backoff_jitter"),
            ({"heartbeat_timeout": 0}, "heartbeat_timeout"),
            ({"attempt_timeout": 0}, "attempt_timeout"),
            ({"poll_interval": 0}, "poll_interval"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            DispatchPolicy(**kwargs)

    def test_backoff_is_deterministic(self):
        policy = DispatchPolicy(retry_backoff=0.5, backoff_jitter=0.25)
        assert policy.backoff_delay(0, 2) == policy.backoff_delay(0, 2)
        assert policy.backoff_delay(0, 2) != policy.backoff_delay(1, 2)

    def test_backoff_grows_exponentially_within_jitter(self):
        policy = DispatchPolicy(retry_backoff=1.0, backoff_jitter=0.25)
        for attempt, base in ((2, 1.0), (3, 2.0), (4, 4.0)):
            delay = policy.backoff_delay(7, attempt)
            assert base <= delay <= base * 1.25

    def test_zero_jitter_is_exact(self):
        policy = DispatchPolicy(retry_backoff=0.5, backoff_jitter=0.0)
        assert policy.backoff_delay(3, 2) == 0.5
        assert policy.backoff_delay(3, 3) == 1.0


class TestLaunchers:
    def test_local_launcher_passes_argv_through(self):
        argv = ["python", "-m", "repro.cli", "sweep"]
        assert local_launcher(argv, {"K": "V"}) == argv


class TestHeartbeat:
    def test_beat_is_a_noop_without_the_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(HEARTBEAT_ENV, raising=False)
        beat_heartbeat()  # must not raise or create anything
        assert list(tmp_path.iterdir()) == []

    def test_beat_touches_the_named_file(self, monkeypatch, tmp_path):
        target = tmp_path / "w.heartbeat"
        monkeypatch.setenv(HEARTBEAT_ENV, str(target))
        beat_heartbeat()
        assert target.exists()

    def test_failed_touch_is_swallowed(self, monkeypatch, tmp_path):
        monkeypatch.setenv(HEARTBEAT_ENV, str(tmp_path / "no" / "such" / "dir" / "f"))
        beat_heartbeat()  # the sweep must not die over a lost beat


class TestFailureDetail:
    def outcome(self, tmp_path, state, returncode):
        from repro.runner.dispatch import AttemptRecord, ShardOutcome

        plan = make_plan(tmp_path)
        record = AttemptRecord(
            shard_index=0,
            attempt=1,
            state=state,
            returncode=returncode,
            duration=0.5,
            heartbeats=2,
            last_heartbeat_age=1.25,
        )
        return ShardOutcome(plan=plan, state=state, returncode=returncode, attempts=(record,))

    def test_failed_message_includes_exit_code_and_heartbeat_age(self, tmp_path):
        (tmp_path / "shard-0.log").write_text("boom happened\n", encoding="utf-8")
        detail = failure_detail(self.outcome(tmp_path, WorkerState.FAILED, 3))
        assert "exited 3" in detail
        assert "last heartbeat 1.2s before the end" in detail
        assert "boom happened" in detail

    def test_timed_out_message_names_the_budget(self, tmp_path):
        detail = failure_detail(
            self.outcome(tmp_path, WorkerState.TIMED_OUT, None), attempt_timeout=2.5
        )
        assert "still running after 2.5s; killed" in detail

    def test_lost_message_names_the_stale_heartbeat(self, tmp_path):
        detail = failure_detail(self.outcome(tmp_path, WorkerState.LOST, None))
        assert "declared lost" in detail
        assert "heartbeat went stale" in detail

    def test_no_heartbeat_and_no_log(self, tmp_path):
        from repro.runner.dispatch import ShardOutcome

        outcome = ShardOutcome(
            plan=make_plan(tmp_path),
            state=WorkerState.FAILED,
            returncode=1,
            attempts=(),
        )
        detail = failure_detail(outcome)
        assert "no heartbeat observed" in detail
        assert "(no log)" in detail

    def test_log_tail_flattens_and_limits(self, tmp_path):
        log = tmp_path / "w.log"
        log.write_text("a\nb\n" + "x" * 500, encoding="utf-8")
        tail = log_tail(log, limit=10)
        assert tail == "x" * 10
        assert log_tail(tmp_path / "missing.log") == "(no log)"


class TestSupervisor:
    def test_rejects_empty_plans(self):
        with pytest.raises(ConfigurationError, match="plan list is empty"):
            WorkerSupervisor([])

    def test_successful_worker_finishes_with_one_attempt(self, tmp_path):
        plan = make_plan(tmp_path, argv=python_command("print('done')"))
        supervisor = WorkerSupervisor(
            [plan],
            policy=DispatchPolicy(**FAST),
        )
        (outcome,) = supervisor.run()
        assert outcome.state is WorkerState.FINISHED
        assert outcome.succeeded
        assert outcome.returncode == 0
        assert outcome.retries == 0
        assert [a.state for a in outcome.attempts] == [WorkerState.FINISHED]
        assert "done" in plan.log_path.read_text(encoding="utf-8")

    def test_failed_worker_retries_then_succeeds(self, tmp_path):
        marker = tmp_path / "second-attempt"
        body = f"""
            import pathlib, sys
            marker = pathlib.Path({str(marker)!r})
            if marker.exists():
                sys.stdout.write("recovered")
            else:
                marker.touch()
                raise SystemExit(3)
        """
        plan = make_plan(tmp_path, argv=python_command(body))
        supervisor = WorkerSupervisor(
            [plan],
            policy=DispatchPolicy(max_retries=2, **FAST),
        )
        (outcome,) = supervisor.run()
        assert outcome.state is WorkerState.FINISHED
        assert outcome.retries == 1
        assert [a.state for a in outcome.attempts] == [
            WorkerState.FAILED,
            WorkerState.FINISHED,
        ]
        assert outcome.attempts[0].returncode == 3
        log = plan.log_path.read_text(encoding="utf-8")
        assert "=== attempt 1 ===" in log
        assert "=== attempt 2 ===" in log

    def test_exhausted_retries_label_the_orphaned_store(self, tmp_path):
        plan = make_plan(tmp_path, argv=python_command("raise SystemExit(7)"))
        plan.store_path.write_bytes(b"partial shard bytes")
        supervisor = WorkerSupervisor(
            [plan],
            policy=DispatchPolicy(max_retries=1, **FAST),
        )
        (outcome,) = supervisor.run()
        assert outcome.state is WorkerState.FAILED
        assert not outcome.succeeded
        assert outcome.returncode == 7
        assert len(outcome.attempts) == 2
        label = plan.store_path.with_name(plan.store_path.name + ".orphaned.txt")
        text = label.read_text(encoding="utf-8")
        assert "failed permanently" in text
        assert "Failed" in text
        assert "attempts:" in text

    def test_hung_worker_times_out(self, tmp_path):
        plan = make_plan(tmp_path, argv=python_command("import time; time.sleep(60)"))
        supervisor = WorkerSupervisor(
            [plan],
            policy=DispatchPolicy(attempt_timeout=0.3, **FAST),
        )
        (outcome,) = supervisor.run()
        assert outcome.state is WorkerState.TIMED_OUT
        assert len(outcome.attempts) == 1

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_timed_out_worker_takes_its_child_down(self, tmp_path):
        """The kill reaches the worker's process group: a child the worker
        spawned is gone, or a zombie waiting for its reaper, soon after."""
        pid_file = tmp_path / "child.pid"
        script = 'sleep 30 & echo $! > "$1"; wait'
        plan = make_plan(tmp_path, argv=("sh", "-c", script, "sh", str(pid_file)))
        supervisor = WorkerSupervisor(
            [plan],
            policy=DispatchPolicy(attempt_timeout=0.5, **FAST),
        )
        (outcome,) = supervisor.run()
        assert outcome.state is WorkerState.TIMED_OUT
        stat = Path(f"/proc/{int(pid_file.read_text())}/stat")
        deadline = time.monotonic() + 5.0
        while True:
            try:
                state = stat.read_text().rpartition(")")[2].split()[0]
            except FileNotFoundError:
                break
            if state == "Z":
                break
            assert time.monotonic() < deadline, f"child still alive in state {state}"
            time.sleep(0.05)

    def test_stale_heartbeat_declares_the_worker_lost(self, tmp_path):
        body = f"""
            import os, pathlib, time
            pathlib.Path(os.environ[{HEARTBEAT_ENV!r}]).touch()
            time.sleep(60)
        """
        plan = make_plan(tmp_path, argv=python_command(body))
        supervisor = WorkerSupervisor(
            [plan],
            policy=DispatchPolicy(heartbeat_timeout=0.3, **FAST),
        )
        (outcome,) = supervisor.run()
        assert outcome.state is WorkerState.LOST
        assert outcome.attempts[0].heartbeats >= 1
        assert outcome.attempts[0].last_heartbeat_age is not None

    def test_worker_that_never_beats_is_not_declared_lost(self, tmp_path):
        """Staleness needs an observed beat: a command that never beats
        (here: not a repro worker) is governed by the attempt timeout only."""
        plan = make_plan(tmp_path, argv=python_command("import time; time.sleep(0.4)"))
        supervisor = WorkerSupervisor(
            [plan],
            policy=DispatchPolicy(heartbeat_timeout=0.05, **FAST),
        )
        (outcome,) = supervisor.run()
        assert outcome.state is WorkerState.FINISHED

    def test_every_plan_starts_at_once(self, tmp_path):
        """There is no slot pool: each worker waits for the other's marker,
        so the pair finishes only if both run at the same time."""
        body = """
            import pathlib, sys, time
            mine, theirs = (pathlib.Path(name) for name in sys.argv[1:])
            mine.touch()
            deadline = time.monotonic() + 10
            while not theirs.exists():
                if time.monotonic() > deadline:
                    raise SystemExit(5)
                time.sleep(0.01)
        """
        markers = [str(tmp_path / "ran-0"), str(tmp_path / "ran-1")]
        plans = [
            make_plan(
                tmp_path,
                index,
                2,
                argv=(*python_command(body), markers[index], markers[1 - index]),
            )
            for index in range(2)
        ]
        outcomes = WorkerSupervisor(plans, policy=DispatchPolicy(**FAST)).run()
        assert [outcome.state for outcome in outcomes] == [WorkerState.FINISHED] * 2

    def test_dispatch_env_reaches_the_worker(self, tmp_path):
        out_file = tmp_path / "env.txt"
        body = f"""
            import os, pathlib
            pathlib.Path({str(out_file)!r}).write_text(
                ",".join([os.environ[{SHARD_ENV!r}], os.environ[{ATTEMPT_ENV!r}]]),
                encoding="utf-8",
            )
        """
        plan = make_plan(tmp_path, argv=python_command(body))
        supervisor = WorkerSupervisor(
            [plan],
            policy=DispatchPolicy(**FAST),
        )
        (outcome,) = supervisor.run()
        assert outcome.state is WorkerState.FINISHED
        assert out_file.read_text(encoding="utf-8") == "0,1"

    def test_heartbeat_files_are_cleaned_up_on_success(self, tmp_path):
        body = f"""
            import os, pathlib
            pathlib.Path(os.environ[{HEARTBEAT_ENV!r}]).touch()
        """
        plan = make_plan(tmp_path, argv=python_command(body))
        supervisor = WorkerSupervisor(
            [plan],
            policy=DispatchPolicy(**FAST),
        )
        (outcome,) = supervisor.run()
        assert outcome.state is WorkerState.FINISHED
        assert not plan.heartbeat_path.exists()

    def test_retry_argv_appends_resume(self, tmp_path):
        plan = make_plan(tmp_path, argv=("python", "-m", "repro.cli", "sweep"))
        supervisor = WorkerSupervisor([plan])
        assert supervisor._attempt_argv(plan, 1) == list(plan.argv)
        assert supervisor._attempt_argv(plan, 2) == [*plan.argv, "--resume"]
        resumed = make_plan(tmp_path, argv=("repro", "--resume"))
        assert supervisor._attempt_argv(resumed, 3) == list(resumed.argv)

    def test_corrupt_store_is_quarantined_before_a_retry(self, tmp_path):
        plan = make_plan(tmp_path)
        plan.store_path.write_bytes(b"this is not a sqlite database at all")
        supervisor = WorkerSupervisor([plan])
        supervisor._reset_corrupt_store(plan, 2)
        assert not plan.store_path.exists()
        quarantined = plan.store_path.with_name(
            plan.store_path.name + ".corrupt-attempt1"
        )
        assert quarantined.read_bytes() == b"this is not a sqlite database at all"

"""Deterministic fault injection for exercising the dispatch layer.

Every failure transition of the worker state machine
(:mod:`repro.runner.dispatch`) must be testable in CI without real remote
hosts or real crashes.  This module injects faults into shard workers,
triggered purely by environment variables so the orchestrator under test
stays completely unmodified:

* ``REPRO_CHAOS`` holds a JSON list of fault specs, e.g.::

      [{"kind": "crash", "shard": 0, "attempt": 1, "after_points": 2}]

* each spec matches a worker by its dispatch coordinates
  (``REPRO_DISPATCH_SHARD`` / ``REPRO_DISPATCH_ATTEMPT``, exported by the
  supervisor); omitted coordinates match any worker.

Supported fault kinds:

``crash``
    hard-kill the worker process (``os._exit``) after ``after_points``
    planned points — simulates a machine dying mid-shard.  Exercises the
    ``Failed`` transition and the resume-on-retry path.
``hang``
    stop making progress (and stop heartbeating) after ``after_points``
    points — exercises the heartbeat staleness detector and the ``Lost``
    transition.
``slow-start``
    sleep ``delay`` seconds before the first point — exercises stragglers
    and attempt timeouts without violating any invariant.
``corrupt-exit``
    complete the shard normally but exit with ``exit_code`` — exercises
    the ``Failed`` transition where the shard store is actually complete,
    so the retry's resume run executes zero points.

Faults fire at most once per matching worker process and are fully
deterministic: the same spec against the same dispatch always injects the
same failure, which is what lets CI byte-compare a chaos-ridden
orchestration against a serial run.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "CHAOS_ENV",
    "FAULT_KINDS",
    "Fault",
    "active_faults",
    "chaos_enabled",
    "on_point_planned",
    "on_worker_start",
    "rewrite_exit_code",
]

#: Environment variable holding the JSON fault list.
CHAOS_ENV = "REPRO_CHAOS"

#: The supported fault kinds.
FAULT_KINDS = ("crash", "hang", "slow-start", "corrupt-exit")

_ALLOWED_KEYS = frozenset(
    {"kind", "shard", "attempt", "after_points", "exit_code", "delay"}
)


@dataclass(frozen=True)
class Fault:
    """One parsed fault spec.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        shard: shard index to match (``None`` matches any shard).
        attempt: 1-based attempt number to match (``None`` matches any).
        after_points: points to plan before ``crash``/``hang`` fire.
        exit_code: process exit code for ``crash``/``corrupt-exit``.
        delay: sleep seconds for ``slow-start``.
    """

    kind: str
    shard: int | None = None
    attempt: int | None = None
    after_points: int = 0
    exit_code: int = 70
    delay: float = 1.0

    def matches(self, shard: int | None, attempt: int | None) -> bool:
        """Whether this fault applies to the given dispatch coordinates."""
        if self.shard is not None and self.shard != shard:
            return False
        return self.attempt is None or self.attempt == attempt


def _parse_faults(raw: str) -> tuple[Fault, ...]:
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{CHAOS_ENV} is not valid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise ConfigurationError(f"{CHAOS_ENV} must be a JSON list of fault objects")
    faults = []
    for entry in payload:
        if not isinstance(entry, dict):
            raise ConfigurationError(f"{CHAOS_ENV} entries must be objects: {entry!r}")
        unknown = set(entry) - _ALLOWED_KEYS
        if unknown:
            names = ", ".join(sorted(unknown))
            raise ConfigurationError(f"unknown chaos fault key(s): {names}")
        kind = entry.get("kind")
        if kind not in FAULT_KINDS:
            known = ", ".join(FAULT_KINDS)
            raise ConfigurationError(
                f"unknown chaos fault kind {kind!r}; known kinds: {known}"
            )
        faults.append(
            Fault(
                kind=kind,
                shard=entry.get("shard"),
                attempt=entry.get("attempt"),
                after_points=int(entry.get("after_points", 0)),
                exit_code=int(entry.get("exit_code", 70)),
                delay=float(entry.get("delay", 1.0)),
            )
        )
    return tuple(faults)


def _coordinate(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{name} must be an integer, got {raw!r}") from exc


def chaos_enabled() -> bool:
    """Whether fault injection is configured for this process."""
    return bool(os.environ.get(CHAOS_ENV))


def active_faults() -> tuple[Fault, ...]:
    """The configured faults that match this process's dispatch coordinates."""
    raw = os.environ.get(CHAOS_ENV)
    if not raw:
        return ()
    from repro.runner.launch import ATTEMPT_ENV, SHARD_ENV

    shard = _coordinate(SHARD_ENV)
    attempt = _coordinate(ATTEMPT_ENV)
    return tuple(f for f in _parse_faults(raw) if f.matches(shard, attempt))


# Points planned by this worker process so far (``after_points`` bookkeeping).
_points_planned = 0


def on_worker_start() -> None:
    """Worker-entry hook: injects ``slow-start`` delays."""
    for fault in active_faults():
        if fault.kind == "slow-start":
            time.sleep(fault.delay)


def on_point_planned() -> None:
    """Per-point hook: injects ``crash`` and ``hang`` faults.

    Called after each planned point (and after its heartbeat), so
    ``after_points`` counts *completed* work — exactly what a resumed retry
    attempt will find committed in the shard store when the worker
    checkpoints each point.
    """
    global _points_planned
    _points_planned += 1
    for fault in active_faults():
        if fault.after_points > _points_planned:
            continue
        if fault.kind == "crash":
            # A real crash, not an exception: no cleanup, no atexit, the
            # store is left exactly as the last checkpoint committed it.
            os._exit(fault.exit_code)
        if fault.kind == "hang":
            # Stop making progress without exiting; the heartbeat goes
            # stale and the supervisor declares the worker Lost.
            while True:
                time.sleep(3600)


def rewrite_exit_code(code: int) -> int:
    """Worker-exit hook: injects ``corrupt-exit`` return codes."""
    for fault in active_faults():
        if fault.kind == "corrupt-exit":
            return fault.exit_code
    return code

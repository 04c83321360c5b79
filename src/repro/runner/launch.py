"""How dispatched workers are launched and how they report liveness.

The worker-facing half of :mod:`repro.runner.dispatch`: the launcher
registry (:data:`LAUNCHERS`, the ``--launcher`` choices) and the
environment contract between the supervisor and each worker it spawns
(:data:`HEARTBEAT_ENV`, :data:`SHARD_ENV`, :data:`ATTEMPT_ENV` and
:func:`beat_heartbeat`).  Every ``repro`` process needs these — the CLI
parser lists the launchers, and every planned point beats — while only an
orchestrating process needs the supervisor, so they live apart from it and
import nothing beyond the standard library's basics.
"""

from __future__ import annotations

import contextlib
import os
import shlex
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.errors import ConfigurationError

#: Environment variable naming the heartbeat file a worker must touch.
HEARTBEAT_ENV = "REPRO_HEARTBEAT_FILE"
#: Environment variable carrying the worker's shard index (also read by the
#: fault-injection harness, :mod:`repro.devtools.chaos`).
SHARD_ENV = "REPRO_DISPATCH_SHARD"
#: Environment variable carrying the attempt number (1-based).
ATTEMPT_ENV = "REPRO_DISPATCH_ATTEMPT"


def beat_heartbeat() -> None:
    """Touch the heartbeat file named by ``REPRO_HEARTBEAT_FILE``, if set.

    Called from the worker entry point (startup beat) and after every
    planned point (:meth:`repro.runner.backends.SerialBackend.execute`), so the
    beat tracks *progress*: a hung planner stops beating and the
    supervisor's staleness check catches it.  A no-op outside dispatched
    workers; a failed touch is deliberately ignored — losing a beat must
    never fail the sweep itself (the worst case is a spurious ``Lost``
    and a resumed retry).
    """
    raw = os.environ.get(HEARTBEAT_ENV)
    if not raw:
        return
    with contextlib.suppress(OSError):
        Path(raw).touch()


#: A launcher maps ``(host, argv, dispatch_env)`` to the command to spawn.
Launcher = Callable[[str, Sequence[str], Mapping[str, str]], "list[str]"]


def local_launcher(host: str, argv: Sequence[str], env: Mapping[str, str]) -> list[str]:
    """Run the worker as a plain local subprocess (``env`` rides via Popen)."""
    return list(argv)


def ssh_launcher(host: str, argv: Sequence[str], env: Mapping[str, str]) -> list[str]:
    """Wrap the worker command for non-interactive ssh to ``host``.

    The dispatch environment (heartbeat path, shard/attempt markers) is
    inlined with ``env K=V ...`` because ssh does not forward arbitrary
    variables.  Remote dispatch assumes the workdir lives on a filesystem
    shared with the orchestrator — the same assumption the merge step
    already makes about the shard stores.
    """
    remote = list(argv)
    if env:
        remote = ["env", *(f"{key}={value}" for key, value in sorted(env.items())), *remote]
    command = " ".join(shlex.quote(token) for token in remote)
    return ["ssh", "-o", "BatchMode=yes", host, command]


#: Pluggable launch strategies, keyed by name (``--launcher``).
LAUNCHERS: dict[str, Launcher] = {
    "local": local_launcher,
    "ssh": ssh_launcher,
}


def make_launcher(name: str) -> Launcher:
    """Resolve a launcher by registry name.

    Raises:
        ConfigurationError: for an unknown launcher name.
    """
    if name not in LAUNCHERS:
        known = ", ".join(sorted(LAUNCHERS))
        raise ConfigurationError(f"unknown launcher {name!r}; known launchers: {known}")
    return LAUNCHERS[name]

"""How dispatched workers report liveness.

The worker-facing half of :mod:`repro.runner.dispatch`: the environment
contract between the supervisor and each worker it spawns
(:data:`HEARTBEAT_ENV`, :data:`SHARD_ENV`, :data:`ATTEMPT_ENV` and
:func:`beat_heartbeat`).  Every ``repro`` process needs it — every planned
point beats — while only an orchestrating process needs the supervisor, so
it lives apart from it and imports nothing beyond the standard library's
basics.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

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

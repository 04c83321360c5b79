"""Exclusive reservation of NoC links and router local ports.

While a test runs, its stimulus and response routes are dedicated connections:
no other test may use any channel (or endpoint local port) of those routes.
:class:`LinkAllocator` keeps, for every resource, the time until which it is
held, and answers availability queries for the event-driven schedulers.

The schedulers only ever start jobs at the current event time and hold
resources for the whole job, so a simple "busy until" map is sufficient — no
interval trees are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.noc.links import Link


@dataclass
class LinkAllocator:
    """Busy-until bookkeeping for exclusive NoC resources.

    Per-candidate availability is memoised: the schedulers probe the same
    resource tuples (one per candidate job) at every event, so the allocator
    keeps, per probed tuple, the max busy-until it last computed.  Because
    reservations only ever push busy-until times *forward* (resources are
    held to the end of their job, never released early), a cached bound in
    the future proves the tuple is still busy without rescanning it; a bound
    at or before ``now`` is merely stale and triggers an exact rescan.  The
    answers are therefore identical to the uncached scan.
    """

    _busy_until: dict[Link, float] = field(default_factory=dict)
    _holder: dict[Link, str] = field(default_factory=dict)
    _bounds: dict[tuple[Link, ...], float] = field(default_factory=dict, repr=False)

    def is_free(self, resources: tuple[Link, ...], now: float) -> bool:
        """True when every resource in ``resources`` is free at time ``now``."""
        bound = self._bounds.get(resources)
        if bound is not None and bound > now:
            # busy-until only grows, so the true bound is >= the cached one:
            # the tuple is definitely still busy.
            return False
        return self._scan(resources) <= now

    def earliest_free(self, resources: tuple[Link, ...]) -> float:
        """Earliest time at which all of ``resources`` are simultaneously free.

        This is a lower bound: a resource released at that time could be
        re-acquired by another job first, so callers must re-check with
        :meth:`is_free` at the actual decision instant.
        """
        return self._scan(resources)

    def _scan(self, resources: tuple[Link, ...]) -> float:
        """Exact max busy-until over ``resources``; refreshes the cached bound."""
        busy_until = self._busy_until
        bound = 0.0
        for resource in resources:
            held = busy_until.get(resource, 0.0)
            if held > bound:
                bound = held
        self._bounds[resources] = bound
        return bound

    def reserve(
        self, job_id: str, resources: tuple[Link, ...], now: float, until: float
    ) -> None:
        """Hold ``resources`` for ``job_id`` from ``now`` until ``until``.

        Raises:
            SchedulingError: if any resource is still held by another job —
                this indicates a bug in the calling scheduler, not a user
                error, so it is loud on purpose.
        """
        if until < now:
            raise SchedulingError("reservation end must not precede its start")
        for resource in resources:
            if self._busy_until.get(resource, 0.0) > now:
                raise SchedulingError(
                    f"resource {resource} is still held by "
                    f"{self._holder.get(resource, 'unknown')!r} at time {now}, "
                    f"cannot reserve it for {job_id!r}"
                )
        for resource in resources:
            self._busy_until[resource] = until
            self._holder[resource] = job_id
        # The reserved tuple's own bound is exactly `until` now (set only
        # after validation: a failed reservation must not raise a bound).
        self._bounds[resources] = until

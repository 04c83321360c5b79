"""Exclusive reservation of NoC links and router local ports.

While a test runs, its stimulus and response routes are dedicated connections:
no other test may use any channel (or endpoint local port) of those routes.
:class:`LinkAllocator` answers the event-driven schedulers' availability
queries over resource masks: every job carries its resources as an integer
with one bit per resource (``TestJob.mask``, numbered by
:func:`repro.noc.links.resource_bit`), so "are this job's links free?" is a
single AND against the bits currently held.

The schedulers only ever start jobs at the current event time and hold
resources for the whole job, so the allocator keeps just the live
reservations and the union of their masks — no per-link map, no interval
trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import SchedulingError


@dataclass
class LinkAllocator:
    """Live reservations of exclusive NoC resources, as resource masks.

    ``_live`` holds one ``(end, mask, job id)`` per reservation not yet
    expired and ``_held`` the union of their masks; :meth:`reserve` refuses
    a mask that meets ``_held``, so live masks are disjoint.  A resource held
    until ``end`` is free at ``end``: a reservation expires once a query's
    time reaches its end.  Expiry runs only when that time has reached the
    earliest live end (``_next_end``), so most queries are one AND.  Query
    times must not go back, as the schedulers' event time never does.

    A zero-cycle reservation ends at its own start, so it sets no bits: a
    later job may take its links at the same instant.  Nothing is released
    when the event loop retires a finished job; expiry by end time is the
    only release, which keeps the answers those of a per-resource
    "busy until" map.
    """

    _held: int = 0
    _live: list[tuple[float, int, str]] = field(default_factory=list)
    _next_end: float = math.inf

    def is_free(self, mask: int, now: float) -> bool:
        """True when every resource in ``mask`` is free at time ``now``."""
        if now >= self._next_end:
            self._expire(now)
        return not mask & self._held

    def earliest_free(self, mask: int) -> float:
        """Earliest time at which all of ``mask``'s resources are free.

        The latest end among the live reservations that meet ``mask``, or
        ``0.0``; a reservation that has ended but not yet expired may give a
        time at or before the last query's.  This is a lower bound: a
        resource released at that time could be re-acquired by another job
        first, so callers must re-check with :meth:`is_free` at the actual
        decision instant.
        """
        bound = 0.0
        for end, held, _ in self._live:
            if held & mask and end > bound:
                bound = end
        return bound

    def reserve(self, job_id: str, mask: int, now: float, until: float) -> None:
        """Hold ``mask``'s resources for ``job_id`` from ``now`` until ``until``.

        Raises:
            SchedulingError: if any resource is still held by another job —
                this indicates a bug in the calling scheduler, not a user
                error, so it is loud on purpose.
        """
        if until < now:
            raise SchedulingError("reservation end must not precede its start")
        if now >= self._next_end:
            self._expire(now)
        conflict = mask & self._held
        if conflict:
            holder = next(job for _, held, job in self._live if held & conflict)
            raise SchedulingError(
                f"resource bits {conflict:#x} are still held by {holder!r} at time "
                f"{now}, cannot reserve them for {job_id!r}"
            )
        if until > now:
            self._live.append((until, mask, job_id))
            self._held |= mask
            if until < self._next_end:
                self._next_end = until

    def _expire(self, now: float) -> None:
        """Drop the reservations that end at or before ``now``."""
        live = [reservation for reservation in self._live if reservation[0] > now]
        held = 0
        for _, mask, _ in live:
            held |= mask
        self._live = live
        self._held = held
        self._next_end = min((end for end, _, _ in live), default=math.inf)

"""Circuit-switched NoC simulator.

The scheduler treats a core test as a long-lived transfer that holds the
links of its source→CUT and CUT→sink routes for its whole duration.  This
module provides a small discrete-event simulator with exactly those semantics
so the analytic schedule can be cross-validated:

* a :class:`TransferRequest` asks for a set of exclusive resources (links and
  local ports) for a given number of cycles, not before a release time;
* the simulator grants requests in a deterministic priority order whenever all
  requested resources are free, holds them for the duration and releases them;
* the output is a :class:`TransferRecord` per request with actual start and
  end times.

Feeding the simulator the same transfers that a schedule contains, with the
schedule's start times as release times, must reproduce the schedule exactly
(no transfer can start late), which is what the integration tests assert.
Feeding it the transfers with release time 0 gives an independent lower bound
on how much the path conflicts alone constrain parallelism.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.noc.links import Link


@dataclass(frozen=True)
class TransferRequest:
    """A request to hold a set of NoC resources for a fixed duration.

    Attributes:
        name: identifier of the transfer (e.g. the core identifier).
        resources: exclusive resources (directed links, local ports) needed.
        duration: number of cycles the resources are held once granted.
        release_time: earliest cycle at which the transfer may start.
        priority: tie-break priority; lower values are granted first.
    """

    name: str
    resources: tuple[Link, ...]
    duration: int
    release_time: int = 0
    priority: int = 0

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ConfigurationError("transfer duration must be non-negative")
        if self.release_time < 0:
            raise ConfigurationError("release time must be non-negative")


@dataclass(frozen=True)
class TransferRecord:
    """The simulated outcome of one transfer request."""

    name: str
    start: int
    end: int

    @property
    def duration(self) -> int:
        """Number of cycles the transfer held its resources."""
        return self.end - self.start


class CircuitSwitchedSimulator:
    """Discrete-event simulation of exclusive-path transfers."""

    def __init__(self) -> None:
        self._requests: list[TransferRequest] = []

    def add(self, request: TransferRequest) -> None:
        """Queue a transfer request for simulation."""
        self._requests.append(request)

    def add_all(self, requests: list[TransferRequest]) -> None:
        """Queue several transfer requests."""
        self._requests.extend(requests)

    def run(self) -> list[TransferRecord]:
        """Simulate all queued transfers and return their records.

        Grant policy: at every decision instant, waiting transfers whose
        release time has passed are examined in (priority, release_time, name)
        order; each is granted if *all* its resources are currently free.
        This is the same first-fit policy the greedy scheduler uses, so a
        feasible schedule replays without delays.

        A grant only moves a free resource's ``busy_until`` to ``now`` or
        later, so one pass per instant suffices, and a blocked transfer is not
        re-examined before the cycle its blocking resource frees up.
        """
        order = sorted(self._requests, key=lambda r: (r.priority, r.release_time, r.name))
        waiting = [(request.release_time, request) for request in order]
        busy_until: dict[Link, int] = {}
        records: list[TransferRecord] = []

        # Event times at which the resource picture can change.
        event_heap = sorted({request.release_time for request in self._requests})

        while waiting:
            if not event_heap:
                raise ConfigurationError(
                    "simulation deadlock: transfers remain but no future events exist"
                )
            now = heapq.heappop(event_heap)
            # Skip duplicate event times.
            while event_heap and event_heap[0] == now:
                heapq.heappop(event_heap)

            blocked = []
            for entry in waiting:
                not_before, request = entry
                if not_before > now:
                    blocked.append(entry)
                    continue
                for resource in request.resources:
                    free_at = busy_until.get(resource, 0)
                    if free_at > now:
                        blocked.append((free_at, request))
                        break
                else:
                    end = now + request.duration
                    for resource in request.resources:
                        busy_until[resource] = end
                    records.append(TransferRecord(name=request.name, start=now, end=end))
                    heapq.heappush(event_heap, end)
            waiting = blocked

        return sorted(records, key=lambda record: (record.start, record.name))

    def reset(self) -> None:
        """Discard all queued requests."""
        self._requests.clear()

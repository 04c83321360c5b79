"""Reference model of :meth:`CircuitSwitchedSimulator.run`.

The straightforward grant loop, kept as a test oracle: at every event
instant it rescans *every* request (granted ones included) and repeats the
scan until a pass grants nothing.  The library's one-pass loop must return
exactly the same record list.
"""

from __future__ import annotations

import heapq

from repro.errors import ConfigurationError
from repro.noc.links import Link
from repro.noc.simulator import TransferRecord, TransferRequest


def reference_run(requests: list[TransferRequest]) -> list[TransferRecord]:
    """Simulate ``requests`` with the multi-pass grant loop."""
    pending = sorted(requests, key=lambda r: (r.priority, r.release_time, r.name))
    busy_until: dict[Link, int] = {}
    records: dict[str, TransferRecord] = {}

    event_heap = sorted({request.release_time for request in pending})
    granted: set[int] = set()

    while len(records) < len(pending):
        if not event_heap:
            raise ConfigurationError(
                "simulation deadlock: transfers remain but no future events exist"
            )
        now = heapq.heappop(event_heap)
        while event_heap and event_heap[0] == now:
            heapq.heappop(event_heap)

        progress = True
        while progress:
            progress = False
            for index, request in enumerate(pending):
                if index in granted or request.release_time > now:
                    continue
                if all(busy_until.get(resource, 0) <= now for resource in request.resources):
                    end = now + request.duration
                    for resource in request.resources:
                        busy_until[resource] = end
                    records[request.name + f"#{index}"] = TransferRecord(
                        name=request.name, start=now, end=end
                    )
                    granted.add(index)
                    heapq.heappush(event_heap, end)
                    progress = True

    return sorted(records.values(), key=lambda record: (record.start, record.name))

"""The look-ahead scheduler variant the paper suggests for p22810.

The paper itself points out the weakness of its greedy policy: "if a processor
is available in a given instant and an external tester is available a few
instants later, the resource used will be the processor [...]  However, the
external tester should be used because it is faster than the processor."  The
:class:`FastestCompletionScheduler` below repairs exactly that decision — for
every core it estimates the completion time on every interface (including
interfaces that are currently busy) and only starts the test when the
best-completing interface is actually the one at hand.  Comparing the two
policies on p22810 reproduces (and explains) the irregular bars of Figure 1.

The best interface of each pending core is memoised for the whole plan.  An
estimate ``max(now, available, links free) + duration`` only grows: a start
pushes its interface's busy-until time forward and holds its links to its
end, and time moves forward.  So a memoised best stays the best unless its own estimate
may have grown, and the memo drops an entry only then:

* on a start, when the entry's best interface is the started one or its
  job's resource mask meets the started job's (they share a link or port);
* on a new event, when the entry's ``ready = max(available, links free)`` is
  before the new ``now`` (the estimate has become ``now + duration``);
* all entries, when a processor interface is enabled (a new candidate).

While searching for a best, an interface whose estimate without the link
query, ``max(now, available) + duration``, is already no better than the
best so far is skipped: the allocator's ``earliest_free`` could only raise
it.  Links are queried by the jobs' resource masks (``TestJob.mask``), so the
query walks the few live reservations, not the job's links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cores.core import CoreUnderTest
from repro.schedule.greedy import EventDrivenScheduler
from repro.schedule.job import JobRow, TestJob
from repro.schedule.pathalloc import LinkAllocator
from repro.schedule.power import PowerTracker
from repro.tam.interfaces import TestInterface
from repro.tam.pool import NEVER, InterfaceState, ResourcePool

#: A core's best interface: its ``(completion, interface id)`` key, its
#: ``ready`` time and its job; ``None`` when no enabled interface can test it.
_Best = tuple[tuple[float, str], float, TestJob]


@dataclass
class _FastestCompletionMemo:
    """One plan's memoised best interface per pending core.

    ``enabled`` pairs each enabled interface (registration order) with its
    job row; ``available_now`` holds the ids available at ``event``, minus
    the interfaces started since.
    """

    event: int | None = None
    enabled: list[tuple[InterfaceState, JobRow]] = field(default_factory=list)
    available_now: set[str] = field(default_factory=set)
    best: dict[str, _Best | None] = field(default_factory=dict)


class FastestCompletionScheduler(EventDrivenScheduler):
    """Assign each core to the interface that completes its test earliest.

    For the highest-priority pending core the scheduler estimates, for every
    interface that is already enabled (or whose processor test is at least
    scheduled), the earliest completion time ``max(now, available, links free)
    + duration``.  The core is only started now if the interface minimising
    that estimate is available now; otherwise the core waits — deliberately
    leaving an interface idle when a faster one frees up soon, which is the
    look-ahead the paper says its greedy tool lacks.

    Lower-priority cores may still fill the idle interface if their own best
    choice is available, so the policy does not waste resources globally.
    """

    name = "fastest-completion"

    def selection_memo(self) -> _FastestCompletionMemo:
        return _FastestCompletionMemo()

    def select_assignment(
        self,
        now: int,
        event: int,
        pending: list[CoreUnderTest],
        pool: ResourcePool,
        allocator: LinkAllocator,
        tracker: PowerTracker,
        jobs: dict[str, JobRow],
        memo: _FastestCompletionMemo,
    ) -> tuple[CoreUnderTest, TestInterface] | None:
        if memo.event != event:
            self._begin_event(now, event, pool, jobs, memo)
        available_now = memo.available_now
        if not available_now:
            return None

        best = memo.best
        for core in pending:
            core_id = core.identifier
            if core_id in best:
                entry = best[core_id]
            else:
                entry = best[core_id] = self._best_interface(
                    now, core_id, memo.enabled, allocator
                )
            if entry is None:
                continue
            (_, best_interface_id), _, job = entry
            if best_interface_id not in available_now:
                # The best interface is busy right now: wait for it instead of
                # settling for a slower one (the anti-greedy decision).
                continue
            if not allocator.is_free(job.mask, now):
                continue
            if not tracker.can_start(job.core_id, job.power):
                continue
            self._note_start(core_id, job, memo)
            return core, pool.state(best_interface_id).interface
        return None

    @staticmethod
    def _begin_event(
        now: int,
        event: int,
        pool: ResourcePool,
        jobs: dict[str, JobRow],
        memo: _FastestCompletionMemo,
    ) -> None:
        memo.event = event
        memo.available_now = {state.identifier for state in pool.available(now)}
        enabled = [state for state in pool if state.enabled_at != NEVER]
        if len(enabled) != len(memo.enabled):
            memo.enabled = [(state, jobs[state.identifier]) for state in enabled]
            memo.best.clear()
        else:
            memo.best = {
                core_id: entry
                for core_id, entry in memo.best.items()
                if entry is None or entry[1] >= now
            }

    @staticmethod
    def _best_interface(
        now: int,
        core_id: str,
        enabled: list[tuple[InterfaceState, JobRow]],
        allocator: LinkAllocator,
    ) -> _Best | None:
        fnow = float(now)
        best: _Best | None = None
        for state, row in enabled:
            job = row[core_id]
            if job is None:
                continue
            available_at = state.available_at()
            identifier = state.identifier
            if best is not None and (
                max(fnow, available_at) + job.duration,
                identifier,
            ) >= best[0]:
                continue  # the link query could only raise this estimate
            ready = max(available_at, allocator.earliest_free(job.mask))
            key = (max(fnow, ready) + job.duration, identifier)
            if best is None or key < best[0]:
                best = (key, ready, job)
        return best

    @staticmethod
    def _note_start(core_id: str, job: TestJob, memo: _FastestCompletionMemo) -> None:
        """Drop the entries whose estimate the start of ``job`` may raise."""
        best = memo.best
        del best[core_id]
        if job.duration:
            memo.available_now.discard(job.interface_id)
        stale = [
            other
            for other, entry in best.items()
            if entry is not None
            and (entry[2].interface_id == job.interface_id or entry[2].mask & job.mask)
        ]
        for other in stale:
            del best[other]

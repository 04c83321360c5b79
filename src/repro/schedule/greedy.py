"""Event-driven test schedulers, including the paper's greedy policy.

The paper's scheduler is greedy: whenever a test interface is (or becomes)
available, it immediately receives the highest-priority core that can start —
"the greedy behavior of the presented algorithm forces it to select the first
test interface available", even when a faster interface would become free a
few cycles later.

:class:`EventDrivenScheduler` implements the shared machinery (event loop,
resource/power bookkeeping, processor enablement, schedule assembly) and
delegates the actual pairing decision to :meth:`select_assignment`, so the
paper's policy (:class:`GreedyScheduler`) and the look-ahead variant
(:class:`~repro.schedule.variants.FastestCompletionScheduler`) share every
other line of code.  Both order the cores by the paper's
:func:`~repro.schedule.priority.distance_priority`.

Each plan hands the policy a fresh memo (:meth:`selection_memo`), so a policy
can skip the checks whose inputs have not changed.  Within one event a start
only adds link reservations and power and takes its interface out of the
available list, so a check that failed earlier in the event still fails.
:class:`GreedyScheduler` therefore makes one pass over the available
interfaces per event: its memo keeps the list and a cursor, and an
interface whose scan found no startable core is never scanned again in that
event.  A test of zero cycles leaves its interface available at the same
instant; the pass then starts over, as a loop without a memo would.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Sequence

from repro.cores.core import CoreUnderTest
from repro.errors import PowerBudgetError, SchedulingError
from repro.noc.network import Network
from repro.schedule.job import JobRow, job_rows
from repro.schedule.pathalloc import LinkAllocator
from repro.schedule.power import PowerConstraint, PowerTracker
from repro.schedule.priority import distance_priority, priority_order
from repro.schedule.result import Assignment, ScheduleResult
from repro.tam.interfaces import TestInterface
from repro.tam.pool import InterfaceState, ResourcePool


@dataclass
class _ActiveTest:
    """A test currently occupying resources inside the event loop."""

    assignment: Assignment
    core: CoreUnderTest


class EventDrivenScheduler:
    """Shared event loop of all schedulers in this package."""

    #: Human readable policy name recorded in the produced schedules.
    name = "event-driven"

    # ------------------------------------------------------------------
    # Policy hooks.
    # ------------------------------------------------------------------
    def selection_memo(self) -> object:
        """A fresh memo for one plan's :meth:`select_assignment` calls.

        The memo lives in :meth:`schedule`'s frame, never on the scheduler,
        so one scheduler may plan on several threads at once.
        """
        raise NotImplementedError

    def select_assignment(
        self,
        now: int,
        event: int,
        pending: list[CoreUnderTest],
        pool: ResourcePool,
        allocator: LinkAllocator,
        tracker: PowerTracker,
        jobs: dict[str, JobRow],
        memo,
    ) -> tuple[CoreUnderTest, TestInterface] | None:
        """Return the next (core, interface) pair to start at ``now``.

        Subclasses implement the scheduling policy here.  Returning ``None``
        means nothing more can start at this instant; the loop then advances
        time to the next event.  The loop starts every returned pair at
        ``now``, so the policy may update ``memo`` for that start before it
        returns.

        Args:
            now: the current cycle.
            event: the loop's event count.  Two events may share a cycle
                (a zero-cycle test finishes at the instant it started), and
                a finish may enable processor interfaces, so a memo keys on
                the event, not on ``now``.
            pending: untested cores in priority order.
            pool: interface availability.
            allocator: NoC link reservations.
            tracker: the running tests' power.
            jobs: the plan's job row of each interface, by interface id.
            memo: this plan's :meth:`selection_memo`.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Event loop.
    # ------------------------------------------------------------------
    def schedule(
        self,
        *,
        system_name: str,
        cores: Sequence[CoreUnderTest],
        interfaces: Sequence[TestInterface],
        network: Network,
        power_constraint: PowerConstraint | None = None,
        metadata: dict[str, object] | None = None,
    ) -> ScheduleResult:
        """Produce a complete test plan for ``cores`` using ``interfaces``.

        Args:
            system_name: recorded in the result for reporting.
            cores: every core that must be tested (processor cores included).
            interfaces: the test interfaces offered to the scheduler; processor
                interfaces must reference cores present in ``cores``.
            network: the configured NoC.
            power_constraint: optional power ceiling; defaults to
                unconstrained.
            metadata: free-form information copied into the result.

        Raises:
            SchedulingError: when no feasible plan exists (e.g. a processor
                interface references a missing core).
            PowerBudgetError: when a core test alone exceeds the power ceiling.
        """
        power_constraint = power_constraint or PowerConstraint.unconstrained()
        self._check_inputs(cores, interfaces)

        pool = ResourcePool(interfaces)
        allocator = LinkAllocator()
        tracker = PowerTracker(power_constraint)
        jobs = job_rows(cores, interfaces, network)
        memo = self.selection_memo()

        key = distance_priority(cores, interfaces, network)
        pending = priority_order(cores, key)

        assignments: list[Assignment] = []
        active: list[tuple[int, int, _ActiveTest]] = []
        sequence = itertools.count()
        now = 0
        event = 0
        max_events = 10 * len(cores) * max(len(interfaces), 1) + 1000

        while pending:
            if event >= max_events:
                raise SchedulingError(
                    "scheduler did not converge; this indicates an internal bug"
                )

            while True:
                selection = self.select_assignment(
                    now, event, pending, pool, allocator, tracker, jobs, memo
                )
                if selection is None:
                    break
                core, interface = selection
                job = jobs[interface.identifier][core.identifier]
                start = now
                end = now + job.duration
                allocator.reserve(job.core_id, job.mask, start, end)
                pool.occupy(interface.identifier, start, end)
                tracker.start(job.core_id, job.power)
                assignment = Assignment(job=job, start=start, end=end)
                assignments.append(assignment)
                heapq.heappush(active, (end, next(sequence), _ActiveTest(assignment, core)))
                pending.remove(core)

            if not pending:
                break

            if not active:
                self._explain_deadlock(now, pending, interfaces, tracker, jobs)

            # Advance to the completion of the earliest running test and retire
            # every test that finishes at that instant.
            now = active[0][0]
            event += 1
            while active and active[0][0] == now:
                _, _, finished = heapq.heappop(active)
                tracker.finish(finished.assignment.core_id)
                if finished.core.is_processor:
                    for state in pool.processor_interfaces_for(finished.core.identifier):
                        pool.enable(state.identifier, now)

        metadata = dict(metadata or {})
        metadata.setdefault("scheduler", self.name)
        metadata.setdefault("interface_count", len(interfaces))
        result = ScheduleResult(
            system_name=system_name,
            scheduler_name=self.name,
            assignments=sorted(assignments, key=lambda a: (a.start, a.core_id)),
            interfaces=list(interfaces),
            power_constraint=power_constraint,
            metadata=metadata,
        )
        return result

    # ------------------------------------------------------------------
    # Helpers.
    # ------------------------------------------------------------------
    @staticmethod
    def _check_inputs(
        cores: Sequence[CoreUnderTest], interfaces: Sequence[TestInterface]
    ) -> None:
        if not cores:
            raise SchedulingError("there is nothing to schedule: no cores given")
        if not interfaces:
            raise SchedulingError("cannot schedule without any test interface")
        core_ids = {core.identifier for core in cores}
        if len(core_ids) != len(cores):
            raise SchedulingError("core identifiers must be unique")
        for interface in interfaces:
            if interface.processor_core_id and interface.processor_core_id not in core_ids:
                raise SchedulingError(
                    f"interface {interface.identifier!r} references processor core "
                    f"{interface.processor_core_id!r}, which is not among the cores"
                )

    @staticmethod
    def _explain_deadlock(
        now: int,
        pending: Sequence[CoreUnderTest],
        interfaces: Sequence[TestInterface],
        tracker: PowerTracker,
        jobs: dict[str, JobRow],
    ) -> None:
        """Raise the most informative error for a stalled schedule."""
        for core in pending:
            job_powers = [
                job.power
                for job in (jobs[i.identifier][core.identifier] for i in interfaces)
                if job is not None
            ]
            if not any(tracker.constraint.allows(power) for power in job_powers):
                raise PowerBudgetError(
                    f"core {core.identifier!r} can never be tested: its cheapest "
                    f"test draws {min(job_powers):.1f} power units, above the "
                    f"ceiling ({tracker.constraint.description})"
                )
        names = ", ".join(core.identifier for core in pending)
        raise SchedulingError(
            f"schedule stalled at cycle {now} with untested cores: {names}; "
            "this usually means every remaining core depends on a processor "
            "interface whose processor is itself untestable"
        )


@dataclass
class _GreedyMemo:
    """Where one event's pass over the available interfaces stands.

    ``available`` is ``pool.available(now)`` as taken at ``event``, minus
    the interfaces started since; ``cursor`` indexes the first interface
    whose scan has not yet come up empty.
    """

    event: int | None = None
    available: list[InterfaceState] = field(default_factory=list)
    cursor: int = 0


class GreedyScheduler(EventDrivenScheduler):
    """The paper's greedy policy: first available interface, priority cores.

    Whenever an interface is idle it immediately grabs the highest-priority
    core whose NoC paths are free and whose power fits under the ceiling —
    even when another, faster interface would become free shortly after.
    """

    name = "greedy-first-available"

    def selection_memo(self) -> _GreedyMemo:
        return _GreedyMemo()

    def select_assignment(
        self,
        now: int,
        event: int,
        pending: list[CoreUnderTest],
        pool: ResourcePool,
        allocator: LinkAllocator,
        tracker: PowerTracker,
        jobs: dict[str, JobRow],
        memo: _GreedyMemo,
    ) -> tuple[CoreUnderTest, TestInterface] | None:
        if memo.event != event:
            memo.event = event
            memo.available = pool.available(now)
            memo.cursor = 0
        available = memo.available
        while memo.cursor < len(available):
            state = available[memo.cursor]
            row = jobs[state.identifier]
            for core in pending:
                job = row[core.identifier]
                if job is None:
                    continue
                if not allocator.is_free(job.mask, now):
                    continue
                if not tracker.can_start(job.core_id, job.power):
                    continue
                if job.duration:
                    # Busy past `now`: the rest keep their order, and the
                    # interfaces before the cursor stay empty.
                    del available[memo.cursor]
                else:
                    # Still available at `now`, re-sorted: start the pass over.
                    memo.event = None
                return core, state.interface
            memo.cursor += 1
        return None

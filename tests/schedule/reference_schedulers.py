"""Reference model of the two schedulers' selection loops.

The straightforward event loop, kept as a test oracle: after every start it
asks the policy again from scratch, and each policy rescans every available
interface and every pending core, re-probing every link of every candidate
job.  The jobs are built afresh with :func:`build_job` for every plan, and
their links are reserved in a per-link "busy until" map
(:class:`ReferenceLinkAllocator`) that reads ``job.resources`` and never the
jobs' resource masks.  The library's loops remember what an instant already
ruled out and answer link queries over masks; they must return exactly the
same assignments and raise exactly the same errors.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Sequence

from repro.cores.core import CoreUnderTest
from repro.errors import PowerBudgetError, SchedulingError
from repro.noc.links import Link
from repro.noc.network import Network
from repro.schedule.greedy import GreedyScheduler
from repro.schedule.job import TestJob, build_job
from repro.schedule.power import PowerConstraint, PowerTracker
from repro.schedule.priority import distance_priority, priority_order
from repro.schedule.result import Assignment, ScheduleResult
from repro.schedule.variants import FastestCompletionScheduler
from repro.tam.interfaces import TestInterface
from repro.tam.pool import NEVER, ResourcePool


@dataclass
class ReferenceLinkAllocator:
    """Busy-until bookkeeping per exclusive NoC resource, probed link by link."""

    _busy_until: dict[Link, float] = field(default_factory=dict)
    _holder: dict[Link, str] = field(default_factory=dict)

    def is_free(self, resources: tuple[Link, ...], now: float) -> bool:
        """True when every resource in ``resources`` is free at time ``now``."""
        return self.earliest_free(resources) <= now

    def earliest_free(self, resources: tuple[Link, ...]) -> float:
        """The latest busy-until over ``resources``, or ``0.0``."""
        bound = 0.0
        for resource in resources:
            bound = max(bound, self._busy_until.get(resource, 0.0))
        return bound

    def reserve(
        self, job_id: str, resources: tuple[Link, ...], now: float, until: float
    ) -> None:
        """Hold ``resources`` for ``job_id`` from ``now`` until ``until``."""
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


@dataclass
class _ActiveTest:
    assignment: Assignment
    core: CoreUnderTest


class ReferenceEventLoop:
    """The restart-after-every-start event loop."""

    name = "event-driven"

    def select_assignment(
        self,
        now: int,
        pending: list[CoreUnderTest],
        pool: ResourcePool,
        allocator: ReferenceLinkAllocator,
        tracker: PowerTracker,
        jobs: dict[tuple[str, str], TestJob],
    ) -> tuple[CoreUnderTest, TestInterface] | None:
        raise NotImplementedError

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
        power_constraint = power_constraint or PowerConstraint.unconstrained()
        self._check_inputs(cores, interfaces)

        pool = ResourcePool(interfaces)
        allocator = ReferenceLinkAllocator()
        tracker = PowerTracker(power_constraint)
        jobs = self._build_jobs(cores, interfaces, network)

        key = distance_priority(cores, interfaces, network)
        pending = priority_order(cores, key)

        assignments: list[Assignment] = []
        active: list[tuple[int, int, _ActiveTest]] = []
        sequence = itertools.count()
        now = 0
        iteration_guard = 0
        max_iterations = 10 * len(cores) * max(len(interfaces), 1) + 1000

        while pending:
            iteration_guard += 1
            if iteration_guard > max_iterations:
                raise SchedulingError(
                    "scheduler did not converge; this indicates an internal bug"
                )

            while True:
                selection = self.select_assignment(
                    now, pending, pool, allocator, tracker, jobs
                )
                if selection is None:
                    break
                core, interface = selection
                job = jobs[(core.identifier, interface.identifier)]
                start = now
                end = now + job.duration
                allocator.reserve(job.core_id, job.resources, start, end)
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

            now = active[0][0]
            while active and active[0][0] == now:
                _, _, finished = heapq.heappop(active)
                tracker.finish(finished.assignment.core_id)
                if finished.core.is_processor:
                    for state in pool.processor_interfaces_for(finished.core.identifier):
                        pool.enable(state.identifier, now)

        metadata = dict(metadata or {})
        metadata.setdefault("scheduler", self.name)
        metadata.setdefault("interface_count", len(interfaces))
        return ScheduleResult(
            system_name=system_name,
            scheduler_name=self.name,
            assignments=sorted(assignments, key=lambda a: (a.start, a.core_id)),
            interfaces=list(interfaces),
            power_constraint=power_constraint,
            metadata=metadata,
        )

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
    def _build_jobs(
        cores: Sequence[CoreUnderTest],
        interfaces: Sequence[TestInterface],
        network: Network,
    ) -> dict[tuple[str, str], TestJob]:
        jobs: dict[tuple[str, str], TestJob] = {}
        for core in cores:
            for interface in interfaces:
                if interface.processor_core_id == core.identifier:
                    continue
                jobs[(core.identifier, interface.identifier)] = build_job(
                    core, interface, network
                )
        return jobs

    @staticmethod
    def _explain_deadlock(
        now: int,
        pending: Sequence[CoreUnderTest],
        interfaces: Sequence[TestInterface],
        tracker: PowerTracker,
        jobs: dict[tuple[str, str], TestJob],
    ) -> None:
        for core in pending:
            feasible_power = False
            for interface in interfaces:
                job = jobs.get((core.identifier, interface.identifier))
                if job is None:
                    continue
                if tracker.constraint.allows(job.power):
                    feasible_power = True
                    break
            if not feasible_power:
                job_powers = [
                    jobs[(core.identifier, i.identifier)].power
                    for i in interfaces
                    if (core.identifier, i.identifier) in jobs
                ]
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


class ReferenceGreedy(ReferenceEventLoop):
    """The paper's policy: first available interface, first startable core."""

    name = GreedyScheduler.name

    def select_assignment(self, now, pending, pool, allocator, tracker, jobs):
        for state in pool.available(now):
            interface = state.interface
            for core in pending:
                job = jobs.get((core.identifier, interface.identifier))
                if job is None:
                    continue
                if not allocator.is_free(job.resources, now):
                    continue
                if not tracker.can_start(job.core_id, job.power):
                    continue
                return core, interface
        return None


class ReferenceFastestCompletion(ReferenceEventLoop):
    """The look-ahead policy: start a core only on its best interface."""

    name = FastestCompletionScheduler.name

    def select_assignment(self, now, pending, pool, allocator, tracker, jobs):
        available_now = {state.identifier for state in pool.available(now)}
        if not available_now:
            return None

        for core in pending:
            best: tuple[float, str] | None = None
            for state in pool:
                interface = state.interface
                job = jobs.get((core.identifier, interface.identifier))
                if job is None:
                    continue
                enabled_at = state.enabled_at
                if enabled_at == NEVER:
                    continue
                earliest_start = max(
                    float(now),
                    state.available_at(),
                    allocator.earliest_free(job.resources),
                )
                completion = earliest_start + job.duration
                key = (completion, interface.identifier)
                if best is None or key < best:
                    best = key
            if best is None:
                continue
            _, best_interface_id = best
            if best_interface_id not in available_now:
                continue
            job = jobs[(core.identifier, best_interface_id)]
            if not allocator.is_free(job.resources, now):
                continue
            if not tracker.can_start(job.core_id, job.power):
                continue
            interface = pool.state(best_interface_id).interface
            return core, interface
        return None


#: The reference loop of each library scheduler, by the library's name.
REFERENCES = {
    GreedyScheduler.name: ReferenceGreedy,
    FastestCompletionScheduler.name: ReferenceFastestCompletion,
}

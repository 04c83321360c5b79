"""Schedule data structures and invariant checking.

A schedule is a list of :class:`Assignment` records (one per core) plus the
context it was produced in.  :func:`validate_schedule` re-checks every
invariant the schedulers are supposed to maintain; the integration tests run
it on every schedule the experiments produce, and the planner runs it before
returning a result to the caller.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from repro.errors import ScheduleValidationError
from repro.schedule.job import TestJob
from repro.schedule.power import PowerConstraint
from repro.tam.interfaces import TestInterface


@dataclass(frozen=True, slots=True)
class Assignment:
    """One scheduled core test.

    Attributes:
        job: the test job that was scheduled (core, interface, duration,
            power, NoC resources).
        start: cycle at which the test starts.
        end: cycle at which the test completes (``start + job.duration``).
    """

    job: TestJob
    start: int
    end: int

    @property
    def core_id(self) -> str:
        """Identifier of the tested core."""
        return self.job.core_id

    @property
    def interface_id(self) -> str:
        """Identifier of the interface that applies the test."""
        return self.job.interface_id

    @property
    def duration(self) -> int:
        """Length of the test in cycles."""
        return self.job.duration

    @property
    def power(self) -> float:
        """Power drawn while the test runs."""
        return self.job.power


@dataclass
class ScheduleResult:
    """A complete test plan for one system configuration.

    Attributes:
        system_name: name of the scheduled system (e.g. ``"d695_leon"``).
        scheduler_name: which scheduling policy produced the plan.
        assignments: one entry per scheduled core, in start-time order.
        interfaces: the test interfaces that were offered to the scheduler.
        power_constraint: the power ceiling the plan respects.
        metadata: free-form extra information (processor count, flit width...).
    """

    system_name: str
    scheduler_name: str
    assignments: list[Assignment]
    interfaces: list[TestInterface]
    power_constraint: PowerConstraint
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def makespan(self) -> int:
        """Total system test time in cycles (completion of the last test)."""
        return max((assignment.end for assignment in self.assignments), default=0)

    @property
    def test_count(self) -> int:
        """Number of scheduled core tests."""
        return len(self.assignments)

    def assignment_for(self, core_id: str) -> Assignment:
        """The assignment of core ``core_id``.

        Raises:
            KeyError: when the core does not appear in the schedule.
        """
        for assignment in self.assignments:
            if assignment.core_id == core_id:
                return assignment
        raise KeyError(f"core {core_id!r} is not part of the schedule")

    def assignments_by_interface(self) -> dict[str, list[Assignment]]:
        """Group the assignments by the interface that runs them."""
        grouped: dict[str, list[Assignment]] = defaultdict(list)
        for assignment in self.assignments:
            grouped[assignment.interface_id].append(assignment)
        return dict(grouped)

    def interface_busy_cycles(self) -> dict[str, int]:
        """Total busy cycles per interface (test application only)."""
        return {
            interface_id: sum(a.duration for a in assignments)
            for interface_id, assignments in self.assignments_by_interface().items()
        }

    def peak_power(self) -> float:
        """Largest instantaneous power over the whole schedule."""
        profile = self.power_profile()
        return max((power for _, power in profile), default=0.0)

    def power_profile(self) -> list[tuple[int, float]]:
        """Piecewise-constant power profile as (time, power-from-then-on) points."""
        events: dict[int, float] = defaultdict(float)
        for assignment in self.assignments:
            events[assignment.start] += assignment.power
            events[assignment.end] -= assignment.power
        profile: list[tuple[int, float]] = []
        current = 0.0
        for time in sorted(events):
            current += events[time]
            # Clamp tiny negative values produced by float accumulation.
            if abs(current) < 1e-9:
                current = 0.0
            profile.append((time, current))
        return profile

    def average_parallelism(self) -> float:
        """Average number of concurrently running tests over the makespan."""
        if self.makespan == 0:
            return 0.0
        busy = sum(assignment.duration for assignment in self.assignments)
        return busy / self.makespan


def validate_schedule(
    result: ScheduleResult,
    *,
    expected_core_ids: Sequence[str] | None = None,
) -> None:
    """Check every structural invariant of ``result``; raise on violation.

    Checked invariants:

    1. every expected core is tested exactly once (when ``expected_core_ids``
       is given), and no core is tested twice in any case;
    2. assignments never overlap on the same interface;
    3. assignments never overlap on the same NoC resource (link/local port);
    4. a processor interface is only used after the test of its processor core
       has completed;
    5. the instantaneous power never exceeds the constraint;
    6. start/end times are consistent (``end = start + duration``, both
       non-negative).

    Raises:
        ScheduleValidationError: describing the first violated invariant.
    """
    seen_cores: set[str] = set()
    for assignment in result.assignments:
        if assignment.start < 0 or assignment.end < assignment.start:
            raise ScheduleValidationError(
                f"core {assignment.core_id!r}: inconsistent times "
                f"[{assignment.start}, {assignment.end})"
            )
        if assignment.end != assignment.start + assignment.duration:
            raise ScheduleValidationError(
                f"core {assignment.core_id!r}: end does not equal start + duration"
            )
        if assignment.core_id in seen_cores:
            raise ScheduleValidationError(
                f"core {assignment.core_id!r} is tested more than once"
            )
        seen_cores.add(assignment.core_id)

    if expected_core_ids is not None:
        missing = set(expected_core_ids) - seen_cores
        if missing:
            raise ScheduleValidationError(
                f"cores never tested: {', '.join(sorted(missing))}"
            )
        unexpected = seen_cores - set(expected_core_ids)
        if unexpected:
            raise ScheduleValidationError(
                f"unexpected cores in schedule: {', '.join(sorted(unexpected))}"
            )

    _check_interface_overlaps(result)
    _check_resource_overlaps(result)
    _check_processor_enablement(result)
    _check_power(result)


def _check_interface_overlaps(result: ScheduleResult) -> None:
    overlap = _first_overlap(result, lambda assignment: (assignment.job.interface_id,))
    if overlap is not None:
        interface_id, earlier, later = overlap
        raise ScheduleValidationError(
            f"interface {interface_id!r} runs {earlier.core_id!r} and "
            f"{later.core_id!r} at the same time"
        )


def _check_resource_overlaps(result: ScheduleResult) -> None:
    """No NoC resource is held by two overlapping assignments.

    Reads each job's ``resources`` link by link and never its ``mask``: this
    is the independent check of the schedulers, whose link allocator works
    on the masks alone.
    """
    overlap = _first_overlap(result, lambda assignment: assignment.job.resources)
    if overlap is not None:
        resource, earlier, later = overlap
        raise ScheduleValidationError(
            f"NoC resource {resource} is used simultaneously by "
            f"{earlier.core_id!r} and {later.core_id!r}"
        )


def _first_overlap(
    result: ScheduleResult, keys_of: Callable[[Assignment], Iterable[Hashable]]
) -> tuple[Hashable, Assignment, Assignment] | None:
    """The first two assignments that hold one key at the same time.

    One sweep over the assignments by start time compares each with the
    key's holder that frees it last, which records a clash on every key
    that has an overlap.  A key's first clash pairs the earliest
    assignment that overlaps an earlier one with that holder, and keys are
    taken in the order the schedule first uses them.
    """
    holders: dict[Hashable, Assignment] = {}
    clashes: dict[Hashable, tuple[Assignment, Assignment]] = {}
    for assignment in sorted(result.assignments, key=attrgetter("start")):
        start = assignment.start
        end = assignment.end
        for key in keys_of(assignment):
            holder = holders.get(key)
            if holder is None or end > holder.end:
                holders[key] = assignment
            if holder is not None and holder.start < end and start < holder.end:
                clashes.setdefault(key, (holder, assignment))
    if not clashes:
        return None
    return next(
        (key, *clashes[key])
        for assignment in result.assignments
        for key in keys_of(assignment)
        if key in clashes
    )


def _check_processor_enablement(result: ScheduleResult) -> None:
    completion: dict[str, int] = {
        assignment.core_id: assignment.end for assignment in result.assignments
    }
    interface_by_id: Mapping[str, TestInterface] = {
        interface.identifier: interface for interface in result.interfaces
    }
    for assignment in result.assignments:
        interface = interface_by_id.get(assignment.interface_id)
        if interface is None or not interface.is_processor:
            continue
        processor_core = interface.processor_core_id
        assert processor_core is not None
        if processor_core not in completion:
            raise ScheduleValidationError(
                f"interface {interface.identifier!r} is used but its processor "
                f"core {processor_core!r} is never tested"
            )
        if assignment.start < completion[processor_core]:
            raise ScheduleValidationError(
                f"interface {interface.identifier!r} tests {assignment.core_id!r} "
                f"at {assignment.start}, before its processor core finishes at "
                f"{completion[processor_core]}"
            )


def _check_power(result: ScheduleResult) -> None:
    constraint = result.power_constraint
    if not constraint.constrained:
        return
    for time, power in result.power_profile():
        if not constraint.allows(power):
            raise ScheduleValidationError(
                f"instantaneous power {power:.1f} at cycle {time} exceeds the "
                f"ceiling of {constraint.limit:.1f} ({constraint.description})"
            )

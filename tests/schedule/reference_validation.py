"""The schedule validator as it was before its lean rewrite, kept as an oracle.

:func:`validate_schedule` here is the library's
:func:`repro.schedule.result.validate_schedule` as it stood before that
function was rewritten for the per-plan hot path: every check reads the
assignments through their properties, each overlap sweep builds a key tuple
per assignment, and the processor-enablement maps are built for every
schedule.  The library's validator must raise the same exception type with
the same message on every schedule, or pass wherever this one passes.

Like the original, it reads the power profile through
:meth:`ScheduleResult.power_profile
<repro.schedule.result.ScheduleResult.power_profile>`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from repro.errors import ScheduleValidationError
from repro.schedule.result import Assignment, ScheduleResult
from repro.tam.interfaces import TestInterface


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

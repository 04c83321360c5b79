"""Schedule data structures and invariant checking.

A schedule is a list of :class:`Assignment` records (one per core) plus the
context it was produced in.  :func:`validate_schedule` re-checks every
invariant the schedulers are supposed to maintain; the integration tests run
it on every schedule the experiments produce, and the planner runs it before
returning a result to the caller.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import fsum
from operator import attrgetter, itemgetter
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
        summary = self._summary()
        if summary is not None:
            return summary[2]
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
        """Largest instantaneous power over the whole schedule.

        Derived once per assignment list: :func:`validate_schedule` hands
        over the exact peak its one pass derives, so a valid plan never
        derives its profile.  The memo (see :meth:`_summary`) sits in the
        instance ``__dict__``, outside the dataclass fields, so it never
        reaches ``repr``, ``==`` or a record; it keeps the assignments it
        was derived from, and a changed ``assignments`` derives the peak
        afresh.
        """
        summary = self._summary()
        if summary is None:
            assignments = tuple(self.assignments)
            peak = max((power for _, power in _power_profile(assignments)), default=0.0)
            summary = self.__dict__["_peak_memo"] = (
                assignments,
                peak,
                max((assignment.end for assignment in assignments), default=0),
                sum(assignment.job.duration for assignment in assignments),
            )
        return summary[1]

    def _summary(self) -> tuple[tuple[Assignment, ...], float, int, int] | None:
        """``(assignments, peak power, makespan, busy cycles)`` while it still holds.

        :func:`validate_schedule` (or :meth:`peak_power`) stores it; it
        holds while :attr:`assignments` compares equal to the tuple it was
        derived from, else ``None``.
        """
        memo = self.__dict__.get("_peak_memo")
        if memo is not None and memo[0] == tuple(self.assignments):
            return memo
        return None

    def power_profile(self) -> list[tuple[int, float]]:
        """Piecewise-constant power profile as (time, power-from-then-on) points.

        Each point's power is the :func:`math.fsum` of the powers of the
        tests running from then on: the correctly rounded exact sum, whatever
        order the tests are in.  The power tracker sums the same way, so a
        plan that passed every check of its ceiling never exceeds it here.
        """
        return _power_profile(self.assignments)

    def average_parallelism(self) -> float:
        """Average number of concurrently running tests over the makespan."""
        summary = self._summary()
        if summary is not None:
            makespan, busy = summary[2], summary[3]
        else:
            makespan = self.makespan
            busy = sum(assignment.job.duration for assignment in self.assignments)
        if makespan == 0:
            return 0.0
        return busy / makespan


def _power_profile(assignments: Sequence[Assignment]) -> list[tuple[int, float]]:
    """The power profile of ``assignments`` (see :meth:`ScheduleResult.power_profile`).

    ``running`` holds the powers summed so far: a start adds its power, and
    an end takes an equal power out (or, ending before any equal start,
    adds its negation).  So its ``fsum`` at each time is the exact sum of
    every change up to then, rounded once.
    """
    changes: list[tuple[int, float]] = []
    for assignment in assignments:
        power = assignment.job.power
        changes.append((assignment.start, power))
        changes.append((assignment.end, -power))
    changes.sort(key=_TIME)
    running: list[float] = []
    profile: list[tuple[int, float]] = []
    now = None
    for time, change in changes:
        if time != now:
            if now is not None:
                profile.append((now, fsum(running)))
            now = time
        if change < 0 and -change in running:
            running.remove(-change)
        else:
            running.append(change)
    if now is not None:
        profile.append((now, fsum(running)))
    return profile


_TIME = itemgetter(0)


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

    One sweep by start time (:func:`_proven_peak`) first tries to prove all
    six and to derive the exact peak power, the makespan and the busy
    cycles, which it hands to :meth:`ScheduleResult.peak_power`,
    :attr:`~ScheduleResult.makespan` and
    :meth:`~ScheduleResult.average_parallelism`.  Only when that sweep finds a
    violation, or cannot rule one out, do the checks below run: times and
    duplicates, expected cores, interface overlaps, resource overlaps,
    processor enablement, power, raising at the first violation.  They
    read each assignment's job once and never through the
    :class:`Assignment` properties.

    A proven plan is memoised (:class:`_HoldTable`'s ``proofs``): a later
    plan whose assignments, interfaces and expected cores equal it skips
    the sweep and takes over its summary, and only its peak is checked
    against this result's ceiling.
    Every value the sweep reads takes part in the equality of
    :class:`Assignment`, :class:`~repro.schedule.job.TestJob` or
    :class:`~repro.tam.interfaces.TestInterface`, and the sweep never reads
    ``mask``, so an equal plan gets the same verdict and the same peak.  A
    plan that differs, or whose ceiling is below the stored peak, runs the
    sweep and the checks as above.

    Raises:
        ScheduleValidationError: describing the first violated invariant.
    """
    snapshot = tuple(result.assignments)
    expected_ids = None if expected_core_ids is None else tuple(expected_core_ids)
    proofs = _memo_table().proofs
    if snapshot:
        proof = (snapshot, tuple(result.interfaces), expected_ids)
        entry = proofs.get(id(snapshot[0]))
        if (
            entry is not None
            and entry[0] == proof
            and result.power_constraint.allows(entry[1][0])
        ):
            result.__dict__["_peak_memo"] = (snapshot, *entry[1])
            return
    summary = _proven_peak(result, snapshot, expected_ids)
    if summary is not None:
        if snapshot:
            proofs[id(snapshot[0])] = (proof, summary)
        result.__dict__["_peak_memo"] = (snapshot, *summary)
        return

    assignments = result.assignments
    seen_cores: set[str] = set()
    for assignment in assignments:
        job = assignment.job
        core_id = job.core_id
        start = assignment.start
        end = assignment.end
        if start < 0 or end < start:
            raise ScheduleValidationError(
                f"core {core_id!r}: inconsistent times [{start}, {end})"
            )
        if end != start + job.duration:
            raise ScheduleValidationError(
                f"core {core_id!r}: end does not equal start + duration"
            )
        if core_id in seen_cores:
            raise ScheduleValidationError(f"core {core_id!r} is tested more than once")
        seen_cores.add(core_id)

    if expected_core_ids is not None:
        expected = set(expected_core_ids)
        if expected != seen_cores:
            missing = expected - seen_cores
            if missing:
                raise ScheduleValidationError(
                    f"cores never tested: {', '.join(sorted(missing))}"
                )
            raise ScheduleValidationError(
                "unexpected cores in schedule: "
                f"{', '.join(sorted(seen_cores - expected))}"
            )

    _check_interface_overlaps(result)
    _check_resource_overlaps(result)
    _check_processor_enablement(result)
    _check_power(result)


#: Jobs the one-pass validator memoises before it starts afresh: a sweep
#: that finds its :class:`_HoldTable` holding this many starts a new one,
#: so a table holds at most this many plus the jobs of the plans being
#: validated.  An entry is about 0.2 KiB, and it keeps its job (about
#: 0.3 KiB more once the job's network is gone), so a full table is at
#: most about 2 MiB.  The six paper systems have 1 548 jobs.
MAX_MEMO_JOBS = 4096

#: Proven plans the validator memoises before it starts afresh: a call
#: that finds its :class:`_HoldTable` holding this many starts a new one.
#: An entry keeps its plan's assignment tuple, interface tuple and
#: expected core ids: about 1.1 KiB on p93791 (40 tests), plus 2.2 KiB for
#: the assignments themselves once no stored plan
#: (:data:`repro.schedule.greedy.MAX_PLANS_PER_KEY`) holds them, so a full
#: table is at most about 1.6 MiB (measured with ``tracemalloc``).  The
#: jobs it keeps are in the same table's job memo already.
MAX_MEMO_PROOFS = 512

#: The one pass sums powers exactly, as integers in units of
#: ``1 / _POWER_UNIT``; a power that is negative, not finite, or finer than
#: that unit is left to the power profile.
_POWER_UNIT = 1 << 128

#: What a proven plan is compared by: its assignments, its interfaces and
#: its expected core ids (``None`` when none were given).
_ProofKey = tuple[tuple[Assignment, ...], tuple[TestInterface, ...], tuple[str, ...] | None]

#: What the one pass derives of a plan it proves: the exact peak power,
#: the makespan (the largest end) and the busy cycles (the sum of the
#: durations).
_Summary = tuple[float, int, int]


class _HoldTable:
    """The one-pass validator's own numbering of what a test holds.

    ``bits`` numbers every interface id and NoC link the validator has met,
    read from ``job.interface_id`` and ``job.resources`` and never from the
    schedulers' ``mask`` (it is the independent check of their allocator).
    ``jobs`` memoises, by the job's identity, ``(job, holds, units)``: the
    job itself, so no other job can ever own that identity while the entry
    lives; the bitset of its interface and links, or ``None`` when a link
    repeats within the job; and its power in units of ``1 / _POWER_UNIT``,
    or ``None`` when not exact.

    ``proofs`` memoises, by the identity of a proven plan's first
    assignment, ``((assignments, interfaces, expected core ids), (peak,
    makespan, busy cycles))``: the key :func:`validate_schedule` compares
    a later plan with, holding the first assignment so that no other
    object can take over its identity, and the summary the sweep derived.  Only plans the
    sweep proved are stored; their peak is checked against each caller's
    own ceiling.

    A table is only ever added to; a full one is replaced, never cleared,
    so a sweep that took the old table keeps one numbering throughout.  Two
    threads numbering at once may give two keys one bit, which can only
    make the sweep see a clash that is not there and defer to the checks.
    """

    __slots__ = ("bits", "jobs", "proofs")

    def __init__(self) -> None:
        self.bits: dict[Hashable, int] = {}
        self.jobs: dict[int, tuple[TestJob, int | None, int | None]] = {}
        self.proofs: dict[int, tuple[_ProofKey, _Summary]] = {}

    def entry(self, job: TestJob) -> tuple[TestJob, int | None, int | None]:
        """``job``'s memo entry, derived on its first sweep."""
        bits = self.bits
        holds: int | None = 0
        try:
            for key in (job.interface_id, *job.resources):
                bit = bits.get(key)
                if bit is None:
                    bit = bits.setdefault(key, 1 << len(bits))
                if holds & bit:
                    holds = None
                    break
                holds |= bit
        except TypeError:  # an unhashable resource: the checks report it
            holds = None
        power = job.power
        units = None
        if 0.0 <= power < math.inf:
            numerator, denominator = power.as_integer_ratio()
            if denominator <= _POWER_UNIT:
                units = numerator * (_POWER_UNIT // denominator)
        entry = self.jobs[id(job)] = (job, holds, units)
        return entry


_TABLE = _HoldTable()


def _memo_table() -> _HoldTable:
    """The current :class:`_HoldTable`, replaced first when it is full."""
    global _TABLE
    table = _TABLE
    if len(table.jobs) >= MAX_MEMO_JOBS or len(table.proofs) >= MAX_MEMO_PROOFS:
        table = _TABLE = _HoldTable()
    return table


def _proven_peak(
    result: ScheduleResult,
    assignments: tuple[Assignment, ...],
    expected_core_ids: Sequence[str] | None,
) -> _Summary | None:
    """The summary of a schedule one sweep proves valid; else ``None``.

    The summary is ``(peak power, makespan, busy cycles)``: the largest
    end and the sum of the durations come with the sweep.

    The sweep visits the assignments by start time, releasing the holds and
    power of every test that ends by the current start.  A test is refused
    when its times are inconsistent, its core was seen before, or any bit
    of its holds is held: two tests that overlap on an interface or a link
    always meet so, since the one that starts first still holds the key
    when the other starts.  (Two tests starting together, one of zero
    cycles, do not overlap; the sweep defers such a pair to the checks.)  A
    zero-cycle test holds nothing.  After the sweep the expected cores and
    the processor enablement are compared with each test's end.

    The running power is the exact sum of the running tests' powers as an
    integer, so after the last start at a time it is exactly the sum behind
    the power profile's point there, and the largest such sum rounds to the
    profile's peak: a point's :func:`math.fsum` and ``int / int`` both round
    the exact value correctly, rounding keeps order, and a point at which
    tests only end sums fewer non-negative powers than the point before it.
    """
    table = _memo_table()
    memo = table.jobs

    processor_core_of = {
        interface.identifier: interface.processor_core_id if interface.is_processor else None
        for interface in result.interfaces
    }
    ends: dict[str, int] = {}
    enabled_by: list[tuple[int, str]] = []
    running: list[tuple[int, int, int]] = []
    busy = 0
    total = 0
    peak = 0
    makespan = 0
    cycles = 0
    for assignment in sorted(assignments, key=_START):
        job = assignment.job
        start = assignment.start
        end = assignment.end
        if start < 0 or end < start or end != start + job.duration:
            return None
        if end > makespan:
            makespan = end
        cycles += end - start
        core_id = job.core_id
        if core_id in ends:
            return None
        ends[core_id] = end
        entry = memo.get(id(job)) or table.entry(job)
        holds = entry[1]
        units = entry[2]
        if holds is None or units is None:
            return None
        while running and running[0][0] <= start:
            _, released, released_units = heappop(running)
            busy ^= released
            total -= released_units
        if busy & holds:
            return None
        processor_core = processor_core_of.get(job.interface_id)
        if processor_core is not None:
            enabled_by.append((start, processor_core))
        if end > start:
            heappush(running, (end, holds, units))
            busy |= holds
            total += units
            if total > peak:
                peak = total

    if expected_core_ids is not None and ends.keys() != set(expected_core_ids):
        return None
    for start, processor_core in enabled_by:
        finished = ends.get(processor_core)
        if finished is None or start < finished:
            return None
    peak_power = peak / _POWER_UNIT
    if not result.power_constraint.allows(peak_power):
        return None
    return peak_power, makespan, cycles


_START = attrgetter("start")

#: Each clashing key's first clash: its holder and the assignment that
#: overlapped it.
_Clashes = dict[Hashable, tuple[Assignment, Assignment]]


def _check_interface_overlaps(result: ScheduleResult) -> None:
    """No interface runs two overlapping assignments (see :func:`_first_clash`)."""
    holders: dict[str, Assignment] = {}
    clashes: _Clashes = {}
    for assignment in sorted(result.assignments, key=_START):
        key = assignment.job.interface_id
        holder = holders.get(key)
        if holder is None:
            holders[key] = assignment
            continue
        end = assignment.end
        held_until = holder.end
        if end > held_until:
            holders[key] = assignment
        if assignment.start < held_until and holder.start < end and key not in clashes:
            clashes[key] = (holder, assignment)
    if clashes:
        interface_id, earlier, later = _first_clash(
            result.assignments, clashes, lambda job: (job.interface_id,)
        )
        raise ScheduleValidationError(
            f"interface {interface_id!r} runs {earlier.core_id!r} and "
            f"{later.core_id!r} at the same time"
        )


def _check_resource_overlaps(result: ScheduleResult) -> None:
    """No NoC resource is held by two overlapping assignments.

    Reads each job's ``resources`` link by link and never its ``mask``: this
    is the independent check of the schedulers, whose link allocator works
    on the masks alone.  A link is a tuple of tuples that hashes afresh on
    every lookup, so each key's holder sits in a one-element list that a
    new holder replaces without hashing the link again.
    """
    holders: dict[Hashable, list[Assignment]] = {}
    clashes: _Clashes = {}
    for assignment in sorted(result.assignments, key=_START):
        start = assignment.start
        end = assignment.end
        for key in assignment.job.resources:
            cell = holders.get(key)
            if cell is None:
                holders[key] = [assignment]
                continue
            holder = cell[0]
            held_until = holder.end
            if end > held_until:
                cell[0] = assignment
            if start < held_until and holder.start < end and key not in clashes:
                clashes[key] = (holder, assignment)
    if clashes:
        resource, earlier, later = _first_clash(
            result.assignments, clashes, attrgetter("resources")
        )
        raise ScheduleValidationError(
            f"NoC resource {resource} is used simultaneously by "
            f"{earlier.core_id!r} and {later.core_id!r}"
        )


def _first_clash(
    assignments: Sequence[Assignment],
    clashes: _Clashes,
    keys_of: Callable[[TestJob], Iterable[Hashable]],
) -> tuple[Hashable, Assignment, Assignment]:
    """The clash to report: the first clashing key in schedule order.

    Both overlap checks make one sweep over the assignments by start time,
    comparing each with the key's holder that frees it last, which records
    a clash on every key that has an overlap.  A key's first clash pairs the
    earliest assignment that overlaps an earlier one with that holder, and
    keys are taken in the order the schedule first uses them.
    """
    return next(
        (key, *clashes[key])
        for assignment in assignments
        for key in keys_of(assignment.job)
        if key in clashes
    )


def _check_processor_enablement(result: ScheduleResult) -> None:
    interface_by_id: Mapping[str, TestInterface] = {
        interface.identifier: interface for interface in result.interfaces
    }
    processor_core_of = {
        identifier: interface.processor_core_id
        for identifier, interface in interface_by_id.items()
        if interface.is_processor
    }
    if not processor_core_of:
        return
    completion: dict[str, int] = {
        assignment.job.core_id: assignment.end for assignment in result.assignments
    }
    for assignment in result.assignments:
        job = assignment.job
        identifier = job.interface_id
        processor_core = processor_core_of.get(identifier)
        if processor_core is None:
            continue
        if processor_core not in completion:
            raise ScheduleValidationError(
                f"interface {identifier!r} is used but its processor "
                f"core {processor_core!r} is never tested"
            )
        if assignment.start < completion[processor_core]:
            raise ScheduleValidationError(
                f"interface {identifier!r} tests {job.core_id!r} "
                f"at {assignment.start}, before its processor core finishes at "
                f"{completion[processor_core]}"
            )


def _check_power(result: ScheduleResult) -> None:
    constraint = result.power_constraint
    if not constraint.constrained:
        return
    if constraint.allows(result.peak_power()):
        return
    for time, power in result.power_profile():
        if not constraint.allows(power):
            raise ScheduleValidationError(
                f"instantaneous power {power:.1f} at cycle {time} exceeds the "
                f"ceiling of {constraint.limit:.1f} ({constraint.description})"
            )

"""The lean validator against the one it replaced.

:func:`repro.schedule.result.validate_schedule` must raise the same exception
type with the same message as :mod:`tests.schedule.reference_validation`,
or pass wherever it passes, on plans with injected faults: inconsistent
times, a duplicate or missing core, an interface or resource overlap (also
one behind a zero-cycle test), a processor interface used before its core is
tested or whose core is never tested, and ceilings at and just below the
peak.

The property's example budget is hypothesis's active profile; CI's
``schedule-oracle`` job runs it under the larger ``schedule-oracle`` profile
registered in ``tests/conftest.py``.
"""

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from repro.errors import ReproError
from repro.schedule.planner import TestPlanner
from repro.schedule.power import PowerConstraint
from repro.schedule.result import Assignment, ScheduleResult, validate_schedule
from repro.schedule.greedy import GreedyScheduler
from repro.schedule.variants import FastestCompletionScheduler
from repro.system.presets import build_paper_system

from tests.properties.test_schedule_properties import random_system
from tests.schedule import reference_validation
from tests.schedule.test_result import PORT_A, PORT_B, LINK, external, job, processor


def verdict(validate, result, expected_core_ids):
    """``None`` when ``validate`` passes, else its error's type and message.

    Each validator gets its own copy of ``result``, so neither reads a peak
    power the other derived.
    """
    try:
        validate(dataclasses.replace(result), expected_core_ids=expected_core_ids)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def assert_agrees(result, expected_core_ids):
    lean = verdict(validate_schedule, result, expected_core_ids)
    reference = verdict(reference_validation.validate_schedule, result, expected_core_ids)
    assert lean == reference
    return lean


def retimed(assignment, start, job_=None):
    job_ = job_ or assignment.job
    return Assignment(job=job_, start=start, end=start + job_.duration)


# ----------------------------------------------------------------------
# Faults, each applied to a list of assignments.
# ----------------------------------------------------------------------
def shift_end(draw, assignments):
    """Inconsistent times: an end off its start + duration, maybe before it."""
    index = draw(st.integers(0, len(assignments) - 1))
    a = assignments[index]
    delta = draw(st.one_of(st.integers(1, 3), st.integers(-a.job.duration - 3, -1)))
    assignments[index] = Assignment(job=a.job, start=a.start, end=a.end + delta)


def negative_start(draw, assignments):
    index = draw(st.integers(0, len(assignments) - 1))
    assignments[index] = retimed(assignments[index], -draw(st.integers(1, 5)))


def duplicate(draw, assignments):
    index = draw(st.integers(0, len(assignments) - 1))
    copy = retimed(assignments[index], draw(st.integers(0, makespan(assignments))))
    assignments.insert(draw(st.integers(0, len(assignments))), copy)


def drop(draw, assignments):
    """A missing core; a processor core's drop leaves its interface's
    tests with a core that is never tested."""
    if len(assignments) > 1:
        del assignments[draw(st.integers(0, len(assignments) - 1))]


def move(draw, assignments):
    """Restart a test anywhere: overlaps, early processor use, new peaks."""
    index = draw(st.integers(0, len(assignments) - 1))
    assignments[index] = retimed(
        assignments[index], draw(st.integers(0, makespan(assignments)))
    )


def move_into(draw, assignments):
    """Restart a test inside another one's window, maybe on its interface."""
    index = draw(st.integers(0, len(assignments) - 1))
    other = assignments[draw(st.integers(0, len(assignments) - 1))]
    job_ = assignments[index].job
    if draw(st.booleans()):
        job_ = dataclasses.replace(job_, interface_id=other.job.interface_id)
    start = other.start + draw(st.integers(0, max(other.job.duration - 1, 0)))
    assignments[index] = retimed(assignments[index], start, job_)


def share_resource(draw, assignments):
    """Give one test a resource of another and restart it beside it."""
    index = draw(st.integers(0, len(assignments) - 1))
    other = assignments[draw(st.integers(0, len(assignments) - 1))]
    if not other.job.resources:
        return
    shared = draw(st.sampled_from(other.job.resources))
    job_ = assignments[index].job
    job_ = dataclasses.replace(job_, resources=(*job_.resources, shared))
    start = other.start + draw(st.integers(0, max(other.job.duration - 1, 0)))
    assignments[index] = retimed(assignments[index], start, job_)


def zero_cycle(draw, assignments):
    """Make a test take no time, maybe inside another test's window: an
    overlap hidden behind a zero-cycle test."""
    index = draw(st.integers(0, len(assignments) - 1))
    job_ = dataclasses.replace(assignments[index].job, duration=0)
    other = assignments[draw(st.integers(0, len(assignments) - 1))]
    start = other.start + draw(st.integers(0, other.job.duration))
    assignments[index] = Assignment(job=job_, start=start, end=start)


def early_processor_use(draw, assignments, interfaces):
    """Start a processor interface's test before its processor finishes."""
    processor_of = {i.identifier: i.processor_core_id for i in interfaces if i.is_processor}
    candidates = [i for i, a in enumerate(assignments) if a.job.interface_id in processor_of]
    if not candidates:
        return
    index = draw(st.sampled_from(candidates))
    ends = [
        a.end
        for a in assignments
        if a.job.core_id == processor_of[assignments[index].job.interface_id]
    ]
    latest = max(ends, default=1)
    assignments[index] = retimed(assignments[index], draw(st.integers(0, max(latest - 1, 0))))


FAULTS = (
    shift_end,
    negative_start,
    duplicate,
    drop,
    move,
    move_into,
    share_resource,
    zero_cycle,
)


def makespan(assignments):
    return max((a.end for a in assignments), default=0)


@st.composite
def ceilings(draw, result):
    """Unconstrained, or an absolute ceiling at, one ulp under, on the edge
    of :meth:`PowerConstraint.allows`'s tolerance under, or past it under the
    (faulted) schedule's peak, or a fraction of it."""
    peak = result.peak_power()
    if peak <= 0 or draw(st.integers(0, 7)) == 0:
        return PowerConstraint.unconstrained()
    edge = peak - 1e-9
    limit = draw(
        st.sampled_from(
            [
                peak,
                math.nextafter(peak, 0.0),
                math.nextafter(edge, math.inf),
                edge,
                math.nextafter(edge, 0.0),
                peak - 2e-9,
                peak * 0.9,
                peak * 0.5,
            ]
        )
    )
    assume(limit > 0)
    return PowerConstraint(limit=limit, description="near the peak")


@st.composite
def expected_ids(draw, core_ids):
    choice = draw(st.sampled_from(["none", "all", "all", "all", "one short", "one more"]))
    if choice == "none":
        return None
    if choice == "one short" and core_ids:
        return core_ids[:-1] if draw(st.booleans()) else core_ids[1:]
    if choice == "one more":
        return [*core_ids, "ghost"]
    return list(core_ids)


@st.composite
def faulted_plans(draw):
    """A real plan of a random small system, with up to two faults."""
    system = draw(random_system(min_terminals=0, min_patterns=0))
    scheduler = draw(st.sampled_from([GreedyScheduler, FastestCompletionScheduler]))()
    count = draw(st.integers(0, len(system.processor_cores)))
    try:
        plan = TestPlanner(system, scheduler).plan(reused_processors=count)
    except ReproError:
        assume(False)
    assignments = list(plan.assignments)
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(FAULTS + (early_processor_use,)))
        if fault is early_processor_use:
            fault(draw, assignments, plan.interfaces)
        else:
            fault(draw, assignments)
    result = dataclasses.replace(plan, assignments=assignments)
    result.power_constraint = draw(ceilings(result))
    return result, draw(expected_ids(system.core_ids))


CORES = ["c0", "c1", "c2", "c3", "cpu"]


@st.composite
def dense_schedules(draw):
    """Up to six hand-made tests on short windows, two external and one
    processor interface, three resources and powers whose sums round
    differently by order: overlaps, zero-cycle tests and early processor use
    abound, and now and then a repeated core or an inconsistent time."""
    cores = draw(st.lists(st.sampled_from(CORES), min_size=1, unique=True))
    if draw(st.integers(0, 7)) == 0:
        cores.append(draw(st.sampled_from(cores)))
    assignments = []
    for core in cores:
        start = draw(st.integers(0, 12))
        duration = draw(st.integers(0, 6))
        job_ = job(
            core,
            draw(st.sampled_from(["ext0", "ext1", "proc0"])),
            duration=duration,
            power=draw(st.sampled_from([0.1, 0.2, 0.3, 0.7, 10.0])),
            resources=draw(st.lists(st.sampled_from([PORT_A, PORT_B, LINK]), unique=True)),
            mask=0,
        )
        assignments.append(Assignment(job_, start, start + duration))
    if draw(st.integers(0, 7)) == 0:
        draw(st.sampled_from([shift_end, negative_start]))(draw, assignments)
    result = ScheduleResult(
        system_name="dense",
        scheduler_name="manual",
        assignments=assignments,
        interfaces=[external(), external("ext1"), processor()],
        power_constraint=PowerConstraint.unconstrained(),
    )
    result.power_constraint = draw(ceilings(result))
    return result, draw(expected_ids(sorted(set(cores))))


oracle_settings = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def note(outcome):
    """Label the example by the check that failed, for the statistics."""
    event("passes" if outcome is None else " ".join(outcome[1].split()[:2]))


@oracle_settings
@given(case=faulted_plans())
def test_faulted_plans_get_the_reference_verdict(case):
    note(assert_agrees(*case))


@oracle_settings
@given(case=dense_schedules())
def test_dense_schedules_get_the_reference_verdict(case):
    note(assert_agrees(*case))


# ----------------------------------------------------------------------
# One pinned case per fault: each must fail, with the reference message.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def d695_plan():
    system = build_paper_system("d695_leon")
    return system, TestPlanner(system).plan(reused_processors=2)


def find(assignments, predicate):
    return next(i for i, a in enumerate(assignments) if predicate(a))


def on_interface(plan, kind):
    wanted = {i.identifier for i in plan.interfaces if i.kind.value == kind}
    return lambda a: a.job.interface_id in wanted


def pinned_faults(system, plan):
    """(name, message fragment, assignments, expected core ids, constraint)
    per fault."""
    base = list(plan.assignments)
    ids = system.core_ids

    def edit(index, assignment):
        assignments = list(base)
        assignments[index] = assignment
        return assignments

    def elsewhere(job_, **changes):
        """``job_`` on an interface the plan does not offer: it can clash
        on resources only."""
        return dataclasses.replace(job_, interface_id="ext-elsewhere", **changes)

    first = base[0]
    same_interface = 1 + find(base[1:], lambda a: a.job.interface_id == first.job.interface_id)
    linked = 1 + find(base[1:], lambda a: set(a.job.resources) & set(first.job.resources))
    proc = find(base, on_interface(plan, "processor"))
    proc_interface = base[proc].job.interface_id
    proc_core = next(
        i.processor_core_id for i in plan.interfaces if i.identifier == proc_interface
    )
    core_of_proc = find(base, lambda a: a.job.core_id == proc_core)
    peak = plan.peak_power()

    yield (
        "end before start",
        "inconsistent times",
        edit(0, Assignment(first.job, first.start + 5, first.start + 4)),
        ids,
        None,
    )
    yield (
        "end off duration",
        "end does not equal",
        edit(0, Assignment(first.job, first.start, first.end + 1)),
        ids,
        None,
    )
    yield "negative start", "inconsistent times", edit(0, retimed(first, -3)), ids, None
    yield (
        "duplicate core",
        "more than once",
        [*base, retimed(first, plan.makespan)],
        ids,
        None,
    )
    yield "missing core", "cores never tested", base[1:], ids, None
    yield "unexpected core", "unexpected cores", base, ids[1:], None
    yield (
        "interface overlap",
        "at the same time",
        edit(same_interface, retimed(base[same_interface], first.start + 1)),
        ids,
        None,
    )
    yield (
        "resource overlap",
        "NoC resource",
        edit(linked, retimed(base[linked], first.start + 1, elsewhere(base[linked].job))),
        ids,
        None,
    )
    zero = elsewhere(
        base[1].job, duration=0, resources=(*base[1].job.resources, first.job.resources[0])
    )
    yield (
        "resource overlap behind a zero-cycle test",
        "NoC resource",
        edit(1, Assignment(zero, first.start + 1, first.start + 1)),
        ids,
        None,
    )
    early = dataclasses.replace(base[proc].job, resources=())
    yield (
        "processor interface used early",
        "before its processor core finishes",
        edit(proc, retimed(base[proc], base[core_of_proc].end - 1, early)),
        ids,
        None,
    )
    yield (
        "processor core never tested",
        "is used but its processor core",
        [a for i, a in enumerate(base) if i != core_of_proc],
        None,
        None,
    )
    yield (
        "ceiling past the tolerance",
        "exceeds the ceiling",
        base,
        ids,
        PowerConstraint(limit=peak - 2e-9),
    )
    yield (
        "ceiling far under the peak",
        "exceeds the ceiling",
        base,
        ids,
        PowerConstraint(limit=peak / 2),
    )


def test_every_pinned_fault_fails_with_the_reference_message(d695_plan):
    system, plan = d695_plan
    names = []
    for name, fragment, assignments, expected, constraint in pinned_faults(system, plan):
        result = dataclasses.replace(
            plan,
            assignments=assignments,
            power_constraint=constraint or plan.power_constraint,
        )
        outcome = assert_agrees(result, expected)
        assert outcome is not None and fragment in outcome[1], (name, outcome)
        names.append(name)
    assert len(names) == 13


def test_ceilings_at_and_just_below_the_peak(d695_plan):
    """At the peak and one ulp under it both pass; on the tolerance's edge
    they agree, whichever way the rounding of ``limit + 1e-9`` goes."""
    system, plan = d695_plan
    peak = plan.peak_power()
    for limit in (peak, math.nextafter(peak, 0.0)):
        result = dataclasses.replace(plan, power_constraint=PowerConstraint(limit=limit))
        assert assert_agrees(result, system.core_ids) is None
    edge = peak - 1e-9
    for limit in (math.nextafter(edge, math.inf), edge, math.nextafter(edge, 0.0)):
        result = dataclasses.replace(plan, power_constraint=PowerConstraint(limit=limit))
        assert_agrees(result, system.core_ids)

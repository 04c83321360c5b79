"""Tests of the schedule result container and its invariant checker."""

import dataclasses
import re
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.errors import ScheduleValidationError
from repro.noc.links import resource_mask
from repro.schedule import result as result_module
from repro.schedule.job import TestJob
from repro.schedule.power import PowerConstraint
from repro.schedule.result import (
    Assignment,
    ScheduleResult,
    _check_interface_overlaps,
    _check_resource_overlaps,
    validate_schedule,
)
from repro.tam.interfaces import InterfaceKind, TestInterface

from tests.schedule import reference_validation

PORT_A = ((0, 0), (0, 0))
PORT_B = ((1, 1), (1, 1))
LINK = ((0, 0), (1, 0))


def job(core, interface, duration=100, power=10.0, resources=(PORT_A,), mask=None):
    return TestJob(
        core_id=core,
        interface_id=interface,
        duration=duration,
        power=power,
        resources=tuple(resources),
        stimulus_hops=1,
        response_hops=1,
        setup_cycles=5,
        patterns=3,
        cycles_per_pattern=30,
        mask=resource_mask(resources, width=3) if mask is None else mask,
    )


def external(identifier="ext0"):
    return TestInterface(
        identifier=identifier,
        kind=InterfaceKind.EXTERNAL,
        source_node=(0, 0),
        sink_node=(1, 1),
    )


def processor(identifier="proc0", core_id="cpu"):
    return TestInterface(
        identifier=identifier,
        kind=InterfaceKind.PROCESSOR,
        source_node=(2, 2),
        sink_node=(2, 2),
        processor_core_id=core_id,
    )


def verdict_of(result, validator=result_module):
    """``None`` when ``validator`` passes ``result``, else its message."""
    try:
        validator.validate_schedule(dataclasses.replace(result))
    except ScheduleValidationError as exc:
        return str(exc)
    return None


def make_result(assignments, interfaces=None, constraint=None):
    return ScheduleResult(
        system_name="toy",
        scheduler_name="manual",
        assignments=assignments,
        interfaces=interfaces or [external()],
        power_constraint=constraint or PowerConstraint.unconstrained(),
    )


class TestScheduleResult:
    def test_makespan_and_counts(self):
        result = make_result(
            [
                Assignment(job("a", "ext0", duration=100), 0, 100),
                Assignment(job("b", "ext0", duration=50), 100, 150),
            ]
        )
        assert result.makespan == 150
        assert result.test_count == 2
        assert result.assignment_for("b").start == 100
        with pytest.raises(KeyError):
            result.assignment_for("ghost")

    def test_empty_schedule(self):
        result = make_result([])
        assert result.makespan == 0
        assert result.average_parallelism() == 0.0
        assert result.peak_power() == 0.0

    def test_power_profile_and_peak(self):
        result = make_result(
            [
                Assignment(job("a", "ext0", duration=100, power=10.0), 0, 100),
                Assignment(job("b", "proc0", duration=100, power=15.0, resources=(PORT_B,)), 50, 150),
            ],
            interfaces=[external(), processor()],
        )
        assert result.peak_power() == pytest.approx(25.0)
        profile = dict(result.power_profile())
        assert profile[0] == pytest.approx(10.0)
        assert profile[50] == pytest.approx(25.0)
        assert profile[100] == pytest.approx(15.0)
        assert profile[150] == pytest.approx(0.0)

    def test_power_profile_sums_in_any_order_to_the_same_value(self):
        """Each point is the correctly rounded exact sum of the running
        powers: 0.1 + 0.2 + 0.3 is 0.6000000000000001 summed left to right
        and 0.6 summed right to left; the profile says 0.6 either way."""
        powers = (0.1, 0.2, 0.3)
        for order in (powers, powers[::-1]):
            result = make_result(
                [
                    Assignment(job(f"c{i}", f"ext{i}", power=power), 0, 100)
                    for i, power in enumerate(order)
                ]
            )
            assert result.power_profile() == [(0, 0.6), (100, 0.0)]
            assert result.peak_power() == 0.6

    def test_peak_power_follows_a_changed_assignment_list(self):
        result = make_result([Assignment(job("a", "ext0", power=10.0), 0, 100)])
        assert result.peak_power() == 10.0
        result.assignments.append(
            Assignment(job("b", "ext1", power=5.0, resources=(PORT_B,)), 50, 150)
        )
        assert result.peak_power() == 15.0
        assert dict(result.power_profile())[150] == 0.0
        result.assignments[1] = Assignment(
            job("b", "ext1", power=7.0, resources=(PORT_B,)), 50, 150
        )
        assert result.peak_power() == 17.0
        result.assignments = [Assignment(job("c", "ext0", power=3.0), 0, 10)]
        assert result.peak_power() == 3.0
        assert result.power_profile() == [(0, 3.0), (10, 0.0)]

    def test_a_valid_plan_derives_no_profile(self, monkeypatch):
        """The one sweep proves the plan valid and hands its exact peak to
        ``peak_power()``; no power profile is derived."""
        derived = []
        original = result_module._power_profile

        def counted(assignments):
            derived.append(len(assignments))
            return original(assignments)

        monkeypatch.setattr(result_module, "_power_profile", counted)
        result = make_result(
            [Assignment(job("a", "ext0", power=10.0), 0, 100)],
            constraint=PowerConstraint(limit=20.0),
        )
        validate_schedule(result, expected_core_ids=["a"])
        assert result.peak_power() == 10.0
        assert derived == []

    def test_peak_memo_stays_out_of_repr_and_equality(self):
        assignments = [Assignment(job("a", "ext0", power=10.0), 0, 100)]
        derived = make_result(list(assignments))
        plain = make_result(list(assignments))
        before = repr(derived)
        derived.peak_power()
        assert "_peak_memo" in derived.__dict__
        assert repr(derived) == before == repr(plain)
        assert derived == plain
        assert dataclasses.replace(derived) == plain
        assert "_peak_memo" not in dataclasses.replace(derived).__dict__

    def test_average_parallelism(self):
        result = make_result(
            [
                Assignment(job("a", "ext0", duration=100), 0, 100),
                Assignment(job("b", "proc0", duration=100, resources=(PORT_B,)), 0, 100),
            ],
            interfaces=[external(), processor()],
        )
        assert result.average_parallelism() == pytest.approx(2.0)

    def test_interface_busy_cycles(self):
        result = make_result(
            [
                Assignment(job("a", "ext0", duration=100), 0, 100),
                Assignment(job("b", "ext0", duration=40), 100, 140),
            ]
        )
        assert result.interface_busy_cycles() == {"ext0": 140}


class TestValidateSchedule:
    def test_valid_schedule_passes(self):
        result = make_result(
            [
                Assignment(job("a", "ext0"), 0, 100),
                Assignment(job("b", "ext0"), 100, 200),
            ]
        )
        validate_schedule(result, expected_core_ids=["a", "b"])

    def test_missing_core_detected(self):
        result = make_result([Assignment(job("a", "ext0"), 0, 100)])
        with pytest.raises(ScheduleValidationError, match="never tested"):
            validate_schedule(result, expected_core_ids=["a", "b"])

    def test_unexpected_core_detected(self):
        result = make_result(
            [
                Assignment(job("a", "ext0"), 0, 100),
                Assignment(job("x", "ext0"), 100, 200),
            ]
        )
        with pytest.raises(ScheduleValidationError, match="unexpected"):
            validate_schedule(result, expected_core_ids=["a"])

    def test_duplicate_core_detected(self):
        result = make_result(
            [
                Assignment(job("a", "ext0"), 0, 100),
                Assignment(job("a", "ext0"), 100, 200),
            ]
        )
        with pytest.raises(ScheduleValidationError, match="more than once"):
            validate_schedule(result)

    def test_interface_overlap_detected(self):
        result = make_result(
            [
                Assignment(job("a", "ext0", resources=(PORT_A,)), 0, 100),
                Assignment(job("b", "ext0", resources=(PORT_B,)), 50, 150),
            ]
        )
        with pytest.raises(
            ScheduleValidationError,
            match="^interface 'ext0' runs 'a' and 'b' at the same time$",
        ):
            validate_schedule(result)

    def test_resource_overlap_detected(self):
        result = make_result(
            [
                Assignment(job("a", "ext0", resources=(LINK,)), 0, 100),
                Assignment(job("b", "proc0", resources=(LINK,)), 50, 150),
            ],
            interfaces=[external(), processor()],
        )
        with pytest.raises(
            ScheduleValidationError,
            match=(
                r"^NoC resource \(\(0, 0\), \(1, 0\)\) is used simultaneously "
                r"by 'a' and 'b'$"
            ),
        ):
            validate_schedule(result)

    def test_resource_overlap_detected_without_masks(self):
        """Validation checks ``resources``, never the allocator's masks: the
        one sweep numbers the links itself."""
        result = make_result(
            [
                Assignment(job("a", "ext0", resources=(LINK,), mask=0), 0, 100),
                Assignment(job("b", "proc0", resources=(LINK,), mask=0), 50, 150),
            ],
            interfaces=[external(), processor()],
        )
        with pytest.raises(
            ScheduleValidationError,
            match=(
                r"^NoC resource \(\(0, 0\), \(1, 0\)\) is used simultaneously "
                r"by 'a' and 'b'$"
            ),
        ):
            validate_schedule(result)

    def test_a_memo_entry_is_never_read_for_another_job(self):
        """The memo holds each job it keys by identity, so a job that dies
        cannot hand its identity, and its holds, to a later job."""
        for _ in range(50):
            lone = job("a", "ext0", resources=(PORT_A,))
            validate_schedule(make_result([Assignment(lone, 0, 100)]))
            entry = result_module._TABLE.jobs[id(lone)]
            assert entry[0] is lone
            del lone, entry
            first = job("b", "ext0", resources=(LINK,))
            second = job("c", "ext1", resources=(LINK,))
            result = make_result(
                [Assignment(first, 0, 100), Assignment(second, 50, 150)],
                interfaces=[external(), external("ext1")],
            )
            with pytest.raises(ScheduleValidationError, match="used simultaneously"):
                validate_schedule(result)

    def test_equal_jobs_keep_their_own_entries(self):
        twin = job("a", "ext0")
        other = job("a", "ext0")
        assert twin == other and twin is not other
        for each in (twin, other):
            validate_schedule(make_result([Assignment(each, 0, 100)]))
        assert result_module._TABLE.jobs[id(twin)][0] is twin
        assert result_module._TABLE.jobs[id(other)][0] is other

    def test_the_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(result_module, "MAX_MEMO_JOBS", 8)
        monkeypatch.setattr(result_module, "_TABLE", result_module._HoldTable())
        for index in range(40):
            validate_schedule(make_result([Assignment(job(f"c{index}", "ext0"), 0, 100)]))
            assert len(result_module._TABLE.jobs) <= 8

    def test_a_zero_cycle_test_beside_a_start_on_its_link_is_valid(self):
        """The sweep cannot rule out a clash between two tests that start
        together when one takes no time; the checks then find none."""
        result = make_result(
            [
                Assignment(job("a", "ext0", duration=10, resources=(LINK,)), 0, 10),
                Assignment(job("z", "ext1", duration=0, resources=(LINK,)), 0, 0),
            ],
            interfaces=[external(), external("ext1")],
            constraint=PowerConstraint(limit=10.0),
        )
        validate_schedule(result, expected_core_ids=["a", "z"])
        assert result.peak_power() == 10.0

    @pytest.mark.parametrize("interface, resources", [("ext1", (LINK,)), ("ext0", (PORT_B,))])
    def test_a_zero_cycle_test_inside_a_window_clashes(self, interface, resources):
        """A test of zero cycles holds nothing, yet clashes with a test that
        holds its interface or link across its instant."""
        result = make_result(
            [
                Assignment(job("a", "ext0", duration=10, resources=(LINK,)), 0, 10),
                Assignment(job("z", interface, duration=0, resources=resources), 5, 5),
            ],
            interfaces=[external(), external("ext1")],
        )
        expected = (
            "NoC resource ((0, 0), (1, 0)) is used simultaneously by 'a' and 'z'"
            if resources == (LINK,)
            else "interface 'ext0' runs 'a' and 'z' at the same time"
        )
        assert verdict_of(result) == verdict_of(result, reference_validation) == expected

    def test_a_link_repeated_within_a_job_clashes_with_itself(self):
        repeated = job("a", "ext0", duration=10, resources=(LINK, LINK))
        result = make_result([Assignment(repeated, 0, 10)])
        assert verdict_of(result) == verdict_of(result, reference_validation)
        with pytest.raises(ScheduleValidationError, match="by 'a' and 'a'$"):
            validate_schedule(result)

    def test_processor_used_before_tested_detected(self):
        result = make_result(
            [
                Assignment(job("cpu", "ext0", resources=(PORT_A,)), 0, 100),
                Assignment(job("b", "proc0", resources=(PORT_B,)), 50, 150),
            ],
            interfaces=[external(), processor(core_id="cpu")],
        )
        with pytest.raises(ScheduleValidationError, match="before its processor"):
            validate_schedule(result)

    def test_processor_never_tested_detected(self):
        result = make_result(
            [Assignment(job("b", "proc0", resources=(PORT_B,)), 0, 100)],
            interfaces=[external(), processor(core_id="cpu")],
        )
        with pytest.raises(ScheduleValidationError, match="never tested"):
            validate_schedule(result)

    def test_power_violation_detected(self):
        constraint = PowerConstraint(limit=20.0)
        result = make_result(
            [
                Assignment(job("a", "ext0", power=15.0, resources=(PORT_A,)), 0, 100),
                Assignment(job("b", "ext1", power=15.0, resources=(PORT_B,)), 50, 150),
            ],
            interfaces=[external(), external("ext1")],
            constraint=constraint,
        )
        with pytest.raises(ScheduleValidationError, match="power"):
            validate_schedule(result)

    def test_inconsistent_times_detected(self):
        result = make_result([Assignment(job("a", "ext0", duration=100), 0, 50)])
        with pytest.raises(ScheduleValidationError, match="duration"):
            validate_schedule(result)

    def test_negative_start_detected(self):
        result = make_result([Assignment(job("a", "ext0", duration=10), -5, 5)])
        with pytest.raises(ScheduleValidationError, match="inconsistent"):
            validate_schedule(result)


def scan_overlaps(assignments, keys_of):
    """The key-by-key scan the sweep replaced: per key in order of first use,
    the holders by start, consecutive pairs only; the first overlap found."""
    usage = {}
    for assignment in assignments:
        for key in keys_of(assignment):
            usage.setdefault(key, []).append(assignment)
    for key, holders in usage.items():
        ordered = sorted(holders, key=lambda a: a.start)
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.start < later.end and later.start < earlier.end:
                return key, earlier.core_id, later.core_id
    return None


def overlaps(first, second):
    return first.start < second.end and second.start < first.end


@st.composite
def overlapping_schedules(draw):
    """Up to eight tests on two interfaces and three resources; short
    windows so that overlaps, shared starts and zero-cycle tests abound."""
    assignments = []
    for index in range(draw(st.integers(min_value=1, max_value=8))):
        start = draw(st.integers(min_value=0, max_value=12))
        duration = draw(st.integers(min_value=0, max_value=6))
        resources = draw(st.lists(st.sampled_from([PORT_A, PORT_B, LINK]), unique=True))
        interface = draw(st.sampled_from(["ext0", "ext1"]))
        assignments.append(
            Assignment(
                job(f"c{index}", interface, duration=duration, resources=resources, mask=0),
                start,
                start + duration,
            )
        )
    return assignments


class TestOverlapSweep:
    """The one-pass sweeps against the key-by-key scan they replaced."""

    @given(assignments=overlapping_schedules())
    def test_sweep_reports_what_the_scan_reports(self, assignments):
        result = make_result(assignments, interfaces=[external(), external("ext1")])
        for check, keys_of, message in (
            (
                _check_interface_overlaps,
                lambda a: (a.interface_id,),
                "interface {0!r} runs {1!r} and {2!r} at the same time",
            ),
            (
                _check_resource_overlaps,
                lambda a: a.job.resources,
                "NoC resource {0} is used simultaneously by {1!r} and {2!r}",
            ),
        ):
            scanned = scan_overlaps(assignments, keys_of)
            try:
                check(result)
            except ScheduleValidationError as exc:
                swept = str(exc)
            else:
                swept = None
            if all(a.duration for a in assignments):
                assert swept == (None if scanned is None else message.format(*scanned))
            elif scanned is not None:
                # The scan misses an overlap hidden behind a zero-cycle
                # test; the sweep may report that one first, never nothing.
                assert swept is not None
            if swept is not None:
                by_core = {a.core_id: a for a in assignments}
                first, second = (by_core[c] for c in re.findall(r"'(c\d+)'", swept))
                assert overlaps(first, second)

    def test_overlap_behind_a_zero_cycle_test_is_found(self):
        """``z`` takes no time and sorts between ``a`` and ``c``: comparing
        consecutive holders only pairs ``a`` with ``z`` and ``z`` with ``c``."""
        result = make_result(
            [
                Assignment(job("a", "ext0", duration=10, resources=(LINK,)), 0, 10),
                Assignment(job("z", "ext1", duration=0, resources=(LINK,)), 0, 0),
                Assignment(job("c", "proc0", duration=2, resources=(LINK,)), 5, 7),
            ],
            interfaces=[external(), external("ext1"), processor()],
        )
        assert scan_overlaps(result.assignments, lambda a: a.job.resources) is None
        with pytest.raises(ScheduleValidationError, match="by 'a' and 'c'$"):
            _check_resource_overlaps(result)


#: Powers whose sums round differently in different orders, repeated.
POWERS = [0.1, 0.2, 0.3, 0.7, 1 / 3, 10.0, 123.456, 1e-3, 0.0]


@st.composite
def running_schedules(draw):
    """Valid schedules of up to twelve tests, each on its own interface and
    link, with tied starts and ends, zero-cycle tests and repeated powers."""
    assignments = []
    for index in range(draw(st.integers(min_value=0, max_value=12))):
        start = draw(st.integers(min_value=0, max_value=8))
        duration = draw(st.integers(min_value=0, max_value=5))
        power = draw(
            st.one_of(
                st.sampled_from(POWERS),
                st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False),
            )
        )
        link = ((index, 0), (index, 1))
        assignments.append(
            Assignment(
                job(f"c{index}", f"ext{index}", duration, power, resources=(link,)),
                start,
                start + duration,
            )
        )
    return assignments


class TestOnePassPeak:
    """The one sweep's peak against the power profile's."""

    @given(assignments=running_schedules())
    def test_the_sweep_peak_is_the_profile_peak_bit_for_bit(self, assignments):
        profile_peak = max(
            (power for _, power in result_module._power_profile(assignments)), default=0.0
        )
        result = make_result(
            assignments,
            interfaces=[external(f"ext{i}") for i in range(len(assignments))],
        )
        swept = result_module._proven_peak(result, tuple(assignments), None)
        if swept is None:
            # Only a power finer than the sweep's unit is left to the profile.
            unit = 1 / result_module._POWER_UNIT
            assert any(a.power % unit for a in assignments)
        else:
            assert swept.hex() == profile_peak.hex()
        validate_schedule(result)
        assert result.peak_power().hex() == profile_peak.hex()


def test_threads_validating_through_a_replaced_memo_get_the_reference_verdicts(
    monkeypatch,
):
    """Eight threads on two cores, switching every microsecond, validate
    valid and clashing plans of fresh jobs while a tiny bound keeps
    replacing the memo's table: every verdict is the reference's."""
    monkeypatch.setattr(result_module, "MAX_MEMO_JOBS", 3)
    monkeypatch.setattr(result_module, "_TABLE", result_module._HoldTable())
    wrong = []

    def worker(offset):
        for index in range(200):
            link = ((offset, index % 5), (offset, index % 5 + 1))
            other = ((offset, 9), (offset, 10))
            clash = index % 2 == 0
            result = make_result(
                [
                    Assignment(job("a", "ext0", duration=10, resources=(link,)), 0, 10),
                    Assignment(
                        job("b", "ext1", duration=10, resources=(link if clash else other,)),
                        5,
                        15,
                    ),
                ],
                interfaces=[external(), external("ext1")],
            )
            lean = verdict_of(result)
            if lean != verdict_of(result, reference_validation) or (lean is None) == clash:
                wrong.append((offset, index, lean))

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []

"""Tests of the circuit-switched NoC simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.noc.simulator import CircuitSwitchedSimulator, TransferRequest

from tests.noc.reference_simulator import reference_run


def request(name, resources, duration, release=0, priority=0):
    return TransferRequest(
        name=name,
        resources=tuple(resources),
        duration=duration,
        release_time=release,
        priority=priority,
    )


LINK_A = ((0, 0), (1, 0))
LINK_B = ((1, 0), (2, 0))
LINK_C = ((2, 2), (2, 3))


class TestTransferRequest:
    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            request("x", [LINK_A], -1)

    def test_negative_release_rejected(self):
        with pytest.raises(ConfigurationError):
            TransferRequest(name="x", resources=(LINK_A,), duration=1, release_time=-1)


class TestCircuitSwitchedSimulator:
    def test_disjoint_transfers_run_in_parallel(self):
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("a", [LINK_A], 100))
        simulator.add(request("b", [LINK_C], 80))
        records = {r.name: r for r in simulator.run()}
        assert records["a"].start == 0
        assert records["b"].start == 0

    def test_conflicting_transfers_serialise(self):
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("a", [LINK_A, LINK_B], 100))
        simulator.add(request("b", [LINK_B], 50))
        records = {r.name: r for r in simulator.run()}
        assert records["a"].start == 0
        assert records["b"].start == 100
        assert records["b"].end == 150

    def test_priority_breaks_ties(self):
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("low", [LINK_A], 10, priority=5))
        simulator.add(request("high", [LINK_A], 10, priority=1))
        records = {r.name: r for r in simulator.run()}
        assert records["high"].start == 0
        assert records["low"].start == 10

    def test_release_time_respected(self):
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("late", [LINK_A], 10, release=42))
        (record,) = simulator.run()
        assert record.start == 42
        assert record.end == 52

    def test_replay_of_feasible_schedule_keeps_start_times(self):
        # Feed the simulator transfers with release times equal to a valid
        # schedule's start times: nothing should be delayed.
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("a", [LINK_A, LINK_B], 100, release=0))
        simulator.add(request("b", [LINK_B], 50, release=100))
        simulator.add(request("c", [LINK_A], 30, release=100))
        records = {r.name: r for r in simulator.run()}
        assert records["a"].start == 0
        assert records["b"].start == 100
        assert records["c"].start == 100

    def test_records_report_duration(self):
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("a", [LINK_A], 17))
        (record,) = simulator.run()
        assert record.duration == 17

    def test_reset_clears_requests(self):
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("a", [LINK_A], 10))
        simulator.reset()
        assert simulator.run() == []

    def test_zero_duration_transfer(self):
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("a", [LINK_A], 0))
        simulator.add(request("b", [LINK_A], 10))
        records = {r.name: r for r in simulator.run()}
        assert records["a"].duration == 0
        assert records["b"].end == 10


# A small shared pool keeps resource conflicts frequent; short names make
# duplicates common; durations and release times include zero.
POOL = tuple(((x, 0), (x + 1, 0)) for x in range(5))

transfer_requests = st.builds(
    TransferRequest,
    name=st.sampled_from(["a", "b", "c", "d"]),
    resources=st.lists(st.sampled_from(POOL), max_size=3).map(tuple),
    duration=st.integers(min_value=0, max_value=20),
    release_time=st.integers(min_value=0, max_value=30),
    priority=st.integers(min_value=0, max_value=2),
)


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(requests=st.lists(transfer_requests, max_size=25))
    def test_records_equal_reference(self, requests):
        simulator = CircuitSwitchedSimulator()
        simulator.add_all(requests)
        assert simulator.run() == reference_run(requests)

    def test_empty_set(self):
        assert CircuitSwitchedSimulator().run() == reference_run([]) == []

    def test_duplicate_names_keep_every_record(self):
        requests = [
            request("dup", [LINK_A], 5),
            request("dup", [LINK_A], 3),
            request("dup", [LINK_B], 0),
        ]
        simulator = CircuitSwitchedSimulator()
        simulator.add_all(requests)
        records = simulator.run()
        assert records == reference_run(requests)
        assert [(r.start, r.end) for r in records] == [(0, 5), (0, 0), (5, 8)]

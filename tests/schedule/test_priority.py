"""Tests of the distance-based core priority."""

import pytest

from repro.cores.core import build_core
from repro.errors import SchedulingError
from repro.noc.network import Network, NocConfig
from repro.schedule.priority import distance_priority, priority_order
from repro.tam.interfaces import InterfaceKind, TestInterface

from tests.conftest import make_module


@pytest.fixture
def network():
    return Network(NocConfig(width=4, height=4, flit_width=16))


def external_at(source, sink):
    return TestInterface(
        identifier="ext0", kind=InterfaceKind.EXTERNAL, source_node=source, sink_node=sink
    )


def placed_core(name, node, patterns=10):
    core = build_core(make_module(name, patterns=patterns), flit_width=16)
    core.place_at(node)
    return core


class TestDistancePriority:
    def test_closer_cores_first(self, network):
        near = placed_core("near", (0, 1))
        far = placed_core("far", (3, 3))
        interfaces = [external_at((0, 0), (0, 0))]
        key = distance_priority([near, far], interfaces, network)
        assert priority_order([far, near], key) == [near, far]

    def test_distance_to_any_interface_endpoint_counts(self, network):
        core = placed_core("c", (3, 3))
        interfaces = [external_at((0, 0), (3, 3))]
        key = distance_priority([core], interfaces, network)
        distance = key(core)[0]
        assert distance == 0  # adjacent to the sink port's node

    def test_tie_broken_by_longer_test_first(self, network):
        small = placed_core("small", (1, 0), patterns=5)
        large = placed_core("large", (0, 1), patterns=500)
        interfaces = [external_at((0, 0), (0, 0))]
        key = distance_priority([small, large], interfaces, network)
        assert priority_order([small, large], key) == [large, small]

    def test_unplaced_core_raises(self, network):
        core = build_core(make_module("floating"), flit_width=16)
        interfaces = [external_at((0, 0), (0, 0))]
        key = distance_priority([core], interfaces, network)
        with pytest.raises(SchedulingError):
            key(core)

    def test_no_interfaces_raises(self, network):
        with pytest.raises(SchedulingError):
            distance_priority([placed_core("c", (0, 0))], [], network)

    def test_deterministic_order(self, network):
        cores = [placed_core(f"c{i}", (i % 4, i // 4)) for i in range(8)]
        interfaces = [external_at((0, 0), (3, 3))]
        key = distance_priority(cores, interfaces, network)
        first = priority_order(cores, key)
        second = priority_order(list(reversed(cores)), key)
        assert [c.identifier for c in first] == [c.identifier for c in second]

"""Tests of the interface availability bookkeeping."""

import pytest

from repro.errors import ResourceError
from repro.tam.interfaces import InterfaceKind, TestInterface
from repro.tam.pool import NEVER, ResourcePool


def external(identifier="ext0"):
    return TestInterface(
        identifier=identifier,
        kind=InterfaceKind.EXTERNAL,
        source_node=(0, 0),
        sink_node=(1, 1),
    )


def processor(identifier="proc0", core="cpu0"):
    return TestInterface(
        identifier=identifier,
        kind=InterfaceKind.PROCESSOR,
        source_node=(2, 2),
        sink_node=(2, 2),
        cycles_per_pattern=10,
        processor_core_id=core,
    )


class TestResourcePool:
    def test_external_available_immediately(self):
        pool = ResourcePool([external()])
        assert [state.identifier for state in pool.available(0)] == ["ext0"]

    def test_processor_unavailable_until_enabled(self):
        pool = ResourcePool([external(), processor()])
        assert [state.identifier for state in pool.available(0)] == ["ext0"]
        pool.enable("proc0", 500)
        assert [state.identifier for state in pool.available(400)] == ["ext0"]
        available = [state.identifier for state in pool.available(500)]
        assert set(available) == {"ext0", "proc0"}

    def test_occupy_and_release(self):
        pool = ResourcePool([external()])
        pool.occupy("ext0", 0, 100)
        assert pool.available(50) == []
        assert [s.identifier for s in pool.available(100)] == ["ext0"]

    def test_occupy_before_available_rejected(self):
        pool = ResourcePool([external()])
        pool.occupy("ext0", 0, 100)
        with pytest.raises(ResourceError):
            pool.occupy("ext0", 50, 80)

    def test_occupy_backwards_interval_rejected(self):
        pool = ResourcePool([external()])
        with pytest.raises(ResourceError):
            pool.occupy("ext0", 10, 5)

    def test_available_ordering_is_first_available_first(self):
        pool = ResourcePool([external("ext0"), processor("proc0")])
        pool.enable("proc0", 10)
        pool.occupy("ext0", 0, 50)
        # proc0 became available at 10, ext0 only at 50.
        order = [state.identifier for state in pool.available(60)]
        assert order == ["proc0", "ext0"]

    def test_next_event_after(self):
        pool = ResourcePool([external("ext0"), processor("proc0")])
        pool.occupy("ext0", 0, 75)
        assert pool.state("ext0").available_at() == 75
        pool.enable("proc0", 30)
        assert pool.state("proc0").available_at() == 30
        assert [s.identifier for s in pool.available(30)] == ["proc0"]
        assert [s.identifier for s in pool.available(75)] == ["proc0", "ext0"]

    def test_next_event_ignores_never(self):
        pool = ResourcePool([external(), processor()])
        assert pool.state("proc0").available_at() == NEVER
        assert [s.identifier for s in pool.available(10**9)] == ["ext0"]

    def test_pending_enablement(self):
        pool = ResourcePool([external(), processor()])
        assert [s.identifier for s in pool if s.enabled_at == NEVER] == ["proc0"]
        pool.enable("proc0", 5)
        assert pool.state("proc0").enabled_at == 5
        assert [s.identifier for s in pool if s.enabled_at == NEVER] == []

    def test_processor_interfaces_for(self):
        pool = ResourcePool([external(), processor("proc0", core="cpu0"), processor("proc1", core="cpu1")])
        assert [s.identifier for s in pool.processor_interfaces_for("cpu1")] == ["proc1"]

    def test_enable_external_rejected(self):
        pool = ResourcePool([external()])
        with pytest.raises(ResourceError):
            pool.enable("ext0", 10)

    def test_duplicate_identifier_rejected(self):
        with pytest.raises(ResourceError):
            ResourcePool([external(), external()])

    def test_empty_pool_rejected(self):
        with pytest.raises(ResourceError):
            ResourcePool([])

    def test_unknown_interface_rejected(self):
        pool = ResourcePool([external()])
        with pytest.raises(ResourceError):
            pool.state("nope")

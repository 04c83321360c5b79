"""Tests of test interface construction and validation."""

import copy
import dataclasses
import pickle

import pytest

from repro.errors import ResourceError
from repro.processors.characterization import characterize
from repro.processors.plasma import plasma_processor
from repro.tam.interfaces import (
    InterfaceKind,
    TestInterface,
    external_interface,
    processor_interface,
)
from repro.tam.ports import IoPort, PortDirection


class TestExternalInterface:
    def test_from_port_pair(self):
        interface = external_interface(
            "ext0",
            IoPort("in0", (0, 0), PortDirection.INPUT, power=5.0),
            IoPort("out0", (3, 3), PortDirection.OUTPUT, power=3.0),
        )
        assert interface.is_external
        assert not interface.is_processor
        assert not interface.requires_enablement
        assert interface.source_node == (0, 0)
        assert interface.sink_node == (3, 3)
        assert interface.cycles_per_pattern == 0
        assert interface.active_power == pytest.approx(8.0)

    def test_external_must_not_reference_processor(self):
        with pytest.raises(ResourceError):
            TestInterface(
                identifier="ext0",
                kind=InterfaceKind.EXTERNAL,
                source_node=(0, 0),
                sink_node=(1, 1),
                processor_core_id="leon1",
            )


class TestProcessorInterface:
    def test_from_characterization(self):
        plasma = plasma_processor(name="plasma1")
        characterization = characterize(plasma, flit_width=32)
        interface = processor_interface("proc.plasma1", characterization, (2, 1), "plasma1")
        assert interface.is_processor
        assert interface.requires_enablement
        assert interface.source_node == interface.sink_node == (2, 1)
        assert interface.cycles_per_pattern == 10
        assert interface.processor_core_id == "plasma1"
        assert interface.memory_bytes == plasma.memory_bytes

    def test_processor_requires_core_reference(self):
        with pytest.raises(ResourceError):
            TestInterface(
                identifier="p",
                kind=InterfaceKind.PROCESSOR,
                source_node=(0, 0),
                sink_node=(0, 0),
            )

    def test_negative_overhead_rejected(self):
        with pytest.raises(ResourceError):
            TestInterface(
                identifier="p",
                kind=InterfaceKind.PROCESSOR,
                source_node=(0, 0),
                sink_node=(0, 0),
                cycles_per_pattern=-1,
                processor_core_id="x",
            )

    def test_empty_identifier_rejected(self):
        with pytest.raises(ResourceError):
            TestInterface(
                identifier="",
                kind=InterfaceKind.EXTERNAL,
                source_node=(0, 0),
                sink_node=(0, 0),
            )


class TestInterfaceHash:
    def test_the_hash_is_derived_once_and_stays_out_of_repr_equality_and_pickles(self):
        interface = TestInterface(
            identifier="ext0",
            kind=InterfaceKind.EXTERNAL,
            source_node=(0, 0),
            sink_node=(1, 1),
        )
        before = repr(interface)
        value = hash(interface)
        assert interface.__dict__["_hash"] == value == hash(interface)
        assert repr(interface) == before
        twin = dataclasses.replace(interface)
        assert twin == interface and hash(twin) == value
        assert "_hash" not in copy.copy(interface).__dict__
        assert b"_hash" not in pickle.dumps(interface)
        loaded = pickle.loads(pickle.dumps(interface))
        assert loaded == interface and hash(loaded) == value
        assert {interface: 1}[loaded] == 1

    def test_interfaces_that_differ_in_any_field_are_apart(self):
        base = TestInterface(
            identifier="p",
            kind=InterfaceKind.PROCESSOR,
            source_node=(0, 0),
            sink_node=(0, 0),
            processor_core_id="x",
        )
        variants = [
            dataclasses.replace(base, identifier="q"),
            dataclasses.replace(base, source_node=(0, 1)),
            dataclasses.replace(base, sink_node=(1, 0)),
            dataclasses.replace(base, cycles_per_pattern=3),
            dataclasses.replace(base, active_power=1.5),
            dataclasses.replace(base, processor_core_id="y"),
            dataclasses.replace(base, memory_bytes=64),
        ]
        table = {base: "base"}
        assert all(variant != base and variant not in table for variant in variants)

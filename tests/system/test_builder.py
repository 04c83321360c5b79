"""Tests of the system builder and SocSystem container."""

import copy
import pickle

import pytest

from repro.errors import ConfigurationError, ResourceError
from repro.noc.network import NocConfig
from repro.processors.plasma import plasma_processor
from repro.system.builder import SystemBuilder
from repro.tam.ports import PortDirection



def builder(name="sys", width=3, height=3, flit_width=16):
    return SystemBuilder(name, NocConfig(width=width, height=height, flit_width=flit_width))


class TestSystemBuilder:
    def test_build_complete_system(self, toy_benchmark):
        system = (
            builder()
            .add_benchmark(toy_benchmark)
            .add_processors(plasma_processor(), 2)
            .add_io_port("in0", (0, 0), PortDirection.INPUT)
            .add_io_port("out0", (2, 2), PortDirection.OUTPUT)
            .build()
        )
        assert system.core_count == toy_benchmark.module_count + 2
        assert len(system.processor_cores) == 2
        assert len(system.regular_cores) == toy_benchmark.module_count
        assert all(core.placed for core in system.cores)
        assert set(system.processor_characterizations) == {"plasma1", "plasma2"}

    def test_processor_instances_get_numbered_names(self, toy_benchmark):
        system = (
            builder()
            .add_benchmark(toy_benchmark)
            .add_processors(plasma_processor(), 3)
            .add_io_port("in0", (0, 0), PortDirection.INPUT)
            .add_io_port("out0", (2, 2), PortDirection.OUTPUT)
            .build()
        )
        assert [core.identifier for core in system.processor_cores] == [
            "plasma1",
            "plasma2",
            "plasma3",
        ]

    def test_total_core_power_includes_processors(self, toy_benchmark):
        system = (
            builder()
            .add_benchmark(toy_benchmark)
            .add_processors(plasma_processor(), 1)
            .add_io_port("in0", (0, 0), PortDirection.INPUT)
            .add_io_port("out0", (2, 2), PortDirection.OUTPUT)
            .build()
        )
        expected = toy_benchmark.total_power + plasma_processor().self_test_power
        assert system.total_core_power == pytest.approx(expected)

    def test_core_lookup(self, toy_system):
        core = toy_system.core("toy.m1")
        assert core.identifier == "toy.m1"
        with pytest.raises(KeyError):
            toy_system.core("missing")

    def test_no_cores_rejected(self):
        with pytest.raises(ConfigurationError, match="no cores"):
            (
                builder()
                .add_io_port("in0", (0, 0), PortDirection.INPUT)
                .add_io_port("out0", (2, 2), PortDirection.OUTPUT)
                .build()
            )

    def test_missing_port_pair_rejected(self, toy_benchmark):
        with pytest.raises(ResourceError):
            builder().add_benchmark(toy_benchmark).add_io_port(
                "in0", (0, 0), PortDirection.INPUT
            ).build()

    def test_port_outside_grid_rejected(self, toy_benchmark):
        with pytest.raises(Exception):
            builder().add_benchmark(toy_benchmark).add_io_port(
                "in0", (9, 9), PortDirection.INPUT
            )

    def test_duplicate_port_name_rejected(self, toy_benchmark):
        b = builder().add_benchmark(toy_benchmark).add_io_port(
            "in0", (0, 0), PortDirection.INPUT
        )
        with pytest.raises(ResourceError):
            b.add_io_port("in0", (1, 0), PortDirection.INPUT)

    def test_duplicate_processor_names_rejected(self, toy_benchmark):
        b = builder().add_benchmark(toy_benchmark).add_processor(plasma_processor(name="p"))
        with pytest.raises(ConfigurationError):
            b.add_processor(plasma_processor(name="p"))

    def test_empty_system_name_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemBuilder("", NocConfig(width=2, height=2))


class TestSocSystemInterfaces:
    def test_external_interfaces(self, toy_system):
        interfaces = toy_system.external_interfaces()
        assert len(interfaces) == 1
        assert interfaces[0].is_external
        assert interfaces[0].source_node == (0, 0)
        assert interfaces[0].sink_node == (2, 2)

    def test_processor_interfaces_default_all(self, toy_system):
        interfaces = toy_system.processor_interfaces()
        assert len(interfaces) == 2
        assert all(interface.is_processor for interface in interfaces)

    def test_processor_interfaces_subset(self, toy_system):
        assert len(toy_system.processor_interfaces(1)) == 1
        assert toy_system.processor_interfaces(0) == []

    def test_processor_interfaces_located_at_processor_node(self, toy_system):
        interface = toy_system.processor_interfaces(1)[0]
        processor_core = toy_system.core(interface.processor_core_id)
        assert interface.source_node == processor_core.node

    def test_too_many_processors_rejected(self, toy_system):
        with pytest.raises(ConfigurationError):
            toy_system.processor_interfaces(5)

    def test_interfaces_combined(self, toy_system):
        assert len(toy_system.interfaces(2)) == 3

    def test_interfaces_are_a_fresh_list_per_call(self, toy_system):
        """The memoised interfaces come back as a new list every time, so a
        caller that changes its list cannot change the next answer."""
        first = toy_system.interfaces(1)
        expected = list(first)
        first.append(first[0])
        first.reverse()
        second = toy_system.interfaces(1)
        assert second == expected
        assert second is not toy_system.interfaces(1)
        second.clear()
        assert toy_system.interfaces(1) == expected
        assert toy_system.interfaces(None) == toy_system.interfaces(2)

    def test_an_invalid_reuse_level_still_raises_every_time(self, toy_system):
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                toy_system.interfaces(5)

    def test_interfaces_memo_stays_out_of_repr_equality_and_pickles(self, toy_system):
        before = repr(toy_system)
        toy_system.interfaces(2)
        assert repr(toy_system) == before
        copied = copy.copy(toy_system)
        assert "_interfaces_memo" in toy_system.__dict__
        assert "_interfaces_memo" not in copied.__dict__
        assert copied == toy_system
        assert b"_interfaces_memo" not in pickle.dumps(toy_system)
        assert pickle.loads(pickle.dumps(toy_system)).interfaces(2) == toy_system.interfaces(2)

    def test_power_and_core_ids_are_derived_once_and_stay_out_of_pickles(self, toy_system):
        ids = toy_system.core_ids
        ids.append("ghost")
        assert "ghost" not in toy_system.core_ids
        assert toy_system.core_ids == [core.identifier for core in toy_system.cores]
        total = toy_system.total_core_power
        assert total == sum(core.power for core in toy_system.cores)
        assert toy_system.total_core_power is total
        for memo in ("_core_ids_memo", "_total_core_power_memo"):
            assert memo in toy_system.__dict__
            assert memo not in copy.copy(toy_system).__dict__
            assert memo.encode() not in pickle.dumps(toy_system)
        loaded = pickle.loads(pickle.dumps(toy_system))
        assert loaded.core_ids == toy_system.core_ids
        assert loaded.total_core_power == total

    def test_describe_mentions_counts(self, toy_system):
        text = toy_system.describe()
        assert "toy_plasma" in text
        assert "2 processors" in text

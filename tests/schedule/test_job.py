"""Tests of test job construction."""

import pytest

from repro.cores.core import build_core
from repro.errors import SchedulingError
from repro.noc.links import local_port
from repro.noc.network import Network, NocConfig
from repro.schedule.job import build_job, cached_job, job_fits_memory
from repro.system.presets import build_paper_system
from repro.tam.interfaces import InterfaceKind, TestInterface

from tests.conftest import make_module


@pytest.fixture
def network():
    return Network(
        NocConfig(width=4, height=4, flit_width=16, routing_latency=4, flow_control_latency=1)
    )


@pytest.fixture
def core(network):
    core = build_core(
        make_module("cut", inputs=6, outputs=6, chain_lengths=(24, 24), patterns=10),
        flit_width=network.flit_width,
    )
    core.place_at((2, 1))
    return core


def external(source=(0, 0), sink=(3, 3)):
    return TestInterface(
        identifier="ext0",
        kind=InterfaceKind.EXTERNAL,
        source_node=source,
        sink_node=sink,
    )


def processor(node=(2, 3), core_id="cpu", cycles=10, power=200.0):
    return TestInterface(
        identifier="proc0",
        kind=InterfaceKind.PROCESSOR,
        source_node=node,
        sink_node=node,
        cycles_per_pattern=cycles,
        active_power=power,
        processor_core_id=core_id,
    )


class TestBuildJob:
    def test_duration_formula_external(self, network, core):
        job = build_job(core, external(), network)
        wrapper = core.wrapper
        setup = network.path_setup_cycles((0, 0), (2, 1)) + network.path_setup_cycles(
            (2, 1), (3, 3)
        )
        expected = (
            setup
            + core.patterns * (1 + max(wrapper.scan_in_length, wrapper.scan_out_length))
            + min(wrapper.scan_in_length, wrapper.scan_out_length)
        )
        assert job.duration == expected
        assert job.setup_cycles == setup
        assert job.stimulus_hops == 3
        assert job.response_hops == 3

    def test_processor_penalty_adds_per_pattern(self, network, core):
        external_job = build_job(core, external(), network)
        processor_job = build_job(core, processor(), network)
        per_pattern_delta = processor_job.cycles_per_pattern - external_job.cycles_per_pattern
        assert per_pattern_delta == 10

    def test_power_includes_core_interface_and_noc(self, network, core):
        interface = processor(power=200.0)
        job = build_job(core, interface, network)
        noc_power = network.transfer_power(interface.source_node, core.node) + network.transfer_power(
            core.node, interface.sink_node
        )
        assert job.power == pytest.approx(core.power + 200.0 + noc_power)

    def test_resources_cover_both_paths_without_duplicates(self, network, core):
        job = build_job(core, external(), network)
        assert len(job.resources) == len(set(job.resources))
        assert local_port((0, 0)) in job.resources
        assert local_port((2, 1)) in job.resources
        assert local_port((3, 3)) in job.resources

    def test_same_node_interface_claims_single_port(self, network, core):
        interface = processor(node=(2, 1), core_id="cpu")
        job = build_job(core, interface, network)
        assert job.resources == (local_port((2, 1)),)
        assert job.stimulus_hops == 0
        assert job.response_hops == 0

    def test_unplaced_core_rejected(self, network):
        core = build_core(make_module("floating"), flit_width=16)
        with pytest.raises(SchedulingError, match="placed"):
            build_job(core, external(), network)

    def test_processor_cannot_test_itself(self, network, core):
        interface = processor(core_id=core.identifier)
        with pytest.raises(SchedulingError, match="own core"):
            build_job(core, interface, network)


class TestCachedJobEqualsBuildJob:
    """The job table is pure memoisation: for every (core, interface) pair of
    a paper system the memoised job equals a fresh build, and repeated
    lookups return the one stored job."""

    @pytest.mark.parametrize("system", ["d695_leon", "p93791_leon"])
    def test_every_pair_equals_build_job(self, system):
        built = build_paper_system(system)
        network = built.network
        for core in built.cores:
            for interface in built.interfaces():
                if interface.processor_core_id == core.identifier:
                    continue  # a processor cannot test itself
                job = cached_job(core, interface, network)
                assert job == build_job(core, interface, network)
                assert cached_job(core, interface, network) is job


class TestJobFitsMemory:
    def test_external_always_fits(self, network, core):
        assert job_fits_memory(core, external())

    def test_processor_with_memory_fits(self, network, core):
        interface = TestInterface(
            identifier="p",
            kind=InterfaceKind.PROCESSOR,
            source_node=(0, 0),
            sink_node=(0, 0),
            processor_core_id="cpu",
            memory_bytes=1024,
        )
        assert job_fits_memory(core, interface)

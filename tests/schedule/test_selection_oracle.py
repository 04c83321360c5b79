"""The memoised selection loops against the restart-every-start oracle.

Both schedulers must give the same ``(core, interface, start, end)`` list as
:mod:`tests.schedule.reference_schedulers`, or raise the same error type with
the same message, on every system, reuse count and power limit.

The property's example budget is hypothesis's active profile; CI's
``schedule-oracle`` job runs it under the larger ``schedule-oracle`` profile
registered in ``tests/conftest.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cores.core import build_core
from repro.itc02.model import Module
from repro.itc02.synth import SyntheticSocSpec, generate_benchmark
from repro.noc.network import Network, NocConfig
from repro.schedule.greedy import GreedyScheduler
from repro.schedule.power import PowerConstraint
from repro.schedule.variants import FastestCompletionScheduler
from repro.system.presets import build_paper_system
from repro.tam.interfaces import InterfaceKind, TestInterface

from tests.properties.test_schedule_properties import random_system
from tests.schedule.reference_schedulers import REFERENCES

SCHEDULERS = (GreedyScheduler, FastestCompletionScheduler)


def run(scheduler, **inputs):
    """A plan's assignments as tuples, or its error's type and message."""
    try:
        result = scheduler.schedule(system_name="oracle", **inputs)
    except Exception as exc:
        return type(exc), str(exc)
    return [(a.core_id, a.interface_id, a.start, a.end) for a in result.assignments]


def outcome(scheduler, system, count, fraction):
    constraint = (
        None
        if fraction is None
        else PowerConstraint.fraction_of_total(system.total_core_power, fraction)
    )
    return run(
        scheduler,
        cores=system.cores,
        interfaces=system.interfaces(count),
        network=system.network,
        power_constraint=constraint,
    )


def assert_matches_reference(system, count, fraction):
    for scheduler_type in SCHEDULERS:
        expected = outcome(REFERENCES[scheduler_type.name](), system, count, fraction)
        actual = outcome(scheduler_type(), system, count, fraction)
        assert actual == expected, (scheduler_type.name, count, fraction)


@st.composite
def synth_benchmarks(draw):
    spec = SyntheticSocSpec(
        name="syn",
        module_count=draw(st.integers(min_value=2, max_value=10)),
        target_serial_test_time=draw(st.integers(min_value=500, max_value=50_000)),
        # At most two dominant modules: module_count is at least 2.
        dominant_fractions=draw(st.sampled_from([(), (0.4,), (0.3, 0.2)])),
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        combinational_ratio=draw(st.sampled_from([0.0, 0.15, 0.5])),
    )
    return generate_benchmark(spec)


systems = st.one_of(
    random_system(),
    random_system(min_terminals=0, min_patterns=0),
    random_system(benchmarks=synth_benchmarks()),
)


@st.composite
def colocated_inputs(draw):
    """Hand-placed cores sharing nodes with each other and with test sources.

    An empty module (no terminals, no patterns) tested from its own node
    takes zero cycles: its interface is available again at the instant the
    test started, and the test finishes in a second event at that cycle,
    possibly together with a processor whose interfaces it enables.
    """
    width = draw(st.integers(min_value=1, max_value=3))
    height = draw(st.integers(min_value=1, max_value=3))
    nodes = st.tuples(
        st.integers(min_value=0, max_value=width - 1),
        st.integers(min_value=0, max_value=height - 1),
    )
    processor_count = draw(st.integers(min_value=0, max_value=2))
    cores = []
    for index in range(draw(st.integers(min_value=processor_count + 1, max_value=7))):
        empty = draw(st.booleans())
        module = Module(
            number=index + 1,
            name=f"c{index}",
            inputs=0 if empty else 4,
            outputs=0 if empty else 4,
            patterns=0 if empty else draw(st.integers(min_value=1, max_value=8)),
            power=float(draw(st.integers(min_value=10, max_value=300))),
        )
        is_processor = index < processor_count
        core = build_core(
            module,
            flit_width=16,
            is_processor=is_processor,
            processor_name=module.name if is_processor else None,
        )
        core.place_at(draw(nodes))
        cores.append(core)
    interfaces = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        node = draw(nodes)
        interfaces.append(
            TestInterface(
                identifier=f"ext{index}",
                kind=InterfaceKind.EXTERNAL,
                source_node=node,
                sink_node=node,
            )
        )
    for core in cores[:processor_count]:
        interfaces.append(
            TestInterface(
                identifier=f"proc.{core.identifier}",
                kind=InterfaceKind.PROCESSOR,
                source_node=core.node,
                sink_node=core.node,
                cycles_per_pattern=10,
                processor_core_id=core.identifier,
            )
        )
    limit = draw(st.sampled_from([None, 300.0, 600.0]))
    return {
        "cores": cores,
        "interfaces": interfaces,
        "network": Network(NocConfig(width=width, height=height, flit_width=16)),
        "power_constraint": None if limit is None else PowerConstraint(limit=limit),
    }


#: Down to ceilings under which some core can never be tested.
fractions = st.sampled_from([None, 1.0, 0.6, 0.4, 0.2, 0.1, 0.05, 0.01])


class TestSelectionMatchesReference:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(system=systems, data=st.data(), fraction=fractions)
    def test_random_systems(self, system, data, fraction):
        count = data.draw(
            st.integers(min_value=0, max_value=len(system.processor_cores)), label="count"
        )
        assert_matches_reference(system, count, fraction)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(inputs=colocated_inputs())
    def test_colocated_systems(self, inputs):
        for scheduler_type in SCHEDULERS:
            expected = run(REFERENCES[scheduler_type.name](), **inputs)
            assert run(scheduler_type(), **inputs) == expected, scheduler_type.name

    def test_zero_cycle_finish_frees_no_later_links(self):
        """``z`` takes zero cycles, then ``b`` takes the shared router port at
        the same instant.  ``z``'s finish, an event at that instant, must not
        free the port: ``c`` needs it and waits for ``b``."""
        network = Network(NocConfig(width=3, height=1, flit_width=16))
        cores = []
        for index, (name, node, patterns) in enumerate(
            [("z", (1, 0), 0), ("b", (0, 0), 8), ("c", (2, 0), 2)]
        ):
            module = Module(
                number=index + 1,
                name=name,
                inputs=4 if patterns else 0,
                outputs=4 if patterns else 0,
                patterns=patterns,
                power=10.0,
            )
            core = build_core(module, flit_width=16)
            core.place_at(node)
            cores.append(core)
        interfaces = [
            TestInterface(
                identifier=f"ext{index}",
                kind=InterfaceKind.EXTERNAL,
                source_node=(1, 0),
                sink_node=(1, 0),
            )
            for index in range(2)
        ]
        inputs = {"cores": cores, "interfaces": interfaces, "network": network}
        for scheduler_type in SCHEDULERS:
            expected = run(REFERENCES[scheduler_type.name](), **inputs)
            assert run(scheduler_type(), **inputs) == expected, scheduler_type.name
            times = {core: (start, end) for core, _, start, end in expected}
            assert times["z"] == (0, 0), scheduler_type.name
            assert times["c"][0] == times["b"][1] > 0, scheduler_type.name

    @pytest.mark.parametrize("fraction", [None, 0.5, 0.3])
    def test_p93791_leon(self, fraction):
        system = build_paper_system("p93791_leon")
        for count in range(len(system.processor_cores) + 1):
            assert_matches_reference(system, count, fraction)

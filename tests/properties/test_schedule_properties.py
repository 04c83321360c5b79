"""Property-based tests: random small systems always yield valid schedules.

The strategies build small random systems (random grid, random cores, random
processor count, random power headroom) and assert that both schedulers
produce schedules that pass the full invariant checker, that reusing every
processor never loses against no reuse, and that the makespan equals the
critical assignment end.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.itc02.model import Module, ScanChain
from repro.noc.network import NocConfig
from repro.schedule.result import validate_schedule
from repro.schedule.variants import FastestCompletionScheduler
from repro.system.builder import SystemBuilder
from repro.itc02.model import SocBenchmark
from repro.processors.plasma import plasma_processor
from repro.schedule.planner import TestPlanner
from repro.tam.ports import PortDirection


@st.composite
def random_system(
    draw, benchmarks=None, min_terminals=1, min_patterns=1, local_ports=st.just(True)
):
    """Build a random small SocSystem.

    ``benchmarks`` (a strategy of :class:`SocBenchmark`) replaces the random
    modules; ``min_terminals``/``min_patterns`` of 0 admit terminal-less and
    zero-pattern modules; ``local_ports`` draws the NoC's
    ``exclusive_local_ports``.
    """
    width = draw(st.integers(min_value=2, max_value=4))
    height = draw(st.integers(min_value=2, max_value=4))
    flit_width = draw(st.sampled_from([8, 16, 32]))
    core_count = draw(st.integers(min_value=2, max_value=8))
    processor_count = draw(st.integers(min_value=0, max_value=3))

    if benchmarks is not None:
        benchmark = draw(benchmarks)
    else:
        benchmark = SocBenchmark(name="rnd")
        for index in range(1, core_count + 1):
            chains = draw(
                st.lists(st.integers(min_value=4, max_value=60), min_size=0, max_size=4)
            )
            benchmark.add_module(
                Module(
                    number=index,
                    name=f"m{index}",
                    inputs=draw(st.integers(min_value=min_terminals, max_value=40)),
                    outputs=draw(st.integers(min_value=min_terminals, max_value=40)),
                    bidirs=0,
                    scan_chains=tuple(
                        ScanChain(index=i, length=length) for i, length in enumerate(chains)
                    ),
                    patterns=draw(st.integers(min_value=min_patterns, max_value=40)),
                    power=float(draw(st.integers(min_value=10, max_value=400))),
                )
            )

    config = NocConfig(
        width=width,
        height=height,
        flit_width=flit_width,
        exclusive_local_ports=draw(local_ports),
    )
    builder = SystemBuilder("rnd", config)
    builder.add_benchmark(benchmark)
    if processor_count:
        builder.add_processors(plasma_processor(), processor_count)
    builder.add_io_port("in0", (0, 0), PortDirection.INPUT)
    builder.add_io_port("out0", (width - 1, height - 1), PortDirection.OUTPUT)
    return builder.build()


common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestScheduleProperties:
    @common_settings
    @given(system=random_system())
    def test_greedy_schedules_are_always_valid(self, system):
        planner = TestPlanner(system)
        result = planner.plan()
        validate_schedule(result, expected_core_ids=system.core_ids)
        assert result.makespan == max(a.end for a in result.assignments)

    @common_settings
    @given(system=random_system())
    def test_full_reuse_roughly_never_worse_than_noproc(self, system):
        """Offering more test resources should not lengthen the test.  The
        greedy policy suffers from classic list-scheduling anomalies (the very
        effect the paper describes for p22810), so a small tolerance is
        allowed — what must never happen is a dramatic regression."""
        planner = TestPlanner(system)
        baseline = planner.plan(reused_processors=0)
        reuse = planner.plan()
        assert reuse.makespan <= baseline.makespan * 1.10

    @common_settings
    @given(system=random_system())
    def test_lookahead_schedules_are_always_valid(self, system):
        planner = TestPlanner(system, scheduler=FastestCompletionScheduler())
        result = planner.plan()
        validate_schedule(result, expected_core_ids=system.core_ids)

    @common_settings
    @given(system=random_system(), fraction=st.sampled_from([0.6, 0.8, 1.0]))
    def test_power_constrained_schedules_respect_ceiling(self, system, fraction):
        planner = TestPlanner(system)
        limit = system.total_core_power * fraction
        # Skip degenerate draws where a single test alone busts the ceiling.
        heaviest = max(core.power for core in system.cores)
        if heaviest + 1500.0 > limit:
            return
        result = planner.plan(power_limit_fraction=fraction)
        validate_schedule(result, expected_core_ids=system.core_ids)
        assert result.peak_power() <= limit + 1e-6

    @common_settings
    @given(system=random_system())
    def test_interfaces_never_run_two_tests_at_once(self, system):
        result = TestPlanner(system).plan()
        for interface_id, assignments in result.assignments_by_interface().items():
            ordered = sorted(assignments, key=lambda a: a.start)
            for earlier, later in zip(ordered, ordered[1:]):
                assert earlier.end <= later.start

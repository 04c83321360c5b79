"""Tests of the Figure 1 claims on the grid axes the paper fixes: the
scheduler policy (T4), the processors' pattern penalty (A1) and the ATE port
count (A2). Each study is a plain ``SweepSpec`` grid or a hand-built system;
mostly on the small d695 systems for speed, claim T4 also on p22810 and the
port-pair study also on p93791."""

import pytest

from repro.experiments.figure1 import PAPER_PROCESSOR_COUNTS
from repro.itc02.library import load_benchmark
from repro.noc.network import NocConfig
from repro.runner.engine import SweepRunner
from repro.runner.spec import SweepSpec
from repro.schedule.planner import TestPlanner
from repro.system.builder import SystemBuilder
from repro.system.paper import PAPER_SYSTEMS
from repro.system.presets import processor_prototype
from repro.tam.ports import PortDirection
from repro.units import reduction_percent


def grid_makespans(spec, *axes):
    """Run ``spec`` in-process; its makespans keyed by the ``axes`` point fields."""
    return {
        tuple(getattr(outcome.point, axis) for axis in axes): outcome.makespan
        for outcome in SweepRunner().run(spec)
    }


def scheduler_makespans(system, counts):
    """Greedy and look-ahead makespans of ``system``, one pair per count."""
    spec = SweepSpec(
        name="scheduler-policy",
        systems=(system,),
        processor_counts=counts,
        schedulers=("greedy", "fastest-completion"),
    )
    makespans = grid_makespans(spec, "reused_processors", "scheduler")
    greedy = [makespans[(count, "greedy")] for count in counts]
    lookahead = [makespans[(count, "fastest-completion")] for count in counts]
    return greedy, lookahead


class TestSchedulerComparison:
    COUNTS = (0, 2, 4)

    @pytest.fixture(scope="class")
    def pairs(self):
        return scheduler_makespans("d695_leon", self.COUNTS)

    def test_row_per_count(self, pairs):
        greedy, lookahead = pairs
        assert len(greedy) == len(lookahead) == len(self.COUNTS)

    def test_identical_without_processors(self, pairs):
        greedy, lookahead = pairs
        assert greedy[0] == lookahead[0]

    def test_improvement_metric(self, pairs):
        for first, ahead in zip(*pairs):
            expected = 100.0 * (first - ahead) / first
            assert reduction_percent(first, ahead) == pytest.approx(expected)

    @pytest.mark.parametrize("system", ["d695_leon", "p22810_leon"])
    def test_lookahead_recovers_greedy_losses(self, system):
        """Claim T4: the look-ahead policy the paper suggests for p22810's
        irregular bars ties without processors, wins somewhere and never
        loses by more than 5 %."""
        counts = PAPER_PROCESSOR_COUNTS[system.split("_")[0]]
        greedy, lookahead = scheduler_makespans(system, counts)
        assert lookahead[0] == greedy[0]
        assert any(ahead < first for ahead, first in zip(lookahead[1:], greedy[1:]))
        for ahead, first in zip(lookahead, greedy):
            assert ahead <= first * 1.05


def penalty_makespans(system, penalties):
    """Makespans keyed by ``(pattern_penalty, reused_processors)``, with no
    reuse (0) and all processors reused (``None``) at each penalty."""
    spec = SweepSpec(
        name="pattern-penalty",
        systems=(system,),
        processor_counts=(0, None),
        pattern_penalties=penalties,
    )
    return grid_makespans(spec, "pattern_penalty", "reused_processors")


class TestPatternPenaltySweep:
    """Study A1: the processors' cycles per pattern (the paper fixes 10)."""

    PENALTIES = (0, 10, 40)

    @pytest.fixture(scope="class")
    def makespans(self):
        return penalty_makespans("d695_plasma", self.PENALTIES)

    def test_baseline_independent_of_penalty(self, makespans):
        assert len({makespans[(penalty, 0)] for penalty in self.PENALTIES}) == 1

    def test_higher_penalty_never_improves_reuse(self, makespans):
        assert makespans[(0, None)] <= makespans[(40, None)]

    def test_reductions_positive(self, makespans):
        for penalty in self.PENALTIES:
            baseline, reuse = makespans[(penalty, 0)], makespans[(penalty, None)]
            assert reduction_percent(baseline, reuse) > 0.0

    def test_leon_penalty_ordering(self):
        """A free pattern generator helps at least as much as the paper's
        10-cycle one, which beats a 40-cycle one (2 % greedy slack)."""
        penalties = (0, 5, 10, 20, 40)
        makespans = penalty_makespans("d695_leon", penalties)
        assert len({makespans[(penalty, 0)] for penalty in penalties}) == 1
        for penalty in penalties:
            assert makespans[(penalty, None)] < makespans[(penalty, 0)]
        assert makespans[(0, None)] <= makespans[(10, None)] * 1.02
        assert makespans[(10, None)] <= makespans[(40, None)] * 1.02


def system_with_port_pairs(name, pairs):
    """A paper system with ``pairs`` ATE port pairs: inputs spread along the
    bottom edge of the grid, outputs mirrored along the top edge."""
    spec = PAPER_SYSTEMS[name]
    builder = (
        SystemBuilder(f"{name}_x{pairs}ext", NocConfig(spec.grid_width, spec.grid_height))
        .add_benchmark(load_benchmark(spec.benchmark))
        .add_processors(processor_prototype(spec.processor_model), spec.processor_count)
    )
    stride = max(1, spec.grid_width // pairs)
    for index in range(pairs):
        in_x = index * stride % spec.grid_width
        out_x = spec.grid_width - 1 - in_x
        builder.add_io_port(f"ext_in{index}", (in_x, 0), PortDirection.INPUT)
        builder.add_io_port(
            f"ext_out{index}", (out_x, spec.grid_height - 1), PortDirection.OUTPUT
        )
    return builder.build()


def port_pair_makespans(name, max_pairs):
    """No-reuse and all-processor makespans for 1 to ``max_pairs`` ATE pairs."""
    baseline, reuse = [], []
    for pairs in range(1, max_pairs + 1):
        planner = TestPlanner(system_with_port_pairs(name, pairs))
        baseline.append(planner.plan(reused_processors=0).makespan)
        reuse.append(planner.plan(reused_processors=None).makespan)
    return baseline, reuse


class TestExternalInterfaceSweep:
    """Study A2: more tester channels against processor reuse."""

    @pytest.fixture(scope="class")
    def makespans(self):
        return port_pair_makespans("d695_leon", 2)

    def test_rows_per_pair_count(self, makespans):
        for pairs in (1, 2):
            interfaces = system_with_port_pairs("d695_leon", pairs).interfaces(0)
            assert len(interfaces) == pairs
            assert all(interface.is_external for interface in interfaces)
        baseline, reuse = makespans
        assert len(baseline) == len(reuse) == 2

    def test_more_tester_channels_help_the_baseline(self, makespans):
        baseline, _ = makespans
        assert baseline[1] <= baseline[0]

    def test_processor_reuse_still_helps_with_extra_channels(self, makespans):
        baseline, reuse = makespans
        for shared, alone in zip(reuse, baseline):
            assert shared <= alone

    def test_p93791_with_three_pairs(self):
        baseline, reuse = port_pair_makespans("p93791_leon", 3)
        assert baseline[-1] <= baseline[0]
        for shared, alone in zip(reuse, baseline):
            assert shared <= alone

"""Tests of the no-processor-reuse baseline ("noproc" in the paper's Figure 1):
a plan with 0 reused processors."""

from repro.schedule.greedy import GreedyScheduler
from repro.schedule.planner import TestPlanner
from repro.schedule.result import validate_schedule


class TestExternalOnlyBaseline:
    def test_baseline_tests_every_core_including_processors(self, toy_system):
        result = TestPlanner(toy_system).plan(reused_processors=0)
        validate_schedule(result, expected_core_ids=toy_system.core_ids)
        processor_ids = {core.identifier for core in toy_system.processor_cores}
        assert processor_ids
        assert processor_ids <= {a.core_id for a in result.assignments}

    def test_baseline_uses_only_external_interfaces(self, toy_system):
        result = TestPlanner(toy_system).plan(reused_processors=0)
        used = {assignment.interface_id for assignment in result.assignments}
        assert all(identifier.startswith("ext") for identifier in used)

    def test_baseline_equals_planner_noproc(self, toy_system):
        """The 0-reuse plan is the same scheduler run on an interface list
        stripped of every processor interface."""
        via_planner = TestPlanner(toy_system).plan(reused_processors=0)
        external = [i for i in toy_system.interfaces() if i.is_external]
        via_external_only = GreedyScheduler().schedule(
            system_name=toy_system.name,
            cores=toy_system.cores,
            interfaces=external,
            network=toy_system.network,
        )
        assert via_planner.makespan == via_external_only.makespan

"""Tests of the ablation drivers (mostly on the small d695 systems for speed;
claim T4 also on p22810 and the external-interface sweep also on p93791)."""

import pytest

from repro.experiments.ablation import (
    run_external_interface_sweep,
    run_pattern_penalty_sweep,
    run_scheduler_comparison,
)
from repro.experiments.figure1 import PAPER_PROCESSOR_COUNTS


class TestSchedulerComparison:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_scheduler_comparison("d695_leon", processor_counts=(0, 2, 4))

    def test_row_per_count(self, rows):
        assert [row.reused_processors for row in rows] == [0, 2, 4]

    def test_identical_without_processors(self, rows):
        noproc = rows[0]
        assert noproc.greedy_makespan == noproc.lookahead_makespan

    def test_improvement_metric(self, rows):
        for row in rows:
            expected = 100.0 * (row.greedy_makespan - row.lookahead_makespan) / row.greedy_makespan
            assert row.improvement_percent == pytest.approx(expected)

    @pytest.mark.parametrize("system", ["d695_leon", "p22810_leon"])
    def test_lookahead_recovers_greedy_losses(self, system):
        """Claim T4: the look-ahead policy the paper suggests for p22810's
        irregular bars wins somewhere and never loses by more than 5 %."""
        counts = PAPER_PROCESSOR_COUNTS[system.split("_")[0]]
        rows = run_scheduler_comparison(system, processor_counts=counts)
        assert rows[0].greedy_makespan == rows[0].lookahead_makespan
        assert any(row.lookahead_makespan < row.greedy_makespan for row in rows[1:])
        for row in rows:
            assert row.lookahead_makespan <= row.greedy_makespan * 1.05


class TestPatternPenaltySweep:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_pattern_penalty_sweep("d695_plasma", penalties=(0, 10, 40))

    def test_baseline_independent_of_penalty(self, rows):
        baselines = {row.baseline_makespan for row in rows}
        assert len(baselines) == 1

    def test_higher_penalty_never_improves_reuse(self, rows):
        by_penalty = {row.cycles_per_pattern: row.reuse_makespan for row in rows}
        assert by_penalty[0] <= by_penalty[40]

    def test_reductions_positive(self, rows):
        for row in rows:
            assert row.reduction_percent > 0.0

    def test_leon_penalty_ordering(self):
        """A free pattern generator helps at least as much as the paper's
        10-cycle one, which beats a 40-cycle one (2 % greedy slack)."""
        rows = run_pattern_penalty_sweep("d695_leon", penalties=(0, 5, 10, 20, 40))
        assert len({row.baseline_makespan for row in rows}) == 1
        for row in rows:
            assert row.reduction_percent > 0.0
        by_penalty = {row.cycles_per_pattern: row.reuse_makespan for row in rows}
        assert by_penalty[0] <= by_penalty[10] * 1.02
        assert by_penalty[10] <= by_penalty[40] * 1.02


class TestExternalInterfaceSweep:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_external_interface_sweep("d695_leon", max_pairs=2)

    def test_rows_per_pair_count(self, rows):
        assert [row.external_pairs for row in rows] == [1, 2]

    def test_more_tester_channels_help_the_baseline(self, rows):
        assert rows[1].external_only_makespan <= rows[0].external_only_makespan

    def test_processor_reuse_still_helps_with_extra_channels(self, rows):
        for row in rows:
            assert row.with_processors_makespan <= row.external_only_makespan

    def test_p93791_with_three_pairs(self):
        rows = run_external_interface_sweep("p93791_leon", max_pairs=3)
        assert rows[-1].external_only_makespan <= rows[0].external_only_makespan
        for row in rows:
            assert row.with_processors_makespan <= row.external_only_makespan

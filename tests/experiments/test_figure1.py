"""Tests of the Figure 1 experiment driver (shape checks on d695)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.figure1 import (
    PAPER_POWER_SERIES,
    PAPER_PROCESSOR_COUNTS,
    run_figure1,
    run_panel,
)
from repro.schedule.result import validate_schedule


class TestPaperConstants:
    def test_processor_counts_follow_figure_axes(self):
        assert PAPER_PROCESSOR_COUNTS["d695"] == (0, 2, 4, 6)
        assert PAPER_PROCESSOR_COUNTS["p22810"] == (0, 2, 4, 6, 8)
        assert PAPER_PROCESSOR_COUNTS["p93791"] == (0, 2, 4, 6, 8)

    def test_two_power_series(self):
        assert set(PAPER_POWER_SERIES) == {"50% power limit", "no power limit"}


class TestRunPanel:
    @pytest.fixture(scope="class")
    def d695_panel(self):
        return run_panel("d695_leon")

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigurationError):
            run_panel("d695_arm")

    def test_panel_has_both_series_and_all_counts(self, d695_panel):
        assert set(d695_panel.series) == {"50% power limit", "no power limit"}
        for sweep in d695_panel.series.values():
            assert sorted(sweep) == [0, 2, 4, 6]

    def test_every_schedule_is_valid(self, d695_panel):
        for sweep in d695_panel.series.values():
            for result in sweep.values():
                validate_schedule(result)

    def test_reuse_reduces_test_time(self, d695_panel):
        """The paper's central claim: more processors => shorter test."""
        for label, sweep in d695_panel.series.items():
            makespans = d695_panel.makespans(label)
            assert makespans[6] < makespans[0]
            assert makespans[2] < makespans[0]

    def test_noproc_baseline_independent_of_power_limit(self, d695_panel):
        """With a single external interface only one test runs at a time, so
        the 50 % ceiling cannot change the noproc bar (visible in Figure 1)."""
        assert (
            d695_panel.series["50% power limit"][0].makespan
            == d695_panel.series["no power limit"][0].makespan
        )

    def test_power_limit_roughly_never_helps(self, d695_panel):
        """Tightening the power ceiling should not shorten the test.  Greedy
        list scheduling is subject to small anomalies (an extra constraint can
        accidentally steer it to a slightly better schedule — the same effect
        the paper blames for p22810's irregular bars), so allow a 2 % slack."""
        for count in PAPER_PROCESSOR_COUNTS["d695"]:
            limited = d695_panel.series["50% power limit"][count].makespan
            free = d695_panel.series["no power limit"][count].makespan
            assert limited >= free * 0.98

    def test_best_reduction_in_paper_ballpark(self, d695_panel):
        """The paper quotes 28 % for d695_leon; the reproduction must land in
        a comparable range (the NoC/processor characterisation differs)."""
        reduction = d695_panel.best_reduction("no power limit")
        assert 20.0 <= reduction <= 50.0

    def test_custom_counts(self):
        panel = run_panel("d695_plasma", processor_counts=(0, 6), power_series={"free": None})
        assert sorted(panel.series["free"]) == [0, 6]


#: Shape of every Figure 1 panel: the range of the noproc bar (the paper's
#: axes) and the (exclusive, inclusive) range of the best no-limit
#: reduction in percent (the paper quotes 28 % for d695 and up to 44 % for
#: p93791; it gives no upper figure for p22810).
PANEL_SHAPES = {
    "d695_leon": ((120_000, 210_000), (15.0, 55.0)),
    "d695_plasma": ((80_000, 160_000), (15.0, 55.0)),
    "p22810_leon": ((600_000, 1_300_000), (20.0, 100.0)),
    "p22810_plasma": ((600_000, 1_300_000), (20.0, 100.0)),
    "p93791_leon": ((1_000_000, 2_000_000), (25.0, 60.0)),
    "p93791_plasma": ((1_000_000, 2_000_000), (25.0, 60.0)),
}


@pytest.mark.parametrize("system", sorted(PANEL_SHAPES))
def test_every_paper_panel_has_the_figure_shape(system):
    panel = run_panel(system)
    counts = sorted(PAPER_PROCESSOR_COUNTS[system.split("_")[0]])
    (noproc_low, noproc_high), (reduction_low, reduction_high) = PANEL_SHAPES[system]
    for label, sweep in panel.series.items():
        assert sorted(sweep) == counts
        for result in sweep.values():
            validate_schedule(result)
        makespans = panel.makespans(label)
        assert makespans[counts[-1]] < makespans[0]
    assert noproc_low <= panel.series["no power limit"][0].makespan <= noproc_high
    assert reduction_low < panel.best_reduction("no power limit") <= reduction_high


class TestRunFigure1Subset:
    def test_subset_of_systems(self):
        panels = run_figure1(systems=("d695_leon",))
        assert set(panels) == {"d695_leon"}

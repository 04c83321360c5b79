"""Tests of study A3: the flit width (the paper does not publish it) as a
``flit_widths`` SweepSpec grid."""

import pytest

from repro.runner.spec import SweepSpec
from repro.units import reduction_percent
from tests.experiments.test_ablation import grid_makespans


def width_series(system, flit_widths):
    """No-reuse and all-processor makespans of ``system``, one per width."""
    spec = SweepSpec(
        name="flit-width",
        systems=(system,),
        processor_counts=(0, None),
        flit_widths=flit_widths,
    )
    makespans = grid_makespans(spec, "flit_width", "reused_processors")
    baseline = [makespans[(width, 0)] for width in flit_widths]
    reuse = [makespans[(width, None)] for width in flit_widths]
    return baseline, reuse


class TestFlitWidthSweep:
    WIDTHS = (16, 32, 64)

    @pytest.fixture(scope="class")
    def series(self):
        return width_series("d695_plasma", self.WIDTHS)

    def test_one_row_per_width(self, series):
        baseline, reuse = series
        assert len(baseline) == len(reuse) == len(self.WIDTHS)

    def test_wider_flits_shorten_both_configurations(self, series):
        baseline, reuse = series
        assert baseline == sorted(baseline, reverse=True)
        assert reuse == sorted(reuse, reverse=True)

    def test_reuse_helps_at_every_width(self, series):
        for alone, shared in zip(*series):
            assert shared < alone
            assert reduction_percent(alone, shared) > 0.0

    def test_relative_gain_insensitive_to_width(self, series):
        """Reuse helps by a similar fraction at every width, so the 32-bit
        default does not decide the reproduction's reductions."""
        reductions = [reduction_percent(*pair) for pair in zip(*series)]
        assert max(reductions) - min(reductions) < 20.0

    def test_d695_leon_from_eight_bit_flits(self):
        baseline, reuse = width_series("d695_leon", (8, 16, 32, 64))
        assert baseline == sorted(baseline, reverse=True)
        for alone, shared in zip(baseline, reuse):
            assert reduction_percent(alone, shared) > 0.0

"""Tests of the flit-width ablation sweep (A3)."""

import pytest

from repro.experiments.ablation import run_flit_width_sweep


class TestFlitWidthSweep:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_flit_width_sweep("d695_plasma", flit_widths=(16, 32, 64))

    def test_one_row_per_width(self, rows):
        assert [row.flit_width for row in rows] == [16, 32, 64]

    def test_wider_flits_shorten_both_configurations(self, rows):
        baselines = [row.baseline_makespan for row in rows]
        reuses = [row.reuse_makespan for row in rows]
        assert baselines == sorted(baselines, reverse=True)
        assert reuses == sorted(reuses, reverse=True)

    def test_reuse_helps_at_every_width(self, rows):
        for row in rows:
            assert row.reuse_makespan < row.baseline_makespan
            assert row.reduction_percent > 0.0

    def test_relative_gain_insensitive_to_width(self, rows):
        reductions = [row.reduction_percent for row in rows]
        assert max(reductions) - min(reductions) < 20.0

    def test_d695_leon_from_eight_bit_flits(self):
        rows = run_flit_width_sweep("d695_leon", flit_widths=(8, 16, 32, 64))
        baselines = [row.baseline_makespan for row in rows]
        assert baselines == sorted(baselines, reverse=True)
        for row in rows:
            assert row.reduction_percent > 0.0

"""Tests of the unit helpers."""

import pytest

from repro.units import (
    EXTERNAL_TESTER_CYCLES_PER_PATTERN,
    PROCESSOR_CYCLES_PER_PATTERN,
    flits_for_bits,
    reduction_percent,
)


class TestConstants:
    def test_paper_assumptions(self):
        assert EXTERNAL_TESTER_CYCLES_PER_PATTERN == 0
        assert PROCESSOR_CYCLES_PER_PATTERN == 10


class TestFlitsForBits:
    @pytest.mark.parametrize(
        "bits,width,expected",
        [(0, 32, 0), (1, 32, 1), (32, 32, 1), (33, 32, 2), (64, 32, 2), (65, 32, 3)],
    )
    def test_values(self, bits, width, expected):
        assert flits_for_bits(bits, width) == expected

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            flits_for_bits(10, 0)
        with pytest.raises(ValueError):
            flits_for_bits(-1, 8)


class TestPercentages:
    def test_reduction_percent(self):
        assert reduction_percent(100, 72) == pytest.approx(28.0)
        assert reduction_percent(0, 10) == 0.0
        assert reduction_percent(100, 120) == pytest.approx(-20.0)

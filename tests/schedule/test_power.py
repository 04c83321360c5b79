"""Tests of the power constraint and tracker."""

import math

import pytest

from repro.errors import ConfigurationError, PowerBudgetError
from repro.schedule.power import PowerConstraint, PowerTracker


class TestPowerConstraint:
    def test_unconstrained_allows_everything(self):
        constraint = PowerConstraint.unconstrained()
        assert not constraint.constrained
        assert constraint.allows(1e12)

    def test_fraction_of_total(self):
        constraint = PowerConstraint.fraction_of_total(10_000.0, 0.5)
        assert constraint.constrained
        assert constraint.limit == pytest.approx(5_000.0)
        assert "50%" in constraint.description
        assert constraint.allows(5_000.0)
        assert not constraint.allows(5_000.1)

    def test_highest_allowed_splits_what_allows_answers(self):
        constraint = PowerConstraint(limit=100.0)
        highest = constraint.highest_allowed
        assert constraint.allows(highest)
        assert not constraint.allows(math.nextafter(highest, math.inf))
        assert PowerConstraint.unconstrained().highest_allowed == math.inf

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            PowerConstraint(limit=0.0)
        with pytest.raises(ConfigurationError):
            PowerConstraint.fraction_of_total(0.0, 0.5)
        with pytest.raises(ConfigurationError):
            PowerConstraint.fraction_of_total(100.0, -0.1)


class TestPowerTracker:
    def test_tracks_active_power(self):
        tracker = PowerTracker(PowerConstraint(limit=1000.0))
        tracker.start("a", 400.0)
        tracker.start("b", 500.0)
        assert tracker.current_power == pytest.approx(900.0)
        tracker.finish("a")
        assert tracker.current_power == pytest.approx(500.0)

    def test_can_start_respects_limit(self):
        tracker = PowerTracker(PowerConstraint(limit=1000.0))
        tracker.start("a", 700.0)
        assert tracker.can_start("b", 300.0)
        assert not tracker.can_start("c", 301.0)

    def test_totals_do_not_depend_on_start_order(self):
        """Left to right, 0.1 + 0.2 + 0.3 is 0.6000000000000001; the exact
        sum rounds to 0.6, which the tracker checks in either start order,
        as the power profile sums it."""
        for first, second in ((0.1, 0.2), (0.2, 0.1)):
            tracker = PowerTracker(PowerConstraint(limit=0.6 - 1e-9))
            tracker.start("a", first)
            tracker.start("b", second)
            assert tracker.can_start("c", 0.3)
            assert tracker.max_allowed == 0.6
        tracker.finish("a")
        assert tracker.current_power == 0.1

    def test_records_the_largest_allowed_and_smallest_refused_totals(self):
        tracker = PowerTracker(PowerConstraint(limit=100.0))
        assert (tracker.max_allowed, tracker.min_refused) == (0.0, math.inf)
        tracker.start("a", 60.0)
        assert not tracker.can_start("b", 50.0)
        assert not tracker.can_start("c", 45.0)
        assert tracker.can_start("d", 30.0)
        assert not tracker.can_start("e", 70.0)
        assert (tracker.max_allowed, tracker.min_refused) == (90.0, 105.0)

    def test_start_over_limit_raises(self):
        tracker = PowerTracker(PowerConstraint(limit=100.0))
        with pytest.raises(PowerBudgetError):
            tracker.start("a", 150.0)

    def test_duplicate_start_rejected(self):
        tracker = PowerTracker(PowerConstraint.unconstrained())
        tracker.start("a", 1.0)
        with pytest.raises(ConfigurationError):
            tracker.start("a", 1.0)

    def test_finish_unknown_rejected(self):
        tracker = PowerTracker(PowerConstraint.unconstrained())
        with pytest.raises(ConfigurationError):
            tracker.finish("ghost")

    def test_check_feasible(self):
        # On an idle tracker, can_start answers "could this job ever run?".
        tracker = PowerTracker(PowerConstraint(limit=100.0))
        assert tracker.can_start("ok", 80.0)
        assert not tracker.can_start("huge", 200.0)

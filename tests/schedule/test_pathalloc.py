"""Tests of the NoC link allocator."""

import pytest

from repro.errors import SchedulingError
from repro.noc.links import resource_mask
from repro.schedule.pathalloc import LinkAllocator

WIDTH = 3
LINK_A = resource_mask([((0, 0), (1, 0))], WIDTH)
LINK_B = resource_mask([((1, 0), (1, 1))], WIDTH)
PORT = resource_mask([((2, 2), (2, 2))], WIDTH)


class TestLinkAllocator:
    def test_everything_free_initially(self):
        allocator = LinkAllocator()
        assert allocator.is_free(LINK_A | LINK_B | PORT, 0)
        assert allocator.earliest_free(LINK_A) == 0.0

    def test_reserve_blocks_until_release(self):
        allocator = LinkAllocator()
        allocator.reserve("job1", LINK_A | LINK_B, 0, 100)
        assert allocator.earliest_free(LINK_A | PORT) == 100
        assert allocator.earliest_free(PORT) == 0.0
        assert not allocator.is_free(LINK_A, 50)
        assert not allocator.is_free(LINK_B | PORT, 99)
        assert allocator.is_free(PORT, 99)
        assert allocator.is_free(LINK_A | LINK_B, 100)

    def test_conflicting_reservation_raises(self):
        allocator = LinkAllocator()
        allocator.reserve("job1", LINK_A, 0, 100)
        with pytest.raises(SchedulingError, match="job1"):
            allocator.reserve("job2", LINK_A, 50, 80)

    def test_sequential_reservations_allowed(self):
        allocator = LinkAllocator()
        allocator.reserve("job1", LINK_A, 0, 100)
        allocator.reserve("job2", LINK_A, 100, 180)
        # The conflict message names the current holder, not the first one.
        with pytest.raises(SchedulingError, match="held by 'job2'"):
            allocator.reserve("job3", LINK_A, 150, 200)

    def test_backwards_interval_rejected(self):
        allocator = LinkAllocator()
        with pytest.raises(SchedulingError):
            allocator.reserve("job1", LINK_A, 10, 5)

    def test_zero_cycle_reservation_holds_nothing_at_its_instant(self):
        allocator = LinkAllocator()
        allocator.reserve("job1", LINK_A | PORT, 40, 40)
        assert allocator.is_free(LINK_A | PORT, 40)
        # A later job takes the same links at the same instant, and keeps
        # them: the zero-cycle job's end releases nothing of its.
        allocator.reserve("job2", LINK_A, 40, 90)
        assert not allocator.is_free(LINK_A, 40)
        assert allocator.is_free(PORT, 40)
        assert allocator.earliest_free(LINK_A) == 90

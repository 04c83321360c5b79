"""Tests of the NoC link allocator."""

import pytest

from repro.errors import SchedulingError
from repro.schedule.pathalloc import LinkAllocator

LINK_A = ((0, 0), (1, 0))
LINK_B = ((1, 0), (1, 1))
PORT = ((2, 2), (2, 2))


class TestLinkAllocator:
    def test_everything_free_initially(self):
        allocator = LinkAllocator()
        assert allocator.is_free((LINK_A, LINK_B, PORT), 0)
        assert allocator.earliest_free((LINK_A,)) == 0.0

    def test_reserve_blocks_until_release(self):
        allocator = LinkAllocator()
        allocator.reserve("job1", (LINK_A, LINK_B), 0, 100)
        assert not allocator.is_free((LINK_A,), 50)
        assert not allocator.is_free((LINK_B, PORT), 99)
        assert allocator.is_free((LINK_A, LINK_B), 100)
        assert allocator.earliest_free((LINK_A, PORT)) == 100

    def test_conflicting_reservation_raises(self):
        allocator = LinkAllocator()
        allocator.reserve("job1", (LINK_A,), 0, 100)
        with pytest.raises(SchedulingError, match="job1"):
            allocator.reserve("job2", (LINK_A,), 50, 80)

    def test_sequential_reservations_allowed(self):
        allocator = LinkAllocator()
        allocator.reserve("job1", (LINK_A,), 0, 100)
        allocator.reserve("job2", (LINK_A,), 100, 180)
        # The conflict message names the current holder, not the first one.
        with pytest.raises(SchedulingError, match="held by 'job2'"):
            allocator.reserve("job3", (LINK_A,), 150, 200)

    def test_backwards_interval_rejected(self):
        allocator = LinkAllocator()
        with pytest.raises(SchedulingError):
            allocator.reserve("job1", (LINK_A,), 10, 5)

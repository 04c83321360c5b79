"""Tests of XY routing, including path properties with hypothesis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.noc.routing import XYRouting
from repro.noc.topology import GridTopology


@pytest.fixture
def routing():
    return XYRouting(GridTopology(5, 5))


class TestXYRouting:
    def test_straight_route_x(self, routing):
        assert routing.route((0, 2), (3, 2)) == [(0, 2), (1, 2), (2, 2), (3, 2)]

    def test_straight_route_y(self, routing):
        assert routing.route((2, 0), (2, 2)) == [(2, 0), (2, 1), (2, 2)]

    def test_x_before_y(self, routing):
        path = routing.route((0, 0), (2, 2))
        assert path == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def test_reverse_direction(self, routing):
        path = routing.route((3, 3), (1, 1))
        assert path[0] == (3, 3)
        assert path[-1] == (1, 1)
        assert len(path) == 5

    def test_same_node(self, routing):
        assert routing.route((2, 2), (2, 2)) == [(2, 2)]
        assert routing.hops((2, 2), (2, 2)) == 0
        assert routing.routers_visited((2, 2), (2, 2)) == 1

    def test_hops_matches_manhattan(self, routing):
        assert routing.hops((0, 0), (4, 4)) == 8

    def test_out_of_grid_raises(self, routing):
        with pytest.raises(RoutingError):
            routing.route((0, 0), (9, 9))
        with pytest.raises(RoutingError):
            routing.hops((9, 9), (0, 0))


coords = st.tuples(st.integers(0, 7), st.integers(0, 7))


class TestXYRoutingProperties:
    @settings(max_examples=100, deadline=None)
    @given(source=coords, destination=coords)
    def test_route_properties(self, source, destination):
        routing = XYRouting(GridTopology(8, 8))
        path = routing.route(source, destination)
        # Endpoints are correct.
        assert path[0] == source
        assert path[-1] == destination
        # The route is minimal: exactly manhattan-distance hops.
        assert len(path) - 1 == routing.hops(source, destination)
        # Consecutive nodes are mesh-adjacent, no node repeats (no loops).
        for (ax, ay), (bx, by) in zip(path, path[1:]):
            assert abs(ax - bx) + abs(ay - by) == 1
        assert len(set(path)) == len(path)

    @settings(max_examples=100, deadline=None)
    @given(source=coords, destination=coords)
    def test_xy_order(self, source, destination):
        """Once the route starts moving in y it never moves in x again."""
        routing = XYRouting(GridTopology(8, 8))
        path = routing.route(source, destination)
        moved_y = False
        for a, b in zip(path, path[1:]):
            if a[1] != b[1]:
                moved_y = True
            if a[0] != b[0]:
                assert not moved_y


class TestMemoisedEqualsNaive:
    """The route tables must be pure memoisation: every memoised answer equals
    the naive recomputation, across mesh shapes including degenerate ones."""

    MESHES = [(1, 1), (1, 6), (6, 1), (2, 2), (3, 5), (4, 4)]

    @pytest.mark.parametrize(("width", "height"), MESHES)
    def test_all_pairs_equal_naive(self, width, height):
        memoised = XYRouting(GridTopology(width, height))
        nodes = [(x, y) for x in range(width) for y in range(height)]
        for source in nodes:
            for destination in nodes:
                expected = memoised.naive_route(source, destination)
                hops = memoised.naive_hops(source, destination)
                visited = hops + 1
                # Twice: the first call fills the table, the second hits it.
                assert memoised.route(source, destination) == expected
                assert memoised.route(source, destination) == expected
                assert memoised.hops(source, destination) == hops
                assert memoised.routers_visited(source, destination) == visited

    def test_same_node_pairs(self):
        memoised = XYRouting(GridTopology(3, 3))
        for node in [(0, 0), (1, 2), (2, 2)]:
            assert memoised.route(node, node) == [node]
            assert memoised.route(node, node) == [node]
            assert memoised.hops(node, node) == 0
            assert memoised.routers_visited(node, node) == 1

    def test_hits_return_fresh_lists(self):
        routing = XYRouting(GridTopology(4, 4))
        first = routing.route((0, 0), (3, 3))
        first.reverse()  # corrupting the returned list must not reach the table
        assert routing.route((0, 0), (3, 3)) == routing.naive_route((0, 0), (3, 3))

    def test_memoised_validation_matches_naive(self):
        routing = XYRouting(GridTopology(4, 4))
        for route, hops in (
            (routing.route, routing.hops),
            (routing.naive_route, routing.naive_hops),
        ):
            with pytest.raises(RoutingError):
                route((0, 0), (4, 0))
            with pytest.raises(RoutingError):
                hops((-1, 0), (0, 0))

    @settings(max_examples=100, deadline=None)
    @given(
        width=st.integers(1, 8),
        height=st.integers(1, 8),
        data=st.data(),
    )
    def test_property_equivalence(self, width, height, data):
        node = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
        source = data.draw(node)
        destination = data.draw(node)
        routing = XYRouting(GridTopology(width, height))
        assert routing.route(source, destination) == routing.naive_route(source, destination)
        assert routing.hops(source, destination) == routing.naive_hops(source, destination)

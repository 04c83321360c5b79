"""Tests of the grid topology."""

import pytest

from repro.errors import TopologyError
from repro.noc.topology import GridTopology


class TestGridTopology:
    def test_node_count_and_iteration(self):
        grid = GridTopology(4, 3)
        nodes = list(grid.nodes())
        assert grid.node_count == 12
        assert len(nodes) == 12
        assert nodes[0] == (0, 0)
        assert nodes[-1] == (3, 2)

    def test_invalid_dimensions(self):
        with pytest.raises(TopologyError):
            GridTopology(0, 3)
        with pytest.raises(TopologyError):
            GridTopology(3, -1)

    def test_contains_and_require(self):
        grid = GridTopology(2, 2)
        assert grid.contains((1, 1))
        assert not grid.contains((2, 0))
        with pytest.raises(TopologyError):
            grid.require((2, 0))

    def test_manhattan_distance(self):
        grid = GridTopology(5, 5)
        assert grid.manhattan_distance((0, 0), (4, 4)) == 8
        assert grid.manhattan_distance((2, 3), (2, 3)) == 0

    def test_paper_grid_sizes(self):
        # The paper's systems use 4x4, 5x6 and 5x5 grids.
        assert GridTopology(4, 4).node_count == 16
        assert GridTopology(5, 6).node_count == 30
        assert GridTopology(5, 5).node_count == 25

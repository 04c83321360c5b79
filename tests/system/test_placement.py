"""Tests of core placement."""

import pytest

from repro.cores.core import build_core
from repro.errors import PlacementError
from repro.noc.topology import GridTopology
from repro.system.placement import spread_placement, verify_placement

from tests.conftest import make_module


def cores(count, processors=0):
    result = []
    for index in range(count):
        is_processor = index < processors
        result.append(
            build_core(
                make_module(f"m{index}", patterns=5 + index),
                flit_width=16,
                identifier=f"m{index}",
                is_processor=is_processor,
                processor_name=f"m{index}" if is_processor else None,
            )
        )
    return result


class TestSpreadPlacement:
    def test_all_cores_placed_within_capacity(self):
        grid = GridTopology(5, 5)
        batch = cores(40, processors=8)
        spread_placement(batch, grid)
        verify_placement(batch, grid)
        per_node = {}
        for core in batch:
            per_node[core.node] = per_node.get(core.node, 0) + 1
        assert max(per_node.values()) <= 2  # ceil(40/25)

    def test_processors_are_spread_apart(self):
        grid = GridTopology(4, 4)
        batch = cores(16, processors=4)
        spread_placement(batch, grid)
        processor_nodes = [core.node for core in batch if core.is_processor]
        # Four processors on a 4x4 grid should not cluster on one row.
        assert len(set(processor_nodes)) == 4
        rows = {node[1] for node in processor_nodes}
        assert len(rows) >= 2

    def test_deterministic(self):
        grid = GridTopology(4, 4)
        first = cores(10, processors=2)
        second = cores(10, processors=2)
        spread_placement(first, grid)
        spread_placement(second, grid)
        assert [c.node for c in first] == [c.node for c in second]

    def test_capacity_overflow_detected(self):
        grid = GridTopology(1, 1)
        batch = cores(3)
        # Capacity is ceil(3/1)=3 on a single node, so this fits...
        spread_placement(batch, grid)
        assert all(core.node == (0, 0) for core in batch)


class TestVerifyPlacement:
    def test_unplaced_core_detected(self):
        grid = GridTopology(2, 2)
        batch = cores(2)
        with pytest.raises(PlacementError, match="not placed"):
            verify_placement(batch, grid)

    def test_out_of_grid_detected(self):
        grid = GridTopology(2, 2)
        batch = cores(1)
        batch[0].place_at((5, 5))
        with pytest.raises(PlacementError, match="outside"):
            verify_placement(batch, grid)

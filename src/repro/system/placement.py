"""Deterministic placement of cores onto the NoC grid.

The paper treats core positions as designer input ("the position of each core,
including the processors reused for test").  For reproducibility
:func:`spread_placement` places them deterministically: processors are spread
as evenly as possible over the grid (so that reused processors cover different
regions of the chip) and the remaining cores fill the remaining slots row by
row.  This mirrors how a designer would place programmable cores in a
NoC-based multiprocessor.

Several cores may share a router when the core count exceeds the router count
(as in the paper's p22810 on a 5x6 grid and p93791 on a 5x5 grid).
"""

from __future__ import annotations

from typing import Sequence

from repro.cores.core import CoreUnderTest
from repro.errors import PlacementError
from repro.noc.topology import GridTopology, NodeCoordinate


def _node_capacity(core_count: int, node_count: int) -> int:
    """Cores that may share one router so that everything fits."""
    if node_count <= 0:
        raise PlacementError("the topology has no nodes")
    return -(-core_count // node_count)


def spread_placement(cores: Sequence[CoreUnderTest], topology: GridTopology) -> None:
    """Spread processor cores evenly over the grid, fill the rest row-major.

    Processor cores are placed first, at node indices spaced as evenly as the
    grid allows, so that when only a subset of them is reused the reused ones
    still cover different chip regions.  The remaining cores then fill the
    remaining slots in row-major order (largest test first, so big cores end
    up closer to the external ports at the grid origin and get tested early,
    matching the paper's distance-based priority).
    """
    nodes = list(topology.nodes())
    capacity = _node_capacity(len(cores), len(nodes))
    occupancy: dict[NodeCoordinate, int] = {node: 0 for node in nodes}

    processors = [core for core in cores if core.is_processor]
    others = [core for core in cores if not core.is_processor]

    if len(cores) > capacity * len(nodes):
        raise PlacementError(
            f"cannot place {len(cores)} cores on {len(nodes)} nodes "
            f"with capacity {capacity}"
        )

    # Spread the processors over the node list with an even stride.
    if processors:
        stride = len(nodes) / len(processors)
        for index, processor in enumerate(processors):
            target = int(index * stride) % len(nodes)
            node = _first_free_node(nodes, occupancy, capacity, start=target)
            processor.place_at(node)
            occupancy[node] += 1

    # Remaining cores: largest test time first, filling nodes row-major.
    ordered = sorted(others, key=lambda core: -core.application_time)
    for core in ordered:
        node = _first_free_node(nodes, occupancy, capacity, start=0)
        core.place_at(node)
        occupancy[node] += 1


def _first_free_node(
    nodes: list[NodeCoordinate],
    occupancy: dict[NodeCoordinate, int],
    capacity: int,
    start: int,
) -> NodeCoordinate:
    """First node at or after ``start`` (wrapping) with spare capacity."""
    for offset in range(len(nodes)):
        node = nodes[(start + offset) % len(nodes)]
        if occupancy[node] < capacity:
            return node
    raise PlacementError("no node has spare capacity left")


def verify_placement(cores: Sequence[CoreUnderTest], topology: GridTopology) -> None:
    """Check that every core is placed on a node inside the topology.

    Raises:
        PlacementError: when a core is unplaced or placed outside the grid.
    """
    for core in cores:
        if core.node is None:
            raise PlacementError(f"core {core.identifier!r} is not placed")
        if not topology.contains(core.node):
            raise PlacementError(
                f"core {core.identifier!r} is placed at {core.node}, outside the "
                f"{topology.width}x{topology.height} grid"
            )

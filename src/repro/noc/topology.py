"""2-D grid (mesh) topology.

The paper's tool "currently supports NoCs based on grid topology using the XY
routing algorithm"; the three evaluated systems use 4x4, 5x6 and 5x5 grids.
Nodes are addressed by ``(x, y)`` coordinates with ``(0, 0)`` in the
bottom-left corner, ``x`` growing to the right and ``y`` growing upwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import TopologyError

#: A NoC node is addressed by its (x, y) grid coordinate.
NodeCoordinate = tuple[int, int]


@dataclass(frozen=True)
class GridTopology:
    """A ``width`` x ``height`` mesh of routers with bidirectional channels.

    Attributes:
        width: number of columns (x direction).
        height: number of rows (y direction).
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise TopologyError(
                f"grid dimensions must be positive, got {self.width}x{self.height}"
            )

    @property
    def node_count(self) -> int:
        """Total number of routers in the grid."""
        return self.width * self.height

    def nodes(self) -> Iterator[NodeCoordinate]:
        """Iterate over all node coordinates in row-major order."""
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    def contains(self, node: NodeCoordinate) -> bool:
        """True when ``node`` lies inside the grid."""
        x, y = node
        return 0 <= x < self.width and 0 <= y < self.height

    def require(self, node: NodeCoordinate) -> NodeCoordinate:
        """Return ``node`` unchanged, raising if it is outside the grid."""
        if not self.contains(node):
            raise TopologyError(
                f"node {node} is outside the {self.width}x{self.height} grid"
            )
        return node

    def manhattan_distance(self, first: NodeCoordinate, second: NodeCoordinate) -> int:
        """Hop distance between two nodes under minimal (XY) routing."""
        self.require(first)
        self.require(second)
        return abs(first[0] - second[0]) + abs(first[1] - second[1])

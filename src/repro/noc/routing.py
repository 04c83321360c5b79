"""Deterministic XY routing on a grid topology.

Packets are first routed along the ``x`` dimension until the destination
column is reached and then along the ``y`` dimension.  XY routing is minimal
and deadlock-free on meshes, which is why the HERMES-class NoCs the authors'
group builds (and this paper targets) use it.

Routes are memoised per (source, destination) pair: the scheduler asks for
the same handful of routes once per candidate evaluation at every event, so
the O(hops) list building would otherwise dominate the planning hot path.
The table is filled lazily from the naive implementation
(:meth:`XYRouting.naive_route`), which the property tests compare against
the memoised entry points across mesh shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RoutingError
from repro.noc.topology import GridTopology, NodeCoordinate

#: One (source, destination) endpoint pair.
EndpointPair = tuple[NodeCoordinate, NodeCoordinate]


@dataclass(frozen=True)
class XYRouting:
    """XY (dimension-ordered) routing over a :class:`GridTopology`.

    Attributes:
        topology: the mesh being routed over.
    """

    topology: GridTopology

    def __post_init__(self) -> None:
        # Lazily filled route tables.  The dataclass is frozen so the tables
        # are attached via object.__setattr__; they are pure memoisation and
        # never observable through the public API (routes are returned as
        # fresh lists, so a caller cannot corrupt a table entry).
        object.__setattr__(self, "_routes", {})
        object.__setattr__(self, "_hops", {})

    # ------------------------------------------------------------------
    # Reference (uncached) implementations.
    # ------------------------------------------------------------------
    def naive_route(
        self, source: NodeCoordinate, destination: NodeCoordinate
    ) -> list[NodeCoordinate]:
        """Compute the route without consulting the table (reference path).

        Raises:
            RoutingError: if either endpoint is outside the topology.
        """
        try:
            self.topology.require(source)
            self.topology.require(destination)
        except Exception as exc:
            raise RoutingError(str(exc)) from exc

        path = [source]
        x, y = source
        dest_x, dest_y = destination
        step_x = 1 if dest_x > x else -1
        while x != dest_x:
            x += step_x
            path.append((x, y))
        step_y = 1 if dest_y > y else -1
        while y != dest_y:
            y += step_y
            path.append((x, y))
        return path

    def naive_hops(self, source: NodeCoordinate, destination: NodeCoordinate) -> int:
        """Compute the hop count without consulting the table (reference path)."""
        try:
            return self.topology.manhattan_distance(source, destination)
        except Exception as exc:
            raise RoutingError(str(exc)) from exc

    # ------------------------------------------------------------------
    # Memoised entry points (identical results to the naive ones).
    # ------------------------------------------------------------------
    def route(
        self, source: NodeCoordinate, destination: NodeCoordinate
    ) -> list[NodeCoordinate]:
        """Return the node sequence from ``source`` to ``destination`` inclusive.

        The returned list always starts with ``source`` and ends with
        ``destination``; when both coincide the list has a single element.
        Each call returns a fresh list.

        Raises:
            RoutingError: if either endpoint is outside the topology.
        """
        table: dict[EndpointPair, tuple[NodeCoordinate, ...]] = self._routes
        cached = table.get((source, destination))
        if cached is None:
            # Only validated pairs enter the table, so a hit can skip the
            # endpoint checks without changing the error behaviour.
            cached = tuple(self.naive_route(source, destination))
            table[(source, destination)] = cached
        return list(cached)

    def hops(self, source: NodeCoordinate, destination: NodeCoordinate) -> int:
        """Number of channel traversals between the two nodes."""
        table: dict[EndpointPair, int] = self._hops
        cached = table.get((source, destination))
        if cached is None:
            cached = self.naive_hops(source, destination)
            table[(source, destination)] = cached
        return cached

    def routers_visited(
        self, source: NodeCoordinate, destination: NodeCoordinate
    ) -> int:
        """Number of routers a packet passes through, endpoints included."""
        return self.hops(source, destination) + 1

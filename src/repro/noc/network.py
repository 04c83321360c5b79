"""Facade bundling one configured NoC instance.

:class:`NocConfig` collects the designer-supplied characterisation the paper
lists in Section 2 (topology, routing algorithm, number of routers, flit
width, router timing, mean packet power) and :class:`Network` exposes the
derived services the scheduler needs: routes, hop counts, reservation resource
lists, transfer times and transfer power.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.noc.links import Link, path_resources
from repro.noc.power import NocPowerModel
from repro.noc.routing import EndpointPair, XYRouting
from repro.noc.timing import NocTimingModel
from repro.noc.topology import GridTopology, NodeCoordinate


@dataclass(frozen=True)
class NocConfig:
    """User-facing configuration of the on-chip network.

    Attributes:
        width: grid width (columns).
        height: grid height (rows).
        flit_width: channel width in bits (also the wrapper width of cores).
        routing_latency: per-router header processing latency in cycles.
        flow_control_latency: per-flit per-channel transfer latency in cycles.
        header_flits: protocol flits per packet.
        mean_packet_power: per-router power while forwarding test packets.
        exclusive_local_ports: when True (default) the local port of a router
            is an exclusive resource, so cores sharing a router cannot be
            tested concurrently.
    """

    width: int
    height: int
    flit_width: int = 32
    routing_latency: int = 5
    flow_control_latency: int = 1
    header_flits: int = 2
    mean_packet_power: float = 60.0
    exclusive_local_ports: bool = True

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigurationError(
                f"grid dimensions must be positive, got {self.width}x{self.height}"
            )

    @property
    def node_count(self) -> int:
        """Number of routers in the configured grid."""
        return self.width * self.height


class Network:
    """A configured NoC: topology + routing + timing + power, ready to query.

    Derived per-(source, destination) artefacts — routes, hop counts,
    reservation resource lists — are memoised on first query, and the
    scheduler memoises test jobs against the network instance.

    Args:
        config: the user-facing NoC configuration.
    """

    def __init__(self, config: NocConfig):
        self.config = config
        self.topology = GridTopology(config.width, config.height)
        self.routing = XYRouting(self.topology)
        self.timing = NocTimingModel(
            flit_width=config.flit_width,
            routing_latency=config.routing_latency,
            flow_control_latency=config.flow_control_latency,
            header_flits=config.header_flits,
        )
        self.power = NocPowerModel(mean_packet_power=config.mean_packet_power)
        self._reservations: dict[EndpointPair, tuple[Link, ...]] = {}

    # ------------------------------------------------------------------
    # Topology / routing queries.
    # ------------------------------------------------------------------
    @property
    def flit_width(self) -> int:
        """Channel width in bits."""
        return self.config.flit_width

    def route(
        self, source: NodeCoordinate, destination: NodeCoordinate
    ) -> list[NodeCoordinate]:
        """Node sequence of the XY route from ``source`` to ``destination``."""
        return self.routing.route(source, destination)

    def hops(self, source: NodeCoordinate, destination: NodeCoordinate) -> int:
        """Channel traversals between the two nodes under XY routing."""
        return self.routing.hops(source, destination)

    def routers_visited(self, source: NodeCoordinate, destination: NodeCoordinate) -> int:
        """Routers a packet passes through, endpoints included."""
        return self.routing.routers_visited(source, destination)

    def reservation_resources(
        self, source: NodeCoordinate, destination: NodeCoordinate
    ) -> list[Link]:
        """Exclusive resources a dedicated ``source``→``destination`` path claims.

        Each call returns a fresh list (memoised per endpoint pair).
        """
        cached = self._reservations.get((source, destination))
        if cached is not None:
            return list(cached)
        path = self.route(source, destination)
        include_ports = self.config.exclusive_local_ports
        resources = path_resources(
            path,
            include_source_port=include_ports,
            include_destination_port=include_ports,
        )
        self._reservations[(source, destination)] = tuple(resources)
        return resources

    # ------------------------------------------------------------------
    # Derived transfer metrics.
    # ------------------------------------------------------------------
    def path_setup_cycles(self, source: NodeCoordinate, destination: NodeCoordinate) -> int:
        """Cycles to establish a dedicated path between the two nodes."""
        return self.timing.path_setup_cycles(self.hops(source, destination))

    def transfer_power(self, source: NodeCoordinate, destination: NodeCoordinate) -> float:
        """Power added while a transfer between the two nodes is active."""
        return self.power.transfer_power(self.routers_visited(source, destination))

    def describe(self) -> str:
        """Human readable one-line description of the configured NoC."""
        cfg = self.config
        return (
            f"{cfg.width}x{cfg.height} mesh, XY routing, {cfg.flit_width}-bit flits, "
            f"routing latency {cfg.routing_latency}, "
            f"flow-control latency {cfg.flow_control_latency}"
        )

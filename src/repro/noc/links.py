"""Link identities and path→link expansion.

During a test the source→CUT and CUT→sink routes are reserved exclusively
(dedicated paths), exactly like a long-lived connection in a circuit-switched
use of the NoC.  The reservation granularity is the *directed* channel between
two adjacent routers plus the *local port* that connects a core to its router.

Two cores mapped to the same router therefore compete for that router's local
port, which is one of the effects that limits test parallelism on the small
grids used by the paper.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.noc.topology import NodeCoordinate

#: A directed channel between two adjacent routers, identified by the ordered
#: pair of node coordinates.  Local ports are represented by a pair whose two
#: elements are identical (see :func:`local_port`).
Link = tuple[NodeCoordinate, NodeCoordinate]


def local_port(node: NodeCoordinate) -> Link:
    """Resource identifier for the local (core) port of ``node``.

    The local port connects the cores mapped onto ``node`` to their router and
    is modelled as a single exclusive resource: only one ongoing test can use
    it at any time.
    """
    return (node, node)


def path_links(path: Sequence[NodeCoordinate]) -> list[Link]:
    """Directed channels traversed by ``path`` (a node sequence).

    >>> path_links([(0, 0), (1, 0), (1, 1)])
    [((0, 0), (1, 0)), ((1, 0), (1, 1))]
    >>> path_links([(2, 2)])
    []
    """
    return [
        (path[index], path[index + 1]) for index in range(len(path) - 1)
    ]


def path_resources(
    path: Sequence[NodeCoordinate],
    *,
    include_source_port: bool = True,
    include_destination_port: bool = True,
) -> list[Link]:
    """All exclusive resources claimed by a dedicated path.

    The resources are the directed channels along the path plus, optionally,
    the local ports of the two endpoints.  For a zero-hop path (source and
    destination on the same router) the local port is still claimed once, so
    two cores on one router can never be tested simultaneously through it.
    """
    resources: list[Link] = []
    if include_source_port and path:
        resources.append(local_port(path[0]))
    resources.extend(path_links(path))
    if include_destination_port and path:
        destination_port = local_port(path[-1])
        if destination_port not in resources:
            resources.append(destination_port)
    return resources


#: Bits per router in a resource mask: its local port, then its four
#: outgoing channels.
BITS_PER_NODE = 5

#: Bit offset, within a router's bits, of the channel leaving it by each step.
_CHANNEL_OFFSETS = {(1, 0): 1, (-1, 0): 2, (0, 1): 3, (0, -1): 4}


def resource_bit(resource: Link, width: int) -> int:
    """Bit index of ``resource`` in a resource mask over a ``width``-column grid.

    Router ``(x, y)`` owns bits ``5·(y·width + x)`` (its local port) to
    ``5·(y·width + x) + 4`` (its channels east, west, north and south).  The
    index depends only on the resource and the grid width, so every process
    numbers a grid's resources alike.

    >>> resource_bit(((1, 0), (1, 0)), 3)
    5
    >>> resource_bit(((1, 0), (1, 1)), 3)
    8
    """
    (x, y), (to_x, to_y) = resource
    offset = 0 if resource[0] == resource[1] else _CHANNEL_OFFSETS[(to_x - x, to_y - y)]
    return BITS_PER_NODE * (y * width + x) + offset


def resource_mask(resources: Iterable[Link], width: int) -> int:
    """The resource mask with the bit of every resource in ``resources`` set.

    Two resource sets share a resource exactly when their masks share a bit.
    """
    mask = 0
    for resource in resources:
        mask |= 1 << resource_bit(resource, width)
    return mask

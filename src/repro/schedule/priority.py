"""Core test priority ordering.

The paper states that "the position of the CUTs, processors and IO ports
determine the order and priority of the test.  The cores closer to IO ports or
processors are tested first."  :func:`distance_priority` implements exactly
that ordering and :func:`priority_order` sorts the cores by it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.cores.core import CoreUnderTest
from repro.errors import SchedulingError
from repro.noc.network import Network
from repro.tam.interfaces import TestInterface

#: A priority key maps a core to a sortable value; smaller keys are tested
#: first.
PriorityKey = Callable[[CoreUnderTest], tuple]


def distance_priority(
    cores: Sequence[CoreUnderTest],
    interfaces: Sequence[TestInterface],
    network: Network,
) -> PriorityKey:
    """The paper's priority: distance to the nearest test source, then size.

    Cores closer to an I/O port or to a (reused) processor come first.  Ties
    are broken by descending test time — starting the longest of the equally
    close tests earlier never hurts the makespan — and finally by identifier
    for determinism.
    """
    source_nodes = {interface.source_node for interface in interfaces}
    source_nodes.update(interface.sink_node for interface in interfaces)
    if not source_nodes:
        raise SchedulingError("cannot build a priority without any test interface")

    def key(core: CoreUnderTest) -> tuple:
        if core.node is None:
            raise SchedulingError(
                f"core {core.identifier!r} has not been placed on the NoC"
            )
        distance = min(network.hops(node, core.node) for node in source_nodes)
        return (distance, -core.application_time, core.identifier)

    return key


def priority_order(
    cores: Sequence[CoreUnderTest],
    key: PriorityKey,
) -> list[CoreUnderTest]:
    """Return ``cores`` sorted by ``key`` (ascending; first = highest priority)."""
    return sorted(cores, key=key)

"""Core test priority ordering.

The paper states that "the position of the CUTs, processors and IO ports
determine the order and priority of the test.  The cores closer to IO ports or
processors are tested first."  :func:`distance_priority` implements exactly
that ordering; :func:`priority_order` additionally lets callers plug in their
own key, which the ablation experiments use.
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


def processor_first_priority(
    cores: Sequence[CoreUnderTest],
    interfaces: Sequence[TestInterface],
    network: Network,
) -> PriorityKey:
    """Variant priority that schedules processor cores strictly first.

    Reused processors only start contributing after their own test completes,
    so pulling their tests to the front of the queue maximises the time window
    in which they are useful.  This is not what the paper's greedy tool does
    (it relies on distance alone), but it is a natural design alternative and
    is evaluated by the ablation experiments.
    """
    base = distance_priority(cores, interfaces, network)

    def key(core: CoreUnderTest) -> tuple:
        return (0 if core.is_processor else 1, *base(core))

    return key


def priority_order(
    cores: Sequence[CoreUnderTest],
    key: PriorityKey,
) -> list[CoreUnderTest]:
    """Return ``cores`` sorted by ``key`` (ascending; first = highest priority)."""
    return sorted(cores, key=key)

"""Construction of concrete test jobs.

A *test job* is the result of deciding to test a given core through a given
test interface: it fixes the two NoC routes (source→CUT for stimuli, CUT→sink
for responses), the job duration, the power drawn while the job runs and the
set of exclusive NoC resources the job holds, both as a tuple of links and as
an integer mask with one bit per resource (:func:`~repro.noc.links.resource_mask`).

Duration model
--------------

For a core wrapped into ``flit_width`` wrapper chains, one pattern needs
``1 + max(s_i, s_o)`` scan/capture cycles at the wrapper, ``s_i`` stimulus
flits delivered and ``s_o`` response flits drained.  Per pattern the job
therefore occupies its paths for::

    max(wrapper cycles, s_i * fcl, s_o * fcl) + source_overhead

cycles, where ``fcl`` is the flow-control latency and ``source_overhead`` is
the interface's pattern-generation cost (0 for the ATE, 10 cycles for a
processor running the BIST application).  On top of the per-pattern cost the
job pays the one-time connection set-up of both dedicated paths and the final
response flush (``min(s_i, s_o)`` cycles).

Power model
-----------

While the job runs it draws the core's test power, the interface's active
power (ATE channel or processor application) and the NoC share: the mean
packet power charged to every router visited by either path, exactly as the
paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence
from weakref import WeakKeyDictionary

from repro.cores.core import CoreUnderTest
from repro.errors import SchedulingError
from repro.noc.links import Link, resource_mask
from repro.noc.network import Network
from repro.tam.interfaces import TestInterface


@dataclass(frozen=True, slots=True)
class TestJob:
    """A fully characterised (core, interface) test pairing.

    Attributes:
        core_id: identifier of the core under test.
        interface_id: identifier of the test interface applying the test.
        duration: total cycles the job occupies its resources.
        power: power drawn while the job runs (core + interface + NoC).
        resources: exclusive NoC resources (links, local ports) held.
        stimulus_hops: hop count of the source→CUT route.
        response_hops: hop count of the CUT→sink route.
        setup_cycles: one-time path set-up cycles included in ``duration``.
        patterns: number of test patterns applied.
        cycles_per_pattern: effective per-pattern cycles including the
            interface's generation overhead.
        mask: ``resources`` as a resource mask, for the schedulers' link
            allocator.  It takes no part in equality or ``repr``: it is
            derived from ``resources`` and the grid, and never exported.
    """

    __test__ = False

    core_id: str
    interface_id: str
    duration: int
    power: float
    resources: tuple[Link, ...]
    stimulus_hops: int
    response_hops: int
    setup_cycles: int
    patterns: int
    cycles_per_pattern: int
    mask: int = field(compare=False, repr=False)


def build_job(core: CoreUnderTest, interface: TestInterface, network: Network) -> TestJob:
    """Build the test job for applying ``core``'s test through ``interface``.

    Raises:
        SchedulingError: if the core has not been placed on the NoC, or if a
            processor interface would have to test the very core that embodies
            it (a processor cannot test itself).
    """
    if core.node is None:
        raise SchedulingError(f"core {core.identifier!r} has not been placed on the NoC")
    if interface.processor_core_id == core.identifier:
        raise SchedulingError(
            f"processor interface {interface.identifier!r} cannot test its own core"
        )

    stimulus_path = network.route(interface.source_node, core.node)
    response_path = network.route(core.node, interface.sink_node)
    stimulus_hops = len(stimulus_path) - 1
    response_hops = len(response_path) - 1

    timing = network.timing
    setup = timing.path_setup_cycles(stimulus_hops) + timing.path_setup_cycles(
        response_hops
    )
    wrapper = core.wrapper
    per_pattern = timing.effective_cycles_per_pattern(
        wrapper_cycles_per_pattern=core.cycles_per_pattern,
        scan_in_flits=wrapper.scan_in_length,
        scan_out_flits=wrapper.scan_out_length,
        source_cycles_per_pattern=interface.cycles_per_pattern,
    )
    flush = min(wrapper.scan_in_length, wrapper.scan_out_length)
    duration = setup + per_pattern * core.patterns + flush

    resources: list[Link] = []
    seen: set[Link] = set()
    for resource in network.reservation_resources(interface.source_node, core.node):
        if resource not in seen:
            seen.add(resource)
            resources.append(resource)
    for resource in network.reservation_resources(core.node, interface.sink_node):
        if resource not in seen:
            seen.add(resource)
            resources.append(resource)

    noc_power = network.power.transfer_power(
        network.routers_visited(interface.source_node, core.node)
    ) + network.power.transfer_power(network.routers_visited(core.node, interface.sink_node))
    power = core.power + interface.active_power + noc_power

    return TestJob(
        core_id=core.identifier,
        interface_id=interface.identifier,
        duration=duration,
        power=power,
        resources=tuple(resources),
        stimulus_hops=stimulus_hops,
        response_hops=response_hops,
        setup_cycles=setup,
        patterns=core.patterns,
        cycles_per_pattern=per_pattern,
        mask=resource_mask(resources, network.topology.width),
    )


#: One interface's jobs by core id; ``None`` marks a processor interface's
#: own core (a processor cannot test itself).
JobRow = dict[str, "TestJob | None"]

#: Per-network job table: one row per interface, mapping core id -> job.
#:
#: A job is a pure function of (core, interface, network): the system treats
#: its cores and network as read-only once built (the invariant the
#: :class:`~repro.runner.cache.SystemCache` already relies on to share one
#: instance across sweep points), interfaces are frozen dataclasses that key
#: by value, and core identifiers are unique within a system.  Keying the
#: table weakly on the network keeps the rows alive exactly as long as the
#: system they describe.
_JOB_TABLES: "WeakKeyDictionary[Network, dict[TestInterface, JobRow]]" = WeakKeyDictionary()


def job_rows(
    cores: Sequence[CoreUnderTest],
    interfaces: Sequence[TestInterface],
    network: Network,
) -> dict[str, JobRow]:
    """The job row of every interface in ``interfaces``, by interface id.

    Rows are memoised against ``network`` and shared by every plan over the
    built system: a sweep varies the interface subset and the power ceiling,
    so a plan only looks its interfaces' rows up.  A row is built on its
    interface's first plan and extended when a plan names a core it lacks;
    it may hold more cores than the plan, which the schedulers never look
    up.

    Raises:
        SchedulingError: as :func:`build_job`.
    """
    table = _JOB_TABLES.get(network)
    if table is None:
        table = _JOB_TABLES[network] = {}
    core_ids = {core.identifier for core in cores}
    rows: dict[str, JobRow] = {}
    for interface in interfaces:
        row = table.get(interface)
        if row is None:
            row = table[interface] = {}
        if not row.keys() >= core_ids:
            for core in cores:
                if core.identifier not in row:
                    row[core.identifier] = (
                        None
                        if interface.processor_core_id == core.identifier
                        else build_job(core, interface, network)
                    )
        rows[interface.identifier] = row
    return rows

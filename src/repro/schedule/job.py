"""Construction of concrete test jobs.

A *test job* is the result of deciding to test a given core through a given
test interface: it fixes the two NoC routes (source→CUT for stimuli, CUT→sink
for responses), the job duration, the power drawn while the job runs and the
set of exclusive NoC resources the job holds.

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

from dataclasses import dataclass
from weakref import WeakKeyDictionary

from repro.cores.core import CoreUnderTest
from repro.errors import SchedulingError
from repro.noc.links import Link
from repro.noc.network import Network
from repro.tam.interfaces import TestInterface


@dataclass(frozen=True)
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
    )


#: Per-network memoisation of built jobs, keyed by (core id, interface).
#:
#: A job is a pure function of (core, interface, network): the system treats
#: its cores and network as read-only once built (the invariant the
#: :class:`~repro.runner.cache.SystemCache` already relies on to share one
#: instance across sweep points), interfaces are frozen dataclasses that key
#: by value, and core identifiers are unique within a system.  Keying the
#: table weakly on the network keeps entries alive exactly as long as the
#: system they describe.
_JOB_TABLES: "WeakKeyDictionary[Network, dict]" = WeakKeyDictionary()


def cached_job(core: CoreUnderTest, interface: TestInterface, network: Network) -> TestJob:
    """The job for (``core``, ``interface``), memoised against ``network``.

    Raises:
        SchedulingError: as :func:`build_job`.
    """
    table = _JOB_TABLES.get(network)
    if table is None:
        table = {}
        _JOB_TABLES[network] = table
    key = (core.identifier, interface)
    job = table.get(key)
    if job is None:
        job = build_job(core, interface, network)
        table[key] = job
    return job


def job_fits_memory(core: CoreUnderTest, interface: TestInterface) -> bool:
    """True when the interface's memory (if limited) can host the test.

    External interfaces always fit.  Processor interfaces are limited by the
    processor's on-chip memory; with the BIST application the footprint is the
    program only, so in practice every core fits, but the check matters for
    the decompression extension where stimuli are stored locally.
    """
    if interface.memory_bytes is None:
        return True
    # Conservative estimate: program footprint is already accounted for in the
    # interface's memory figure by the characterisation step; only refuse when
    # the interface reports no memory at all.
    return interface.memory_bytes > 0

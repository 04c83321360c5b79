"""Resource masks agree with the resource tuples they stand for.

The link allocator sees a job's resources only as ``TestJob.mask``; the
validator and the reference schedulers see only ``TestJob.resources``.  On
random synthetic systems, grid sizes and both local-port settings, the bit
numbering is injective over the grid and two jobs' masks meet exactly when
their resource tuples share a resource.
"""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.noc.links import BITS_PER_NODE, local_port, resource_bit
from repro.schedule.job import build_job, job_rows

from tests.properties.test_schedule_properties import random_system
from tests.schedule.test_selection_oracle import synth_benchmarks

systems = random_system(benchmarks=synth_benchmarks(), local_ports=st.booleans())


def grid_resources(topology):
    """Every local port and directed channel of ``topology``."""
    for node in topology.nodes():
        yield local_port(node)
        x, y = node
        for neighbor in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if topology.contains(neighbor):
                yield (node, neighbor)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(system=systems)
def test_masks_match_resources(system):
    topology = system.network.topology
    bits = [resource_bit(r, topology.width) for r in grid_resources(topology)]
    assert len(set(bits)) == len(bits)
    assert all(0 <= bit < BITS_PER_NODE * topology.node_count for bit in bits)

    interfaces = system.interfaces(len(system.processor_cores))
    rows = job_rows(system.cores, interfaces, system.network)
    by_id = {core.identifier: core for core in system.cores}
    jobs = []
    for interface in interfaces:
        for core_id, job in rows[interface.identifier].items():
            if job is None:
                continue
            assert build_job(by_id[core_id], interface, system.network).mask == job.mask
            jobs.append(job)
    for a, b in itertools.combinations_with_replacement(jobs, 2):
        assert bool(a.mask & b.mask) == bool(set(a.resources) & set(b.resources))

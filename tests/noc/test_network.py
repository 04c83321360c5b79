"""Tests of the Network facade."""

import pytest

from repro.errors import ConfigurationError
from repro.noc.links import local_port, path_resources
from repro.noc.network import Network, NocConfig
from repro.system.presets import build_paper_system


class TestNocConfig:
    def test_node_count(self):
        assert NocConfig(width=5, height=6).node_count == 30

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            NocConfig(width=0, height=3)


class TestNetwork:
    @pytest.fixture
    def network(self):
        return Network(NocConfig(width=4, height=4, flit_width=16, routing_latency=3))

    def test_flit_width_exposed(self, network):
        assert network.flit_width == 16

    def test_route_and_hops(self, network):
        assert network.hops((0, 0), (3, 3)) == 6
        assert network.routers_visited((0, 0), (3, 3)) == 7
        path = network.route((0, 0), (3, 3))
        assert path[0] == (0, 0) and path[-1] == (3, 3)

    def test_reservation_resources_include_ports(self, network):
        resources = network.reservation_resources((0, 0), (2, 0))
        assert local_port((0, 0)) in resources
        assert local_port((2, 0)) in resources
        assert ((0, 0), (1, 0)) in resources

    def test_reservation_without_exclusive_ports(self):
        network = Network(NocConfig(width=3, height=3, exclusive_local_ports=False))
        resources = network.reservation_resources((0, 0), (2, 0))
        assert local_port((0, 0)) not in resources
        assert ((1, 0), (2, 0)) in resources

    def test_path_setup_cycles(self, network):
        per_hop = network.timing.routing_latency + network.timing.flow_control_latency
        assert network.path_setup_cycles((0, 0), (0, 3)) == 3 * per_hop

    def test_transfer_power(self, network):
        expected = network.power.mean_packet_power * network.routers_visited((0, 0), (1, 1))
        assert network.transfer_power((0, 0), (1, 1)) == pytest.approx(expected)

    def test_describe_mentions_dimensions(self, network):
        assert "4x4" in network.describe()
        assert "XY" in network.describe()


class TestIdentity:
    def test_networks_of_one_config_keep_their_own_job_tables(self):
        """Equality is identity: two networks built from one config compare
        unequal, so each keys its own job table (and plan store)."""
        from repro.schedule.job import _JOB_TABLES, job_rows

        system = build_paper_system("d695_leon")
        first, second = (Network(system.network.config) for _ in range(2))
        assert first != second
        interfaces = system.interfaces(0)
        rows = [job_rows(system.cores, interfaces, network) for network in (first, second)]
        assert _JOB_TABLES[first] is not _JOB_TABLES[second]
        for interface in interfaces:
            assert rows[0][interface.identifier] is not rows[1][interface.identifier]


class TestReservationsEqualNaive:
    """The reservation table is pure memoisation: every answer equals the
    resource list derived from the naive route, on the first call and on a
    hit, across every endpoint pair of the paper NoCs."""

    @pytest.mark.parametrize("system", ["d695_leon", "p22810_leon", "p93791_leon"])
    def test_all_pairs_equal_naive(self, system):
        network = Network(build_paper_system(system).network.config)
        include_ports = network.config.exclusive_local_ports
        nodes = list(network.topology.nodes())
        for source in nodes:
            for destination in nodes:
                expected = path_resources(
                    network.routing.naive_route(source, destination),
                    include_source_port=include_ports,
                    include_destination_port=include_ports,
                )
                # Twice: the first call fills the table, the second hits it.
                assert network.reservation_resources(source, destination) == expected
                assert network.reservation_resources(source, destination) == expected

    def test_hits_return_fresh_lists(self):
        network = Network(NocConfig(width=4, height=4))
        network.reservation_resources((0, 0), (3, 3))
        hit = network.reservation_resources((0, 0), (3, 3))
        expected = list(hit)
        hit.clear()  # mutating a returned list must not reach the table
        assert network.reservation_resources((0, 0), (3, 3)) == expected

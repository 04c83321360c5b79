"""Tests of the NoC characterisation campaign (the paper's step 1)."""

import pytest

from repro.errors import ConfigurationError
from repro.noc.characterization import NocCharacterization, characterize_noc
from repro.noc.network import Network, NocConfig
from repro.system.presets import build_paper_system


@pytest.fixture
def network():
    return Network(NocConfig(width=4, height=4, flit_width=32))


class TestCharacterizeNoc:
    def test_deterministic(self, network):
        first = characterize_noc(network, packet_count=50)
        second = characterize_noc(network, packet_count=50)
        assert first == second

    def test_different_seed_changes_campaign(self, network):
        a = characterize_noc(network, packet_count=50, seed=1)
        b = characterize_noc(network, packet_count=50, seed=2)
        assert a.mean_latency != b.mean_latency

    def test_statistics_are_consistent(self, network):
        result = characterize_noc(network, packet_count=100)
        assert result.packet_count == 100
        assert 0 < result.mean_latency <= result.worst_latency
        assert 0 <= result.mean_hops <= 6  # 4x4 grid diameter
        assert result.mean_payload_flits >= 1
        assert result.mean_packet_power == network.power.mean_packet_power
        # Serialising some packets on shared links can only stretch the span
        # beyond the single worst packet.
        assert result.simulated_span >= result.worst_latency

    def test_larger_grid_means_longer_routes(self):
        small = characterize_noc(Network(NocConfig(width=3, height=3)), packet_count=150)
        large = characterize_noc(Network(NocConfig(width=6, height=6)), packet_count=150)
        assert large.mean_hops > small.mean_hops

    def test_invalid_parameters(self, network):
        with pytest.raises(ConfigurationError):
            characterize_noc(network, packet_count=0)
        with pytest.raises(ConfigurationError):
            characterize_noc(network, max_payload_bits=0)

    def test_summary_text(self, network):
        summary = characterize_noc(network, packet_count=10).summary()
        assert "10 packets" in summary
        assert "mean latency" in summary


# The reference campaign (200 packets, seed 2005) on the three paper NoCs,
# as computed by the multi-pass grant loop of tests/noc/reference_simulator.py.
PAPER_CHARACTERIZATIONS = {
    "d695_leon": NocCharacterization(
        packet_count=200,
        mean_latency=33.62,
        worst_latency=58,
        mean_hops=2.635,
        mean_payload_flits=15.81,
        mean_packet_power=60.0,
        simulated_span=1165,
    ),
    "p22810_leon": NocCharacterization(
        packet_count=200,
        mean_latency=40.295,
        worst_latency=78,
        mean_hops=3.7,
        mean_payload_flits=16.095,
        mean_packet_power=60.0,
        simulated_span=996,
    ),
    "p93791_leon": NocCharacterization(
        packet_count=200,
        mean_latency=38.18,
        worst_latency=73,
        mean_hops=3.315,
        mean_payload_flits=16.29,
        mean_packet_power=60.0,
        simulated_span=1109,
    ),
}


@pytest.mark.parametrize("system", sorted(PAPER_CHARACTERIZATIONS))
def test_paper_noc_characterization_is_pinned(system):
    network = build_paper_system(system).network
    assert characterize_noc(network) == PAPER_CHARACTERIZATIONS[system]

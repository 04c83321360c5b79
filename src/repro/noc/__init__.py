"""Network-on-chip substrate.

The paper reuses a grid NoC with XY routing as the test access mechanism.
This subpackage models exactly the NoC aspects the paper's tool consumes:

* grid topology and XY routing (:mod:`repro.noc.topology`,
  :mod:`repro.noc.routing`),
* router timing characterisation — routing latency and flow-control latency —
  and the resulting packet/stream transfer times (:mod:`repro.noc.timing`),
* per-hop power characterisation (:mod:`repro.noc.power`),
* link identities and path→link expansion used for exclusive path reservation
  (:mod:`repro.noc.links`),
* a :class:`~repro.noc.network.Network` facade bundling all of the above for
  one configured NoC instance,
* a small circuit-switched simulator used to cross-validate the analytic
  timing model and the scheduler's reservation semantics
  (:mod:`repro.noc.simulator`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.noc.topology": ("GridTopology", "NodeCoordinate"),
        "repro.noc.routing": ("XYRouting",),
        "repro.noc.links": ("Link", "path_links", "local_port"),
        "repro.noc.packet": ("Packet",),
        "repro.noc.timing": ("NocTimingModel",),
        "repro.noc.power": ("NocPowerModel",),
        "repro.noc.network": ("NocConfig", "Network"),
        "repro.noc.simulator": (
            "CircuitSwitchedSimulator",
            "TransferRequest",
            "TransferRecord",
        ),
        "repro.noc.characterization": ("NocCharacterization", "characterize_noc"),
    },
)

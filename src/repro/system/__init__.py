"""System construction: benchmark + processors + NoC + I/O ports.

The paper's experiments extend each ITC'02 benchmark with several instances of
one processor model (Leon or Plasma), map everything onto a grid NoC and
attach one external input port and one external output port.  This subpackage
builds exactly those systems:

* :mod:`repro.system.builder` — the :class:`~repro.system.builder.SocSystem`
  container and the :class:`~repro.system.builder.SystemBuilder` used to
  assemble custom systems,
* :mod:`repro.system.placement` — deterministic core placement strategies,
* :mod:`repro.system.paper` — the six systems evaluated in the paper
  (d695/p22810/p93791 x Leon/Plasma), with the grid sizes from Section 3,
  and Figure 1's axes, as plain data,
* :mod:`repro.system.presets` — builds those six systems.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.system.builder": ("SocSystem", "SystemBuilder"),
        "repro.system.placement": (
            "PlacementStrategy",
            "spread_placement",
            "row_major_placement",
        ),
        "repro.system.paper": ("PAPER_SYSTEMS", "PaperSystemSpec"),
        "repro.system.presets": ("build_paper_system",),
    },
)

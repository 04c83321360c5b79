"""Test access resources: external tester ports and processor test interfaces.

In the paper's architecture a core test always runs between a *test source*
(which injects stimuli into the NoC) and a *test sink* (which drains and
evaluates responses).  Two kinds of source/sink pairs — *test interfaces* —
exist:

* **external interfaces**: an input I/O port and an output I/O port of the NoC
  connected to the external tester (ATE); patterns arrive with no generation
  overhead,
* **processor interfaces**: an embedded processor that, once its own test has
  passed, runs a software test application and acts as both source and sink;
  each generated pattern costs extra cycles (10 by default, per the paper).

:mod:`repro.tam.ports` models the I/O ports, :mod:`repro.tam.interfaces` the
interfaces, and :mod:`repro.tam.pool` the availability bookkeeping used by the
schedulers.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.tam.ports": ("IoPort", "PortDirection", "pair_external_interfaces"),
        "repro.tam.interfaces": ("InterfaceKind", "TestInterface"),
        "repro.tam.pool": ("InterfaceState", "ResourcePool"),
    },
)

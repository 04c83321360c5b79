"""Core-under-test modelling: wrappers, test sets, test time and power.

The scheduler does not look at gate-level detail; for each core it needs

* the number of cycles one pattern takes to apply/unload through a wrapper
  connected to the NoC (derived by :mod:`repro.cores.wrapper`),
* the total core test time for a given access width,
* the amount of test data moved across the network,
* the core's test-mode power consumption.

:class:`~repro.cores.core.CoreUnderTest` bundles all of that for one ITC'02
module, and :mod:`repro.cores.power` fills in synthetic power values when a
benchmark does not carry any.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.cores.core": ("CoreUnderTest", "build_cores"),
        "repro.cores.testset": ("TestSet",),
        "repro.cores.wrapper": ("WrapperDesign", "design_wrapper"),
        "repro.cores.power": ("PowerModel", "assign_power"),
    },
)

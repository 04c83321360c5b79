"""Embedded processor substrate.

The paper reuses the synthesizable Leon (SPARC V8) and Plasma (MIPS-I) soft
cores as test sources and sinks.  For the test planner a processor is
characterised by (Section 2 of the paper):

* the test application it runs (BIST pattern generation today, test-data
  decompression as the announced extension) and its per-pattern timing and
  power cost,
* the memory footprint of that application,
* the processor's own test requirements (it must be tested before it can be
  reused, and complex processors need many patterns).

:mod:`repro.processors.model` defines the generic model,
:mod:`repro.processors.leon` and :mod:`repro.processors.plasma` provide the
two characterisations used in the paper's experiments, and
:mod:`repro.processors.applications` models the software test applications.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.processors.applications": (
            "BistApplication",
            "DecompressionApplication",
            "TestApplication",
        ),
        "repro.processors.model": ("EmbeddedProcessor", "ProcessorKind"),
        "repro.processors.leon": ("leon_processor",),
        "repro.processors.plasma": ("plasma_processor",),
        "repro.processors.characterization": ("ProcessorCharacterization", "characterize"),
    },
)

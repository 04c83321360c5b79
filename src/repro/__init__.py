"""repro — NoC-based SoC test planning with embedded-processor reuse.

This library reproduces the test planning method of

    A. M. Amory, M. Lubaszewski, F. G. Moraes and E. I. Moreno,
    "Test Time Reduction Reusing Multiple Processors in a Network-on-Chip
    Based Architecture", DATE 2005.

It models a NoC-based SoC (grid topology, XY routing), the embedded
processors that can be reused as test sources/sinks, the external tester
ports, and a greedy power-aware test scheduler that reuses both the NoC and
the processors to shorten the system test.

Quickstart::

    from repro import TestPlanner, build_paper_system

    system = build_paper_system("d695_leon")
    planner = TestPlanner(system)
    baseline = planner.plan(reused_processors=0)
    reuse = planner.plan(reused_processors=6)
    print(f"test time without reuse: {baseline.makespan} cycles")
    print(f"test time with 6 processors: {reuse.makespan} cycles")

See PAPER.md for the paper's abstract; ``repro headline`` prints the
paper-versus-measured record of its quoted reductions.

The names below are imported on first use (PEP 562), so importing the
package — which every ``repro`` CLI process does — loads only the modules a
caller actually touches.
"""

__version__ = "1.1.0"

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.errors": (
            "ReproError",
            "BenchmarkFormatError",
            "BenchmarkValidationError",
            "UnknownBenchmarkError",
            "TopologyError",
            "RoutingError",
            "PlacementError",
            "CharacterizationError",
            "ResourceError",
            "SchedulingError",
            "PowerBudgetError",
            "ScheduleValidationError",
            "ConfigurationError",
        ),
        "repro.itc02": ("available_benchmarks", "load_benchmark", "parse_soc_file"),
        "repro.cores": ("CoreUnderTest", "build_cores", "design_wrapper"),
        "repro.noc": ("Network", "NocConfig"),
        "repro.processors": ("leon_processor", "plasma_processor"),
        "repro.schedule": (
            "GreedyScheduler",
            "FastestCompletionScheduler",
            "PowerConstraint",
            "ScheduleResult",
            "TestPlanner",
            "validate_schedule",
        ),
        "repro.runner": (
            "SweepSpec",
            "SweepRunner",
            "SweepOutcome",
            "save_sweeps",
            "load_sweeps",
        ),
        "repro.system": ("SocSystem", "SystemBuilder", "PAPER_SYSTEMS", "build_paper_system"),
    },
)
__all__.append("__version__")

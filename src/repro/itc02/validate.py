"""Structural validation of parsed or generated benchmarks.

:func:`validate_benchmark` checks the invariants that the rest of the library
assumes.  :func:`~repro.itc02.library.load_benchmark` runs it, power
required, on every bundled .soc file it loads; it is also public API
(exported from :mod:`repro.itc02`) for callers that load their own
benchmarks.
"""

from __future__ import annotations

from repro.errors import BenchmarkValidationError
from repro.itc02.model import SocBenchmark


def validate_benchmark(benchmark: SocBenchmark, *, require_power: bool = False) -> None:
    """Validate ``benchmark`` and raise on the first violated invariant.

    Checked invariants:

    * the benchmark has at least one module,
    * module numbers and names are unique,
    * every module has at least one test pattern,
    * every module has at least one terminal or scan cell (otherwise there is
      nothing to transport and the test time would degenerate to zero),
    * scan chain lengths are positive (enforced by the model, re-checked here
      for defence in depth),
    * when ``require_power`` is set, every module carries a positive power
      figure (needed before power-constrained scheduling).

    Raises:
        BenchmarkValidationError: describing the first problem found.
    """
    if benchmark.module_count == 0:
        raise BenchmarkValidationError(
            f"benchmark {benchmark.name!r} has no modules"
        )

    seen_numbers: set[int] = set()
    seen_names: set[str] = set()
    for module in benchmark.modules:
        if module.number in seen_numbers:
            raise BenchmarkValidationError(
                f"benchmark {benchmark.name!r}: duplicate module number {module.number}"
            )
        seen_numbers.add(module.number)
        if module.name in seen_names:
            raise BenchmarkValidationError(
                f"benchmark {benchmark.name!r}: duplicate module name {module.name!r}"
            )
        seen_names.add(module.name)

        if module.patterns < 1:
            raise BenchmarkValidationError(
                f"module {module.name!r} has no test patterns"
            )
        if module.inputs + module.outputs + module.bidirs + module.scan_cells == 0:
            raise BenchmarkValidationError(
                f"module {module.name!r} has no terminals and no scan cells"
            )
        for chain in module.scan_chains:
            if chain.length <= 0:
                raise BenchmarkValidationError(
                    f"module {module.name!r} has a non-positive scan chain length"
                )
        if require_power and module.power <= 0:
            raise BenchmarkValidationError(
                f"module {module.name!r} has no test power figure "
                "(required for power-constrained scheduling)"
            )

"""Data model for ITC'02-style SoC test benchmarks.

A benchmark SoC is a flat collection of modules (cores).  For the purposes of
test planning each module is fully described by its test interface:

* functional terminal counts (inputs, outputs, bidirectionals),
* internal scan chains (count and individual lengths),
* number of test patterns of its (single, external) test set,
* an optional per-core test power figure, non-negative and finite (the
  original ITC'02 files carry no power information; power-aware follow-up
  work attaches synthetic values, and so do this library's bundled .soc
  files; :mod:`repro.cores.power` fills in figures for a benchmark that has
  none).

The model intentionally flattens the ITC'02 hierarchy levels: the paper's
tool, like most test-scheduling work on these benchmarks, treats every module
as an independently testable core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import BenchmarkValidationError


@dataclass(frozen=True)
class ScanChain:
    """A single internal scan chain of a module.

    Attributes:
        index: position of the chain within its module (0-based).
        length: number of scan cells (flip-flops) on the chain.
    """

    index: int
    length: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise BenchmarkValidationError(
                f"scan chain index must be non-negative, got {self.index}"
            )
        if self.length <= 0:
            raise BenchmarkValidationError(
                f"scan chain length must be positive, got {self.length}"
            )


@dataclass(frozen=True)
class Module:
    """A testable module (core) of a benchmark SoC.

    Attributes:
        number: the module number used by the benchmark file (1-based; module
            0, the SoC-level entry of the original format, is not represented).
        name: human readable core name (e.g. ``"s38417"``).
        inputs: number of functional input terminals.
        outputs: number of functional output terminals.
        bidirs: number of bidirectional terminals.
        scan_chains: the module's internal scan chains (may be empty for
            purely combinational cores).
        patterns: number of test patterns in the module's test set.
        power: test-mode power consumption in arbitrary power units
            (0.0 when unknown).
    """

    number: int
    name: str
    inputs: int
    outputs: int
    bidirs: int = 0
    scan_chains: tuple[ScanChain, ...] = ()
    patterns: int = 0
    power: float = 0.0

    def __post_init__(self) -> None:
        if self.number < 1:
            raise BenchmarkValidationError(
                f"module number must be >= 1, got {self.number}"
            )
        for attr in ("inputs", "outputs", "bidirs", "patterns"):
            value = getattr(self, attr)
            if value < 0:
                raise BenchmarkValidationError(
                    f"module {self.name!r}: {attr} must be non-negative, got {value}"
                )
        if not 0 <= self.power < math.inf:
            raise BenchmarkValidationError(
                f"module {self.name!r}: power must be non-negative and finite, "
                f"got {self.power}"
            )

    # ------------------------------------------------------------------
    # Derived quantities used by wrapper design and test-time computation.
    # ------------------------------------------------------------------
    @property
    def scan_chain_count(self) -> int:
        """Number of internal scan chains."""
        return len(self.scan_chains)

    @property
    def scan_cells(self) -> int:
        """Total number of internal scan cells (sum of chain lengths)."""
        return sum(chain.length for chain in self.scan_chains)

    @property
    def scan_chain_lengths(self) -> tuple[int, ...]:
        """Lengths of the internal scan chains, in declaration order."""
        return tuple(chain.length for chain in self.scan_chains)

    @property
    def is_combinational(self) -> bool:
        """True when the module has no internal scan chains."""
        return not self.scan_chains

    @property
    def scan_in_bits_per_pattern(self) -> int:
        """Bits shifted *into* the module per pattern (inputs + scan cells).

        Bidirectional terminals are counted on both the input and the output
        side, following the usual ITC'02 wrapper-design convention.
        """
        return self.inputs + self.bidirs + self.scan_cells

    @property
    def scan_out_bits_per_pattern(self) -> int:
        """Bits shifted *out of* the module per pattern (outputs + scan cells)."""
        return self.outputs + self.bidirs + self.scan_cells

    @property
    def test_data_volume_bits(self) -> int:
        """Total stimulus + response volume of the module's test set in bits."""
        per_pattern = self.scan_in_bits_per_pattern + self.scan_out_bits_per_pattern
        return per_pattern * self.patterns

    def with_power(self, power: float) -> "Module":
        """Return a copy of this module with ``power`` attached."""
        return Module(
            number=self.number,
            name=self.name,
            inputs=self.inputs,
            outputs=self.outputs,
            bidirs=self.bidirs,
            scan_chains=self.scan_chains,
            patterns=self.patterns,
            power=power,
        )


@dataclass
class SocBenchmark:
    """A complete benchmark SoC: a named, ordered collection of modules."""

    name: str
    modules: list[Module] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise BenchmarkValidationError("benchmark name must not be empty")

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    @property
    def module_count(self) -> int:
        """Number of modules in the SoC."""
        return len(self.modules)

    @property
    def total_patterns(self) -> int:
        """Sum of the pattern counts of all modules."""
        return sum(module.patterns for module in self.modules)

    @property
    def total_scan_cells(self) -> int:
        """Sum of the internal scan cells of all modules."""
        return sum(module.scan_cells for module in self.modules)

    @property
    def total_test_data_volume_bits(self) -> int:
        """Total stimulus + response volume of all module test sets in bits."""
        return sum(module.test_data_volume_bits for module in self.modules)

    @property
    def total_power(self) -> float:
        """Sum of the per-module test power figures."""
        return sum(module.power for module in self.modules)

    def module_by_number(self, number: int) -> Module:
        """Return the module with benchmark number ``number``.

        Raises:
            KeyError: if no module carries that number.
        """
        for module in self.modules:
            if module.number == number:
                return module
        raise KeyError(f"benchmark {self.name!r} has no module number {number}")

    def module_by_name(self, name: str) -> Module:
        """Return the module named ``name``.

        Raises:
            KeyError: if no module carries that name.
        """
        for module in self.modules:
            if module.name == name:
                return module
        raise KeyError(f"benchmark {self.name!r} has no module named {name!r}")

    def add_module(self, module: Module) -> None:
        """Append ``module``, rejecting duplicate numbers or names."""
        if any(existing.number == module.number for existing in self.modules):
            raise BenchmarkValidationError(
                f"benchmark {self.name!r}: duplicate module number {module.number}"
            )
        if any(existing.name == module.name for existing in self.modules):
            raise BenchmarkValidationError(
                f"benchmark {self.name!r}: duplicate module name {module.name!r}"
            )
        self.modules.append(module)

    def with_powers(self, powers: Sequence[float]) -> "SocBenchmark":
        """Return a copy with per-module power values attached in order."""
        if len(powers) != len(self.modules):
            raise BenchmarkValidationError(
                f"expected {len(self.modules)} power values, got {len(powers)}"
            )
        return SocBenchmark(
            name=self.name,
            modules=[m.with_power(p) for m, p in zip(self.modules, powers)],
        )

    def summary(self) -> str:
        """One-line human readable summary of the benchmark."""
        return (
            f"{self.name}: {self.module_count} modules, "
            f"{self.total_patterns} patterns, "
            f"{self.total_scan_cells} scan cells, "
            f"{self.total_test_data_volume_bits} test data bits"
        )

"""Deterministic synthetic reconstruction of the large ITC'02 benchmarks.

The original ``p22810`` and ``p93791`` benchmark files are distributed by the
ITC'02 SoC Test Benchmarks initiative and are not redistributable here.  The
test planner, however, only consumes per-module aggregate quantities (terminal
counts, scan structure, pattern count, power), so for reproduction purposes it
is sufficient to regenerate benchmarks that match the published *aggregate*
characteristics of the originals:

* module count (28 flattened modules for p22810, 32 for p93791),
* a heavy-tailed module-size distribution with a few dominant cores (the real
  p93791 is famously dominated by a handful of very large modules),
* an overall test-data volume that lands the no-reuse serial test time in the
  same order of magnitude as the paper's Figure 1 axes.

The generator is fully deterministic: the same :class:`SyntheticSocSpec`
always produces the same benchmark, bit for bit.  :data:`P22810_SPEC` and
:data:`P93791_SPEC` generated the bundled ``data/p22810.soc`` and
``data/p93791.soc`` files (written with :mod:`repro.itc02.writer`).  The
program loads those bundled .soc files and never imports this module; it
stays as their documented generator and as the tests' oracle that the files
still equal what the specs produce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.itc02.model import Module, ScanChain, SocBenchmark


@dataclass(frozen=True)
class SyntheticSocSpec:
    """Specification of a synthetic ITC'02-style benchmark.

    Attributes:
        name: benchmark name (e.g. ``"p22810"``).
        module_count: number of flattened modules to generate.
        target_serial_test_time: desired sum of per-module test times, in
            cycles, when every module is tested one after the other over a
            ``calibration_width``-bit access mechanism.  This is the quantity
            the paper's "noproc" bars essentially measure (minus the added
            processor cores), so calibrating it reproduces the figure's axes.
        calibration_width: access-mechanism width (flit width) used for the
            calibration above.
        dominant_fractions: fractions of the target serial test time assigned
            to the largest modules, largest first.  The remainder is spread
            over the other modules with a log-uniform distribution.
        seed: PRNG seed; part of the spec so that specs are self-contained.
        scan_chain_range: (min, max) number of scan chains for sequential
            modules.
        io_range: (min, max) functional terminal count per direction.
        pattern_range: (min, max) pattern count before calibration scaling.
        combinational_ratio: fraction of modules generated without scan.
        power_per_cell: synthetic test power per scan cell (power units).
        power_floor: minimum synthetic test power per module.
    """

    name: str
    module_count: int
    target_serial_test_time: int
    calibration_width: int = 32
    dominant_fractions: tuple[float, ...] = ()
    seed: int = 2005
    scan_chain_range: tuple[int, int] = (1, 32)
    io_range: tuple[int, int] = (10, 220)
    pattern_range: tuple[int, int] = (20, 500)
    combinational_ratio: float = 0.15
    power_per_cell: float = 0.45
    power_floor: float = 120.0

    def __post_init__(self) -> None:
        if self.module_count < 1:
            raise ConfigurationError("module_count must be at least 1")
        if self.target_serial_test_time <= 0:
            raise ConfigurationError("target_serial_test_time must be positive")
        if self.calibration_width <= 0:
            raise ConfigurationError("calibration_width must be positive")
        if sum(self.dominant_fractions) >= 1.0:
            raise ConfigurationError("dominant_fractions must sum to less than 1")
        if any(f <= 0 for f in self.dominant_fractions):
            raise ConfigurationError("dominant_fractions must be positive")
        if len(self.dominant_fractions) > self.module_count:
            raise ConfigurationError(
                "cannot have more dominant modules than modules"
            )
        if not 0.0 <= self.combinational_ratio < 1.0:
            raise ConfigurationError("combinational_ratio must be in [0, 1)")


def _estimate_test_time(
    inputs: int, outputs: int, scan_cells: int, chains: int, patterns: int, width: int
) -> int:
    """Cheap estimate of a module's test time over a ``width``-bit TAM.

    Uses the classic wrapper scan formula with perfectly balanced wrapper
    chains, which is what :mod:`repro.cores.wrapper` converges to; the
    calibration only needs to be approximately right.
    """
    if scan_cells == 0:
        shift_in = -(-inputs // width) if inputs else 0
        shift_out = -(-outputs // width) if outputs else 0
    else:
        effective_width = min(width, max(chains, 1))
        shift_in = -(-(scan_cells + inputs) // effective_width)
        shift_out = -(-(scan_cells + outputs) // effective_width)
    longest = max(shift_in, shift_out, 1)
    shortest = min(shift_in, shift_out)
    return (1 + longest) * patterns + shortest


def _split_into_chains(rng: random.Random, scan_cells: int, chain_count: int) -> list[int]:
    """Split ``scan_cells`` into ``chain_count`` nearly balanced chain lengths."""
    chain_count = max(1, min(chain_count, scan_cells))
    base = scan_cells // chain_count
    remainder = scan_cells % chain_count
    lengths = [base + (1 if i < remainder else 0) for i in range(chain_count)]
    # Perturb slightly so the benchmark is not artificially uniform, while
    # keeping the total number of cells exact.
    for _ in range(chain_count // 2):
        i = rng.randrange(chain_count)
        j = rng.randrange(chain_count)
        if lengths[i] > 2:
            delta = rng.randint(1, max(1, lengths[i] // 8))
            delta = min(delta, lengths[i] - 1)
            lengths[i] -= delta
            lengths[j] += delta
    return [length for length in lengths if length > 0]


def _generate_raw_module(
    rng: random.Random, spec: SyntheticSocSpec, number: int, weight: float
) -> Module:
    """Generate one module whose size scales with ``weight`` (0..1]."""
    io_low, io_high = spec.io_range
    inputs = rng.randint(io_low, io_high)
    outputs = rng.randint(io_low, io_high)
    bidirs = rng.randint(0, io_low)

    is_combinational = rng.random() < spec.combinational_ratio and weight < 0.05
    pattern_low, pattern_high = spec.pattern_range
    patterns = rng.randint(pattern_low, pattern_high)

    if is_combinational:
        scan_chains: tuple[ScanChain, ...] = ()
    else:
        chain_low, chain_high = spec.scan_chain_range
        chain_count = rng.randint(chain_low, chain_high)
        # Scan size grows with the module weight: dominant modules get long
        # chains, which is what makes them dominate the test time.
        scan_cells = int(200 + weight * 12000) + rng.randint(0, 400)
        lengths = _split_into_chains(rng, scan_cells, chain_count)
        scan_chains = tuple(
            ScanChain(index=i, length=length) for i, length in enumerate(lengths)
        )

    return Module(
        number=number,
        name=f"{spec.name}_m{number:02d}",
        inputs=inputs,
        outputs=outputs,
        bidirs=bidirs,
        scan_chains=scan_chains,
        patterns=patterns,
        power=0.0,
    )


def _scale_patterns(module: Module, factor: float) -> Module:
    """Return ``module`` with its pattern count scaled by ``factor`` (>= 1 pattern)."""
    patterns = max(1, round(module.patterns * factor))
    return Module(
        number=module.number,
        name=module.name,
        inputs=module.inputs,
        outputs=module.outputs,
        bidirs=module.bidirs,
        scan_chains=module.scan_chains,
        patterns=patterns,
        power=module.power,
    )


def _attach_power(rng: random.Random, spec: SyntheticSocSpec, module: Module) -> Module:
    """Attach a synthetic test power figure proportional to module size."""
    size = module.scan_cells + module.inputs + module.outputs
    noise = 0.8 + 0.4 * rng.random()
    power = max(spec.power_floor, size * spec.power_per_cell * noise)
    return module.with_power(round(power, 1))


def generate_benchmark(spec: SyntheticSocSpec) -> SocBenchmark:
    """Generate a synthetic benchmark according to ``spec``.

    The generation happens in three phases:

    1. draw per-module target *weights* (dominant modules get the fractions of
       ``spec.dominant_fractions``, the rest share the remainder),
    2. generate raw module structures whose scan size follows the weights,
    3. rescale every module's pattern count so that its estimated test time
       over the calibration width matches its weight of the target serial test
       time, then attach synthetic power.
    """
    rng = random.Random(spec.seed)

    remainder = 1.0 - sum(spec.dominant_fractions)
    tail_count = spec.module_count - len(spec.dominant_fractions)
    tail_weights: list[float] = []
    if tail_count:
        draws = [rng.uniform(0.3, 1.0) ** 2 for _ in range(tail_count)]
        total = sum(draws)
        tail_weights = [remainder * draw / total for draw in draws]
    weights = list(spec.dominant_fractions) + tail_weights

    benchmark = SocBenchmark(name=spec.name)
    for index, weight in enumerate(weights, start=1):
        raw = _generate_raw_module(rng, spec, index, weight)
        target_time = max(32.0, weight * spec.target_serial_test_time)
        estimated = _estimate_test_time(
            raw.inputs,
            raw.outputs,
            raw.scan_cells,
            raw.scan_chain_count,
            raw.patterns,
            spec.calibration_width,
        )
        factor = target_time / max(1, estimated)
        scaled = _scale_patterns(raw, factor)
        benchmark.add_module(_attach_power(rng, spec, scaled))
    return benchmark


#: Specification used to reconstruct the p22810 benchmark.  28 flattened
#: modules; the no-reuse serial test time over a 32-bit access mechanism lands
#: near the ~0.8M-cycle region of the paper's Figure 1 middle panels (the
#: remaining ~0.15M cycles of the noproc bars come from the added processors).
P22810_SPEC = SyntheticSocSpec(
    name="p22810",
    module_count=28,
    target_serial_test_time=780_000,
    dominant_fractions=(0.24, 0.13, 0.09),
    seed=22810,
)

#: Specification used to reconstruct the p93791 benchmark.  32 flattened
#: modules dominated by a few very large cores, exactly like the original; the
#: serial test time target reproduces the ~1.3M-cycle ITC'02 share of the
#: paper's Figure 1 bottom panels.
P93791_SPEC = SyntheticSocSpec(
    name="p93791",
    module_count=32,
    target_serial_test_time=1_300_000,
    dominant_fractions=(0.27, 0.17, 0.12, 0.08),
    seed=93791,
)

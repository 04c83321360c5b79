"""Ablation experiments on the design choices the paper discusses.

Three studies:

* **Scheduler policy (claim T4)** — the paper attributes the irregular test
  times of p22810 to its greedy "first available interface" rule and argues a
  faster interface should sometimes be awaited.
  :func:`run_scheduler_comparison` re-plans the same sweeps with the
  look-ahead :class:`~repro.schedule.variants.FastestCompletionScheduler` and
  shows how much of the irregularity disappears.
* **Processor pattern penalty (A1)** — the paper assumes a processor takes 10
  cycles to generate a pattern while the ATE takes none.
  :func:`run_pattern_penalty_sweep` sweeps that penalty to show how sensitive
  the reuse gain is to the quality of the BIST kernel.
* **External interface count (A2)** — the paper's experiments fix one
  input/output pair.  :func:`run_external_interface_sweep` adds more ATE port
  pairs and quantifies how processor reuse compares with simply buying more
  tester channels (the cost the paper's approach avoids).

The first two studies (and the flit-width sweep) are declarative
:class:`~repro.runner.spec.SweepSpec` grids executed by the shared
:class:`~repro.runner.engine.SweepRunner`; only the external-interface study
builds custom systems and therefore keeps its own loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runner.engine import SweepOutcome, SweepRunner
from repro.runner.spec import SweepSpec
from repro.schedule.planner import TestPlanner
from repro.system.presets import PAPER_SYSTEMS, processor_prototype
from repro.tam.ports import PortDirection
from repro.units import reduction_percent


def _makespans_by(outcomes: list[SweepOutcome], *axes: str) -> dict[tuple, int]:
    """Index sweep outcomes by the given point fields → makespan."""
    return {
        tuple(getattr(outcome.point, axis) for axis in axes): outcome.makespan
        for outcome in outcomes
    }


@dataclass(frozen=True)
class SchedulerComparisonRow:
    """Makespans of both schedulers for one configuration."""

    system: str
    reused_processors: int
    greedy_makespan: int
    lookahead_makespan: int

    @property
    def improvement_percent(self) -> float:
        """Reduction the look-ahead policy achieves over the greedy one."""
        return reduction_percent(self.greedy_makespan, self.lookahead_makespan)


def scheduler_comparison_spec(
    system_name: str = "p22810_leon",
    *,
    processor_counts: tuple[int, ...] = (0, 2, 4, 6, 8),
    power_limit_fraction: float | None = None,
) -> SweepSpec:
    """The declarative grid of the scheduler-policy ablation (claim T4).

    A thin spec like :func:`repro.experiments.figure1.figure1_spec`: a
    runner executes it in-process, or the shard-worker
    orchestrator fans it out into a store (``repro sweep --spec-json`` /
    :meth:`ShardWorkerBackend.orchestrate
    <repro.runner.backends.ShardWorkerBackend.orchestrate>`).
    """
    return SweepSpec(
        name=f"ablation-scheduler-{system_name.lower()}",
        systems=(system_name,),
        processor_counts=processor_counts,
        power_limits=(("series", power_limit_fraction),),
        schedulers=("greedy", "fastest-completion"),
    )


def run_scheduler_comparison(
    system_name: str = "p22810_leon",
    *,
    processor_counts: tuple[int, ...] = (0, 2, 4, 6, 8),
    power_limit_fraction: float | None = None,
    runner: SweepRunner | None = None,
) -> list[SchedulerComparisonRow]:
    """Compare the greedy policy with the fastest-completion policy."""
    spec = scheduler_comparison_spec(
        system_name,
        processor_counts=processor_counts,
        power_limit_fraction=power_limit_fraction,
    )
    outcomes = (runner or SweepRunner()).run(spec)
    makespans = _makespans_by(outcomes, "scheduler", "reused_processors")
    return [
        SchedulerComparisonRow(
            system=system_name,
            reused_processors=count,
            greedy_makespan=makespans[("greedy", count)],
            lookahead_makespan=makespans[("fastest-completion", count)],
        )
        for count in processor_counts
    ]


@dataclass(frozen=True)
class PenaltySweepRow:
    """Reuse gain for one value of the processor pattern-generation penalty."""

    cycles_per_pattern: int
    baseline_makespan: int
    reuse_makespan: int

    @property
    def reduction_percent(self) -> float:
        """Test-time reduction achieved by reusing all processors."""
        return reduction_percent(self.baseline_makespan, self.reuse_makespan)


def pattern_penalty_spec(
    system_name: str = "d695_leon",
    *,
    penalties: tuple[int, ...] = (0, 5, 10, 20, 40),
) -> SweepSpec:
    """The declarative grid of the pattern-penalty ablation (study A1)."""
    return SweepSpec(
        name=f"ablation-pattern-penalty-{system_name.lower()}",
        systems=(system_name,),
        processor_counts=(0, None),
        pattern_penalties=penalties,
    )


def run_pattern_penalty_sweep(
    system_name: str = "d695_leon",
    *,
    penalties: tuple[int, ...] = (0, 5, 10, 20, 40),
    runner: SweepRunner | None = None,
) -> list[PenaltySweepRow]:
    """Sweep the per-pattern processor penalty (the paper fixes it to 10)."""
    spec = pattern_penalty_spec(system_name, penalties=penalties)
    outcomes = (runner or SweepRunner()).run(spec)
    makespans = _makespans_by(outcomes, "pattern_penalty", "reused_processors")
    return [
        PenaltySweepRow(
            cycles_per_pattern=penalty,
            baseline_makespan=makespans[(penalty, 0)],
            reuse_makespan=makespans[(penalty, None)],
        )
        for penalty in penalties
    ]


@dataclass(frozen=True)
class FlitWidthRow:
    """Makespans for one NoC flit width (with and without processor reuse)."""

    flit_width: int
    baseline_makespan: int
    reuse_makespan: int

    @property
    def reduction_percent(self) -> float:
        """Test-time reduction achieved by reusing all processors."""
        return reduction_percent(self.baseline_makespan, self.reuse_makespan)


def flit_width_spec(
    system_name: str = "d695_leon",
    *,
    flit_widths: tuple[int, ...] = (8, 16, 32, 64),
) -> SweepSpec:
    """The declarative grid of the flit-width ablation."""
    return SweepSpec(
        name=f"ablation-flit-width-{system_name.lower()}",
        systems=(system_name,),
        processor_counts=(0, None),
        flit_widths=flit_widths,
    )


def run_flit_width_sweep(
    system_name: str = "d695_leon",
    *,
    flit_widths: tuple[int, ...] = (8, 16, 32, 64),
    runner: SweepRunner | None = None,
) -> list[FlitWidthRow]:
    """Sweep the NoC flit width (the paper does not publish its value).

    The flit width doubles as the wrapper width of every core, so it scales
    every test time; the sweep shows that the *relative* benefit of processor
    reuse is largely insensitive to it, which is why reproducing the paper
    with a 32-bit default is legitimate.
    """
    spec = flit_width_spec(system_name, flit_widths=flit_widths)
    outcomes = (runner or SweepRunner()).run(spec)
    makespans = _makespans_by(outcomes, "flit_width", "reused_processors")
    return [
        FlitWidthRow(
            flit_width=width,
            baseline_makespan=makespans[(width, 0)],
            reuse_makespan=makespans[(width, None)],
        )
        for width in flit_widths
    ]


@dataclass(frozen=True)
class ExternalInterfaceRow:
    """Makespans when adding ATE port pairs instead of reusing processors."""

    external_pairs: int
    external_only_makespan: int
    with_processors_makespan: int


def run_external_interface_sweep(
    system_name: str = "p93791_leon",
    *,
    max_pairs: int = 3,
) -> list[ExternalInterfaceRow]:
    """Compare extra ATE port pairs against processor reuse.

    For ``n`` port pairs the input ports are spread along the bottom edge of
    the grid and the output ports along the top edge.  The "with processors"
    column additionally reuses every processor of the system, showing that
    reuse keeps helping even when more tester channels are available.

    This study mutates the system topology itself (extra I/O ports), which
    the declarative sweep grid deliberately does not model, so it plans its
    systems directly.
    """
    rows = []
    for pairs in range(1, max_pairs + 1):
        system = _build_with_port_pairs(system_name, pairs)
        planner = TestPlanner(system)
        external_only = planner.plan(reused_processors=0)
        with_processors = planner.plan(reused_processors=None)
        rows.append(
            ExternalInterfaceRow(
                external_pairs=pairs,
                external_only_makespan=external_only.makespan,
                with_processors_makespan=with_processors.makespan,
            )
        )
    return rows


def _build_with_port_pairs(system_name: str, pairs: int):
    """Build a paper system, then extend it with extra ATE port pairs."""
    from repro.cores.power import PowerModel, assign_power
    from repro.itc02.library import load_benchmark
    from repro.noc.network import NocConfig
    from repro.system.builder import SystemBuilder

    spec = PAPER_SYSTEMS[system_name.lower()]
    benchmark = assign_power(load_benchmark(spec.benchmark), PowerModel())
    prototype = processor_prototype(spec.processor_model)
    noc = NocConfig(width=spec.grid_width, height=spec.grid_height)
    builder = (
        SystemBuilder(f"{spec.name}_x{pairs}ext", noc)
        .add_benchmark(benchmark)
        .add_processors(prototype, spec.processor_count)
    )
    for index in range(pairs):
        in_x = (index * max(1, spec.grid_width // max(pairs, 1))) % spec.grid_width
        out_x = spec.grid_width - 1 - in_x
        builder.add_io_port(f"ext_in{index}", (in_x, 0), PortDirection.INPUT)
        builder.add_io_port(
            f"ext_out{index}", (out_x, spec.grid_height - 1), PortDirection.OUTPUT
        )
    return builder.build()

"""Reproduction of the paper's Figure 1.

Figure 1 has six panels — systems d695, p22810 and p93791, each with Leon and
with Plasma processors — and every panel plots the system test time against
the number of processors reused for test (``noproc``, 2, 4, 6 and, for the two
larger systems, 8), for two series: a 50 % power limit and no power limit.

Each panel is one :class:`~repro.runner.spec.SweepSpec` (see
:func:`figure1_spec`) executed by the shared
:class:`~repro.runner.engine.SweepRunner`; :func:`run_panel` reproduces one
panel, :func:`run_figure1` the whole figure.  The raw numbers are returned as
:class:`~repro.schedule.result.ScheduleResult` objects grouped per series so
callers can print them (:func:`repro.analysis.report.sweep_table`), export
them (:func:`repro.analysis.export.sweep_to_csv`) or post-process them
further.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.runner.engine import SweepRunner
from repro.runner.schedulers import scheduler_spec_name
from repro.runner.spec import SweepSpec
from repro.schedule.greedy import EventDrivenScheduler
from repro.schedule.result import ScheduleResult
from repro.system.paper import PAPER_POWER_SERIES, PAPER_PROCESSOR_COUNTS, PAPER_SYSTEMS


@dataclass
class Figure1Panel:
    """The reproduced data of one Figure 1 panel.

    Attributes:
        system_name: the panel's system (e.g. ``"p93791_leon"``).
        series: mapping of series label to a processor-count → schedule sweep.
    """

    system_name: str
    series: dict[str, dict[int, ScheduleResult]] = field(default_factory=dict)

    def makespans(self, label: str) -> dict[int, int]:
        """Processor count → test time for one series of the panel."""
        return {count: result.makespan for count, result in self.series[label].items()}

    def best_reduction(self, label: str) -> float:
        """Largest test-time reduction (vs. noproc) achieved in one series."""
        sweep = self.series[label]
        baseline = sweep[0].makespan
        best = min(result.makespan for result in sweep.values())
        if baseline == 0:
            return 0.0
        return 100.0 * (baseline - best) / baseline


def figure1_spec(
    system_name: str,
    *,
    processor_counts: tuple[int, ...] | None = None,
    power_series: dict[str, float | None] | None = None,
    scheduler: EventDrivenScheduler | None = None,
    flit_width: int = 32,
) -> SweepSpec:
    """The sweep specification of one Figure 1 panel.

    Raises:
        ConfigurationError: for an unknown system name.
    """
    key = system_name.lower()
    if key not in PAPER_SYSTEMS:
        known = ", ".join(sorted(PAPER_SYSTEMS))
        raise ConfigurationError(
            f"unknown paper system {system_name!r}; known systems: {known}"
        )
    spec = PAPER_SYSTEMS[key]
    counts = processor_counts or PAPER_PROCESSOR_COUNTS[spec.benchmark]
    series_spec = power_series or PAPER_POWER_SERIES
    return SweepSpec(
        name=f"figure1-{key}",
        systems=(key,),
        processor_counts=tuple(counts),
        power_limits=series_spec,
        schedulers=(scheduler_spec_name(scheduler),),
        flit_widths=(flit_width,),
    )


def panel_from_outcomes(spec: SweepSpec, outcomes) -> Figure1Panel:
    """Reshape a panel spec's outcomes into a :class:`Figure1Panel`."""
    panel = Figure1Panel(system_name=spec.systems[0])
    for outcome in outcomes:
        point = outcome.point
        panel.series.setdefault(point.power_label, {})[
            point.reused_processors
        ] = outcome.result
    return panel


def run_panel(
    system_name: str,
    *,
    processor_counts: tuple[int, ...] | None = None,
    power_series: dict[str, float | None] | None = None,
    scheduler: EventDrivenScheduler | None = None,
    flit_width: int = 32,
    runner: SweepRunner | None = None,
) -> Figure1Panel:
    """Reproduce one panel of Figure 1.

    Args:
        system_name: one of the paper's systems (``"d695_leon"`` ...).
        processor_counts: processor counts to sweep; defaults to the paper's
            values for the system's benchmark.
        power_series: mapping of series label to power-limit fraction;
            defaults to the paper's two series (0.5 and unconstrained).
        scheduler: scheduling policy; defaults to the paper's greedy policy.
        flit_width: NoC flit width used to build the system.
        runner: sweep runner to execute the panel's grid on; defaults to a
            fresh serial runner (pass a shared runner to reuse its caches or
            to run the grid on a process pool).
    """
    spec = figure1_spec(
        system_name,
        processor_counts=processor_counts,
        power_series=power_series,
        scheduler=scheduler,
        flit_width=flit_width,
    )
    outcomes = (runner or SweepRunner()).run(spec)
    return panel_from_outcomes(spec, outcomes)


def run_figure1(
    *,
    systems: tuple[str, ...] | None = None,
    scheduler: EventDrivenScheduler | None = None,
    flit_width: int = 32,
    runner: SweepRunner | None = None,
) -> dict[str, Figure1Panel]:
    """Reproduce every panel of Figure 1 (or a subset via ``systems``)."""
    names = systems or tuple(PAPER_SYSTEMS)
    runner = runner or SweepRunner()
    return {
        name: run_panel(name, scheduler=scheduler, flit_width=flit_width, runner=runner)
        for name in names
    }

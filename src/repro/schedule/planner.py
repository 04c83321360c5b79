"""Top-level test planner — the library's main entry point.

:class:`TestPlanner` wraps the whole flow of the paper's tool: given a
:class:`~repro.system.builder.SocSystem`, a number of reused processors and an
optional power limit, it derives the test interfaces, runs the selected
scheduler and returns a validated :class:`~repro.schedule.result.ScheduleResult`.

Typical use::

    from repro import TestPlanner, build_paper_system

    system = build_paper_system("d695_leon")
    planner = TestPlanner(system)
    baseline = planner.plan(reused_processors=0)
    reuse6 = planner.plan(reused_processors=6)
    print(baseline.makespan, reuse6.makespan)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.schedule.greedy import EventDrivenScheduler, GreedyScheduler
from repro.schedule.power import PowerConstraint, require_positive_finite
from repro.schedule.result import ScheduleResult, validate_schedule
from repro.system.builder import SocSystem


@dataclass(frozen=True)
class PlanRequest:
    """One planning configuration.

    Attributes:
        reused_processors: how many of the system's processors act as test
            sources/sinks (``None`` = all, 0 = the paper's "noproc" baseline).
        power_limit_fraction: power ceiling expressed as a fraction of the sum
            of all core test powers (0.5 for the paper's "50 % power limit");
            ``None`` disables the constraint.
        label: optional label recorded in the result metadata.
    """

    reused_processors: int | None = None
    power_limit_fraction: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.reused_processors is not None and self.reused_processors < 0:
            raise ConfigurationError("reused_processors must be non-negative")
        if self.power_limit_fraction is not None:
            require_positive_finite(self.power_limit_fraction, "power_limit_fraction")


class TestPlanner:
    """Plans the test of one system under different reuse/power configurations."""

    __test__ = False

    def __init__(self, system: SocSystem, scheduler: EventDrivenScheduler | None = None):
        self.system = system
        self.scheduler = scheduler or GreedyScheduler()

    # ------------------------------------------------------------------
    # Planning.
    # ------------------------------------------------------------------
    def plan(
        self,
        *,
        reused_processors: int | None = None,
        power_limit_fraction: float | None = None,
        label: str | None = None,
    ) -> ScheduleResult:
        """Produce and validate a test plan for one configuration.

        Args:
            reused_processors: processors reused as test sources/sinks
                (``None`` = all available, 0 = no reuse).
            power_limit_fraction: power ceiling as a fraction of the sum of
                all core test powers (``None`` = unconstrained).
            label: free-form label stored in the result metadata.
        """
        request = PlanRequest(
            reused_processors=reused_processors,
            power_limit_fraction=power_limit_fraction,
            label=label,
        )
        return self.plan_request(request)

    def plan_request(self, request: PlanRequest) -> ScheduleResult:
        """Produce and validate a test plan for ``request``."""
        system = self.system
        interfaces = system.interfaces(request.reused_processors)

        if request.power_limit_fraction is None:
            constraint = PowerConstraint.unconstrained()
        else:
            constraint = PowerConstraint.fraction_of_total(
                system.total_core_power, request.power_limit_fraction
            )

        reused = (
            len(system.processor_cores)
            if request.reused_processors is None
            else request.reused_processors
        )
        metadata: dict[str, object] = {
            "reused_processors": reused,
            "power_limit_fraction": request.power_limit_fraction,
            "flit_width": system.network.flit_width,
        }
        if request.label:
            metadata["label"] = request.label

        result = self.scheduler.schedule(
            system_name=system.name,
            cores=system.cores,
            interfaces=interfaces,
            network=system.network,
            power_constraint=constraint,
            metadata=metadata,
        )
        validate_schedule(result, expected_core_ids=system.core_ids)
        return result

    # ------------------------------------------------------------------
    # Sweeps (what the paper's Figure 1 plots).
    # ------------------------------------------------------------------
    def sweep_processor_counts(
        self,
        processor_counts: list[int],
        *,
        power_limit_fraction: float | None = None,
    ) -> dict[int, ScheduleResult]:
        """Plan once per entry of ``processor_counts`` and return the results.

        This is exactly the sweep behind one curve of the paper's Figure 1
        (e.g. ``[0, 2, 4, 6]`` for d695, ``[0, 2, 4, 6, 8]`` for the larger
        systems).
        """
        results: dict[int, ScheduleResult] = {}
        for count in processor_counts:
            results[count] = self.plan(
                reused_processors=count,
                power_limit_fraction=power_limit_fraction,
                label=f"{count}proc" if count else "noproc",
            )
        return results

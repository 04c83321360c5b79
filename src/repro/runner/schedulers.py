"""Scheduler names to policy classes: the execution side of a sweep spec.

A :class:`~repro.runner.spec.SweepSpec` holds scheduler *names* as plain
data, so declaring, validating or resuming a grid never imports a
scheduler.  Whatever plans a point
(:meth:`repro.runner.backends.SerialBackend.execute`, the serve daemon's
``/plan``) turns the name into a policy here.
"""

from __future__ import annotations

from repro.runner.spec import canonical_scheduler_name
from repro.schedule.greedy import EventDrivenScheduler, GreedyScheduler
from repro.schedule.variants import FastestCompletionScheduler

#: Scheduler policies a spec can name, keyed by their canonical spec name
#: (:data:`repro.runner.spec.SCHEDULER_NAMES`).
SCHEDULER_FACTORIES: dict[str, type[EventDrivenScheduler]] = {
    "greedy": GreedyScheduler,
    "fastest-completion": FastestCompletionScheduler,
}


def make_scheduler(name: str) -> EventDrivenScheduler:
    """Instantiate the scheduler policy called ``name`` (aliases accepted).

    Raises:
        ConfigurationError: for an unknown scheduler name.
    """
    return SCHEDULER_FACTORIES[canonical_scheduler_name(name)]()


def scheduler_spec_name(scheduler: EventDrivenScheduler | None) -> str:
    """Canonical spec name for a scheduler instance (``None`` = greedy).

    Raises:
        ConfigurationError: for an unregistered policy.
    """
    if scheduler is None:
        return "greedy"
    return canonical_scheduler_name(scheduler.name)

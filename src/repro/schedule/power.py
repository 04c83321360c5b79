"""Power constraint and instantaneous power tracking.

The paper expresses the power limit "as a percentage of the sum of all cores
power consumption": a 50 % limit means that at no instant may the sum of the
power of all concurrently running tests (cores + test sources + NoC traffic)
exceed half of the sum of the test power of every core in the system.

:class:`PowerConstraint` captures the limit; :class:`PowerTracker` maintains
the set of currently running jobs and answers "can this job start now without
busting the ceiling?".  It also remembers the largest total it said yes to
(``max_allowed``) and the smallest total it said no to (``min_refused``): the
schedulers replay a plan under any ceiling that allows the first and refuses
the second (see :mod:`repro.schedule.greedy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, PowerBudgetError


def require_positive_finite(value: float, what: str) -> None:
    """Check that ``value`` is a positive, finite number.

    The one check behind every power limit and power-limit fraction: a
    non-finite value (``inf``, ``nan``; JSON's ``1e999`` parses to ``inf``)
    would otherwise pass a plain ``> 0`` test and reach exports as
    non-standard JSON (``Infinity``/``NaN``) or fail deep in the planner.

    Raises:
        ConfigurationError: for a value that is not finite or not positive;
            the message names ``what``.
    """
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{what} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class PowerConstraint:
    """A system-wide ceiling on instantaneous test power.

    Attributes:
        limit: absolute ceiling in power units; ``None`` disables the
            constraint (the paper's "no power limit" series).
        description: human readable origin of the limit (e.g. ``"50% of
            total core power"``), used in reports.
    """

    limit: float | None = None
    description: str = "unconstrained"

    def __post_init__(self) -> None:
        if self.limit is not None:
            require_positive_finite(self.limit, "power limit")

    @classmethod
    def unconstrained(cls) -> "PowerConstraint":
        """The paper's "no power limit" configuration."""
        return cls(limit=None, description="no power limit")

    @classmethod
    def fraction_of_total(cls, total_core_power: float, fraction: float) -> "PowerConstraint":
        """Ceiling defined as ``fraction`` of the sum of all core powers.

        ``fraction`` is expressed as a ratio (0.5 for the paper's "50 % power
        limit").
        """
        require_positive_finite(fraction, "power fraction")
        if total_core_power <= 0:
            raise ConfigurationError(
                "total core power must be positive to derive a fractional limit"
            )
        return cls(
            limit=total_core_power * fraction,
            description=f"{fraction:.0%} of total core power",
        )

    @property
    def constrained(self) -> bool:
        """True when a finite ceiling applies."""
        return self.limit is not None

    @property
    def highest_allowed(self) -> float:
        """The largest total :meth:`allows`; ``math.inf`` when unconstrained.

        :meth:`allows` answers yes exactly for the totals up to this one, so
        a sorted list of totals splits at it by bisection.
        """
        return math.inf if self.limit is None else self.limit + 1e-9

    def allows(self, power: float) -> bool:
        """True when an instantaneous power of ``power`` respects the ceiling."""
        return self.limit is None or power <= self.limit + 1e-9


@dataclass
class PowerTracker:
    """Tracks the power of currently running jobs against a constraint.

    Every total is a :func:`math.fsum`: the correctly rounded exact sum,
    whatever order the jobs started in.  :meth:`ScheduleResult.power_profile
    <repro.schedule.result.ScheduleResult.power_profile>` sums the same way,
    and a profile point sums a subset of the powers some check summed, so a
    plan whose checks all passed never exceeds its ceiling in the profile.
    The running powers are kept as a tuple that only a start or a finish
    rebuilds, since :meth:`can_start` runs for every candidate the
    scheduler considers at every event.

    Attributes:
        constraint: the ceiling every :meth:`can_start` checks against.
        max_allowed: the largest total (the running powers and the
            candidate's) any :meth:`can_start` allowed; 0.0 before the first.
            A zero-cycle test counts here while it is registered, although
            it nets to zero in :meth:`ScheduleResult.power_profile
            <repro.schedule.result.ScheduleResult.power_profile>`.
        min_refused: the smallest total any :meth:`can_start` refused;
            ``math.inf`` while none was.
    """

    constraint: PowerConstraint
    max_allowed: float = 0.0
    min_refused: float = math.inf
    _active: dict[str, float] = field(default_factory=dict)
    _running: tuple[float, ...] = field(default=(), repr=False)

    @property
    def current_power(self) -> float:
        """Sum of the power of all currently running jobs."""
        return math.fsum(self._running)

    def can_start(self, job_id: str, power: float) -> bool:
        """True when starting a job drawing ``power`` respects the ceiling."""
        total = math.fsum((*self._running, power))
        if self.constraint.allows(total):
            if total > self.max_allowed:
                self.max_allowed = total
            return True
        if total < self.min_refused:
            self.min_refused = total
        return False

    def start(self, job_id: str, power: float) -> None:
        """Register a job as running."""
        if job_id in self._active:
            raise ConfigurationError(f"job {job_id!r} is already running")
        if not self.can_start(job_id, power):
            raise PowerBudgetError(
                f"starting job {job_id!r} ({power:.1f} pu) would exceed the power "
                f"ceiling of {self.constraint.limit:.1f} pu"
            )
        self._active[job_id] = power
        self._running = tuple(self._active.values())

    def finish(self, job_id: str) -> None:
        """Unregister a finished job."""
        try:
            del self._active[job_id]
        except KeyError as exc:
            raise ConfigurationError(f"job {job_id!r} is not running") from exc
        self._running = tuple(self._active.values())

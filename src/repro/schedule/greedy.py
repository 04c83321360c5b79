"""Event-driven test schedulers, including the paper's greedy policy.

The paper's scheduler is greedy: whenever a test interface is (or becomes)
available, it immediately receives the highest-priority core that can start —
"the greedy behavior of the presented algorithm forces it to select the first
test interface available", even when a faster interface would become free a
few cycles later.

:class:`EventDrivenScheduler` implements the shared machinery (event loop,
resource/power bookkeeping, processor enablement, schedule assembly) and
delegates the actual pairing decision to :meth:`select_assignment`, so the
paper's policy (:class:`GreedyScheduler`) and the look-ahead variant
(:class:`~repro.schedule.variants.FastestCompletionScheduler`) share every
other line of code.  Both order the cores by the paper's
:func:`~repro.schedule.priority.distance_priority`.

Each plan hands the policy a fresh memo (:meth:`selection_memo`), so a policy
can skip the checks whose inputs have not changed.  Within one event a start
only adds link reservations and power and takes its interface out of the
available list, so a check that failed earlier in the event still fails.
:class:`GreedyScheduler` therefore makes one pass over the available
interfaces per event: its memo keeps the list and a cursor, and an
interface whose scan found no startable core is never scanned again in that
event.  A test of zero cycles leaves its interface available at the same
instant; the pass then starts over, as a loop without a memo would.

A completed plan is replayed, not re-run, under any ceiling that answers
its power checks the same way.  The tracker records the largest total a
check allowed (``max_allowed``) and the smallest total a check refused
(``min_refused``, ``math.inf`` when none was).
:meth:`EventDrivenScheduler.schedule` stores both with the assignments per
policy class, core ids and interfaces.  A later plan for the same key under
a ceiling that allows ``max_allowed`` and refuses ``min_refused`` (any
ceiling at all when nothing was refused) is that same plan, by induction
over the loop's decisions: both runs start from the same state; while their
answers agree they take the same decisions, so their next check asks about
the same total; and the ceiling allows every total up to ``max_allowed``
and refuses every total from ``min_refused`` on, so it gives each check the
stored run's answer.  The stored assignments are then returned without
building job rows, priorities or running the loop.  The unconstrained plan
is the one with no refusal, replayed under every ceiling that allows its
``max_allowed``.  The compared totals are the tracker's, not
:meth:`ScheduleResult.peak_power`: a zero-cycle test counts in the checks
but nets to zero in the power profile.

Each ceiling yields exactly one run, so the ceilings that replay two
distinct plans never overlap, and a key's plans sorted by ``max_allowed``
are sorted by ceiling too.  The only plan that may hold a ceiling is then
the last one whose ``max_allowed`` it allows, which bisection finds: every
plan before it stops at a ceiling below that plan's lowest.  A key keeps at
most :data:`MAX_PLANS_PER_KEY` plans; storing one more evicts the oldest.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence
from weakref import WeakKeyDictionary

from repro.cores.core import CoreUnderTest
from repro.errors import PowerBudgetError, SchedulingError
from repro.noc.network import Network
from repro.schedule.job import JobRow, job_rows
from repro.schedule.pathalloc import LinkAllocator
from repro.schedule.power import PowerConstraint, PowerTracker
from repro.schedule.priority import distance_priority, priority_order
from repro.schedule.result import Assignment, ScheduleResult
from repro.tam.interfaces import TestInterface
from repro.tam.pool import InterfaceState, ResourcePool


#: Most plans the store keeps per (policy, core ids, interfaces) key; storing
#: one more evicts the oldest.  A stored plan is its assignment tuple, one
#: ``Assignment`` and two ``int`` per core: about 3.9 KiB on p93791 (40
#: cores), so a full key holds about 125 KiB, and p93791's 18 keys (two
#: policies, nine reuse levels) at most about 2.2 MiB.  2 400 serve-style
#: points over the paper systems store about 130 plans on 100 keys, at most
#: 5 on one; a sweep of 2 000 ceilings stores up to 342 on one key.
MAX_PLANS_PER_KEY = 32

#: A completed plan: its tracker's ``max_allowed`` and ``min_refused``, when
#: it was stored, and its assignments by ``(start, core id)``.
_StoredPlan = tuple[float, float, int, tuple[Assignment, ...]]

#: One network's stored plans by key, each key's sorted by ``max_allowed``.
_Store = dict[tuple, tuple[_StoredPlan, ...]]

#: Per-network store of completed plans.  It relies on the invariant behind
#: the job table (:data:`repro.schedule.job._JOB_TABLES`): a built system's
#: cores and network are read-only, so a plan is a pure function of its key
#: and the ceiling, and the store lives exactly as long as the network.  A
#: key's plans are a tuple that a store replaces and never edits, so a
#: replay needs no lock; a store racing another may drop one of the two
#: plans, which only costs a later run of the loop.
_PLANS: "WeakKeyDictionary[Network, _Store]" = WeakKeyDictionary()

#: When each plan was stored, for evicting the oldest.
_STAMPS = itertools.count()

_MAX_ALLOWED = itemgetter(0)
_STAMP = itemgetter(2)


def _replay(
    plans: tuple[_StoredPlan, ...], constraint: PowerConstraint
) -> tuple[Assignment, ...] | None:
    """The stored assignments whose ceilings include ``constraint``, if any."""
    index = bisect_right(plans, constraint.highest_allowed, key=_MAX_ALLOWED)
    if not index:
        return None
    _, min_refused, _, assignments = plans[index - 1]
    if min_refused == math.inf or not constraint.allows(min_refused):
        return assignments
    return None


def _store(plans: _Store, key: tuple, plan: _StoredPlan) -> None:
    """Add ``plan`` to ``key``'s sorted plans, evicting the oldest when full."""
    kept = plans.get(key, ())
    index = bisect_right(kept, plan[0], key=_MAX_ALLOWED)
    if index and kept[index - 1][0] == plan[0]:
        return  # the same plan, stored meanwhile by another thread
    kept = (*kept[:index], plan, *kept[index:])
    if len(kept) > MAX_PLANS_PER_KEY:
        oldest = min(kept, key=_STAMP)
        kept = tuple(stored for stored in kept if stored is not oldest)
    plans[key] = kept


@dataclass
class _ActiveTest:
    """A test currently occupying resources inside the event loop."""

    assignment: Assignment
    core: CoreUnderTest


class EventDrivenScheduler:
    """Shared event loop of all schedulers in this package."""

    #: Human readable policy name recorded in the produced schedules.
    name = "event-driven"

    # ------------------------------------------------------------------
    # Policy hooks.
    # ------------------------------------------------------------------
    def selection_memo(self) -> object:
        """A fresh memo for one plan's :meth:`select_assignment` calls.

        The memo lives in :meth:`schedule`'s frame, never on the scheduler,
        so one scheduler may plan on several threads at once.
        """
        raise NotImplementedError

    def select_assignment(
        self,
        now: int,
        event: int,
        pending: list[CoreUnderTest],
        pool: ResourcePool,
        allocator: LinkAllocator,
        tracker: PowerTracker,
        jobs: dict[str, JobRow],
        memo,
    ) -> tuple[CoreUnderTest, TestInterface] | None:
        """Return the next (core, interface) pair to start at ``now``.

        Subclasses implement the scheduling policy here.  Returning ``None``
        means nothing more can start at this instant; the loop then advances
        time to the next event.  The loop starts every returned pair at
        ``now``, so the policy may update ``memo`` for that start before it
        returns.

        Args:
            now: the current cycle.
            event: the loop's event count.  Two events may share a cycle
                (a zero-cycle test finishes at the instant it started), and
                a finish may enable processor interfaces, so a memo keys on
                the event, not on ``now``.
            pending: untested cores in priority order.
            pool: interface availability.
            allocator: NoC link reservations.
            tracker: the running tests' power.
            jobs: the plan's job row of each interface, by interface id.
            memo: this plan's :meth:`selection_memo`.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Event loop.
    # ------------------------------------------------------------------
    def schedule(
        self,
        *,
        system_name: str,
        cores: Sequence[CoreUnderTest],
        interfaces: Sequence[TestInterface],
        network: Network,
        power_constraint: PowerConstraint | None = None,
        metadata: dict[str, object] | None = None,
    ) -> ScheduleResult:
        """Produce a complete test plan for ``cores`` using ``interfaces``.

        Args:
            system_name: recorded in the result for reporting.
            cores: every core that must be tested (processor cores included).
            interfaces: the test interfaces offered to the scheduler; processor
                interfaces must reference cores present in ``cores``.
            network: the configured NoC.
            power_constraint: optional power ceiling; defaults to
                unconstrained.
            metadata: free-form information copied into the result.

        Raises:
            SchedulingError: when no feasible plan exists (e.g. a processor
                interface references a missing core).
            PowerBudgetError: when a core test alone exceeds the power ceiling.
        """
        power_constraint = power_constraint or PowerConstraint.unconstrained()
        plans = _PLANS.get(network)
        if plans is None:
            plans = _PLANS[network] = {}
        key = (type(self), tuple(core.identifier for core in cores), tuple(interfaces))
        assignments = _replay(plans.get(key, ()), power_constraint)
        if assignments is None:
            # A stored key's inputs passed these checks when it was stored.
            self._check_inputs(cores, interfaces)
            assignments, tracker = self._run(cores, interfaces, network, power_constraint)
            _store(
                plans,
                key,
                (tracker.max_allowed, tracker.min_refused, next(_STAMPS), assignments),
            )

        metadata = dict(metadata or {})
        metadata.setdefault("scheduler", self.name)
        metadata.setdefault("interface_count", len(interfaces))
        result = ScheduleResult(
            system_name=system_name,
            scheduler_name=self.name,
            assignments=list(assignments),
            interfaces=list(interfaces),
            power_constraint=power_constraint,
            metadata=metadata,
        )
        return result

    def _run(
        self,
        cores: Sequence[CoreUnderTest],
        interfaces: Sequence[TestInterface],
        network: Network,
        power_constraint: PowerConstraint,
    ) -> tuple[tuple[Assignment, ...], PowerTracker]:
        """Run the event loop: the assignments by ``(start, core id)`` and the
        tracker that checked every start against ``power_constraint``."""
        pool = ResourcePool(interfaces)
        allocator = LinkAllocator()
        tracker = PowerTracker(power_constraint)
        jobs = job_rows(cores, interfaces, network)
        memo = self.selection_memo()

        key = distance_priority(cores, interfaces, network)
        pending = priority_order(cores, key)

        assignments: list[Assignment] = []
        active: list[tuple[int, int, _ActiveTest]] = []
        sequence = itertools.count()
        now = 0
        event = 0
        max_events = 10 * len(cores) * max(len(interfaces), 1) + 1000

        while pending:
            if event >= max_events:
                raise SchedulingError(
                    "scheduler did not converge; this indicates an internal bug"
                )

            while True:
                selection = self.select_assignment(
                    now, event, pending, pool, allocator, tracker, jobs, memo
                )
                if selection is None:
                    break
                core, interface = selection
                job = jobs[interface.identifier][core.identifier]
                start = now
                end = now + job.duration
                allocator.reserve(job.core_id, job.mask, start, end)
                pool.occupy(interface.identifier, start, end)
                tracker.start(job.core_id, job.power)
                assignment = Assignment(job=job, start=start, end=end)
                assignments.append(assignment)
                heapq.heappush(active, (end, next(sequence), _ActiveTest(assignment, core)))
                pending.remove(core)

            if not pending:
                break

            if not active:
                self._explain_deadlock(now, pending, interfaces, tracker, jobs)

            # Advance to the completion of the earliest running test and retire
            # every test that finishes at that instant.
            now = active[0][0]
            event += 1
            while active and active[0][0] == now:
                _, _, finished = heapq.heappop(active)
                tracker.finish(finished.assignment.core_id)
                if finished.core.is_processor:
                    for state in pool.processor_interfaces_for(finished.core.identifier):
                        pool.enable(state.identifier, now)

        ordered = tuple(sorted(assignments, key=lambda a: (a.start, a.core_id)))
        return ordered, tracker

    # ------------------------------------------------------------------
    # Helpers.
    # ------------------------------------------------------------------
    @staticmethod
    def _check_inputs(
        cores: Sequence[CoreUnderTest], interfaces: Sequence[TestInterface]
    ) -> None:
        if not cores:
            raise SchedulingError("there is nothing to schedule: no cores given")
        if not interfaces:
            raise SchedulingError("cannot schedule without any test interface")
        core_ids = {core.identifier for core in cores}
        if len(core_ids) != len(cores):
            raise SchedulingError("core identifiers must be unique")
        for interface in interfaces:
            if interface.processor_core_id and interface.processor_core_id not in core_ids:
                raise SchedulingError(
                    f"interface {interface.identifier!r} references processor core "
                    f"{interface.processor_core_id!r}, which is not among the cores"
                )

    @staticmethod
    def _explain_deadlock(
        now: int,
        pending: Sequence[CoreUnderTest],
        interfaces: Sequence[TestInterface],
        tracker: PowerTracker,
        jobs: dict[str, JobRow],
    ) -> None:
        """Raise the most informative error for a stalled schedule."""
        for core in pending:
            job_powers = [
                job.power
                for job in (jobs[i.identifier][core.identifier] for i in interfaces)
                if job is not None
            ]
            if not any(tracker.constraint.allows(power) for power in job_powers):
                raise PowerBudgetError(
                    f"core {core.identifier!r} can never be tested: its cheapest "
                    f"test draws {min(job_powers):.1f} power units, above the "
                    f"ceiling ({tracker.constraint.description})"
                )
        names = ", ".join(core.identifier for core in pending)
        raise SchedulingError(
            f"schedule stalled at cycle {now} with untested cores: {names}; "
            "this usually means every remaining core depends on a processor "
            "interface whose processor is itself untestable"
        )


@dataclass
class _GreedyMemo:
    """Where one event's pass over the available interfaces stands.

    ``available`` is ``pool.available(now)`` as taken at ``event``, minus
    the interfaces started since; ``cursor`` indexes the first interface
    whose scan has not yet come up empty.
    """

    event: int | None = None
    available: list[InterfaceState] = field(default_factory=list)
    cursor: int = 0


class GreedyScheduler(EventDrivenScheduler):
    """The paper's greedy policy: first available interface, priority cores.

    Whenever an interface is idle it immediately grabs the highest-priority
    core whose NoC paths are free and whose power fits under the ceiling —
    even when another, faster interface would become free shortly after.
    """

    name = "greedy-first-available"

    def selection_memo(self) -> _GreedyMemo:
        return _GreedyMemo()

    def select_assignment(
        self,
        now: int,
        event: int,
        pending: list[CoreUnderTest],
        pool: ResourcePool,
        allocator: LinkAllocator,
        tracker: PowerTracker,
        jobs: dict[str, JobRow],
        memo: _GreedyMemo,
    ) -> tuple[CoreUnderTest, TestInterface] | None:
        if memo.event != event:
            memo.event = event
            memo.available = pool.available(now)
            memo.cursor = 0
        available = memo.available
        while memo.cursor < len(available):
            state = available[memo.cursor]
            row = jobs[state.identifier]
            for core in pending:
                job = row[core.identifier]
                if job is None:
                    continue
                if not allocator.is_free(job.mask, now):
                    continue
                if not tracker.can_start(job.core_id, job.power):
                    continue
                if job.duration:
                    # Busy past `now`: the rest keep their order, and the
                    # interfaces before the cursor stay empty.
                    del available[memo.cursor]
                else:
                    # Still available at `now`, re-sorted: start the pass over.
                    memo.event = None
                return core, state.interface
            memo.cursor += 1
        return None

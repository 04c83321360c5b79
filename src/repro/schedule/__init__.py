"""Test planning and scheduling — the paper's primary contribution.

Given a system (placed cores, a configured NoC, external I/O ports and a set
of reused processors), the scheduler produces a test plan: which test
interface tests which core, when, over which NoC paths, and how long the whole
system test takes.

* :mod:`repro.schedule.job` turns a (core, interface) pairing into a concrete
  test job with duration, power and NoC resource requirements.
* :mod:`repro.schedule.priority` orders cores by their distance to the test
  resources ("the cores closer to IO ports or processors are tested first").
* :mod:`repro.schedule.power` tracks the instantaneous test power against the
  paper's percentage-of-total power ceiling.
* :mod:`repro.schedule.pathalloc` manages exclusive reservation of NoC links
  and router local ports.
* :mod:`repro.schedule.greedy` implements the paper's greedy scheduler;
  :mod:`repro.schedule.variants` implements the look-ahead variant used to
  explain the p22810 irregularity.  The no-processor-reuse baseline is a
  plan that reuses 0 processors.
* :mod:`repro.schedule.result` defines the schedule data structure and checks
  its invariants; :mod:`repro.schedule.planner` is the one-call public entry
  point.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.schedule.job": ("TestJob", "build_job"),
        "repro.schedule.power": ("PowerConstraint", "PowerTracker"),
        "repro.schedule.pathalloc": ("LinkAllocator",),
        "repro.schedule.priority": ("distance_priority", "priority_order"),
        "repro.schedule.result": ("Assignment", "ScheduleResult", "validate_schedule"),
        "repro.schedule.greedy": ("GreedyScheduler",),
        "repro.schedule.variants": ("FastestCompletionScheduler",),
        "repro.schedule.planner": ("PlanRequest", "TestPlanner"),
    },
)

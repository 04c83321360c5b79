"""Planning-as-a-service: the long-lived ``repro serve`` HTTP daemon.

Layered thin-to-thick: :mod:`repro.serve.http` (routing + JSON framing)
dispatches into :mod:`repro.serve.service` (validation + orchestration),
which delegates every planning/storage decision to the existing library.
:mod:`repro.serve.jobs` owns the store's single writer thread and
:mod:`repro.serve.cache` the TTL read cache.  See ``docs/api.md`` for the
wire format and ``docs/architecture.md`` for where this layer sits.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.serve.cache": ("TTLCache",),
        "repro.serve.http": (
            "ROUTES",
            "PlanningRequestHandler",
            "PlanningServer",
            "Route",
            "create_server",
        ),
        "repro.serve.jobs": ("JOB_STATES", "SweepJob", "SweepJobQueue"),
        "repro.serve.service": ("PlanningService",),
    },
)

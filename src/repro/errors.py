"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to discriminate the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class BenchmarkFormatError(ReproError):
    """Raised when an ITC'02 ``.soc`` description cannot be parsed."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class BenchmarkValidationError(ReproError):
    """Raised when a parsed benchmark violates a structural invariant."""


class UnknownBenchmarkError(ReproError):
    """Raised when a benchmark name names none of the bundled .soc files,
    or when no .soc file is bundled at all."""


class TopologyError(ReproError):
    """Raised for invalid NoC topology parameters or out-of-range nodes."""


class RoutingError(ReproError):
    """Raised when a route cannot be computed between two NoC nodes."""


class PlacementError(ReproError):
    """Raised when cores cannot be placed on the NoC (overlap, overflow...)."""


class CharacterizationError(ReproError):
    """Raised for inconsistent processor/test-application characterization."""


class ResourceError(ReproError):
    """Raised when test sources/sinks are mis-configured or unavailable."""


class SchedulingError(ReproError):
    """Raised when the scheduler cannot produce a feasible test plan."""


class PowerBudgetError(SchedulingError):
    """Raised when a single test alone already exceeds the power ceiling."""


class ScheduleValidationError(ReproError):
    """Raised when a produced schedule violates one of its invariants."""


class ConfigurationError(ReproError):
    """Raised for invalid user-facing configuration values."""


class ResultStoreError(ReproError):
    """Raised when a stored sweep-result document cannot be read."""


class OrchestrationError(ReproError):
    """Raised when a dispatched sweep worker fails or never finishes."""


class ApiError(ReproError):
    """Raised by the serving layer for a request that cannot be satisfied.

    Carries the HTTP status code the daemon should answer with, so the
    service layer (:mod:`repro.serve.service`) can signal *what kind* of
    failure occurred — unknown resource (404), invalid payload (400),
    missing or wrong credentials (401), a full job queue or shutdown
    (503) — without the HTTP handlers interpreting messages.  ``headers``
    carries response headers the status semantically requires, e.g.
    ``Retry-After`` on a 503 or ``WWW-Authenticate`` on a 401; the HTTP
    layer forwards them verbatim.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int = 400,
        headers: dict[str, str] | None = None,
    ):
        self.status = status
        self.headers = dict(headers) if headers else {}
        super().__init__(message)

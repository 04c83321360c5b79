"""Declarative sweep specifications.

A :class:`SweepSpec` names a grid of planning configurations — paper systems
× reused-processor counts × power limits × scheduler policies (× flit widths
× processor pattern penalties) — without saying anything about *how* the
grid is executed.  :meth:`SweepSpec.points` expands the grid
into a deterministic, totally ordered sequence of :class:`SweepPoint`
records; the :class:`~repro.runner.engine.SweepRunner` executes them
in-process and always reports results in point order.

Every experiment of the paper is a thin spec over this module (see
:mod:`repro.experiments.figure1`), and ``repro sweep`` builds specs straight
from the command line or reads them with ``--spec-json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping, Sequence

from repro._lazy import lazy_exports
from repro.errors import ConfigurationError
from repro.schedule.power import require_positive_finite
from repro.system.paper import PAPER_SYSTEMS

# The name -> policy class table lives with what plans a point; these names
# stay importable from here without loading a scheduler until first use.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.runner.schedulers": (
            "SCHEDULER_FACTORIES",
            "make_scheduler",
            "scheduler_spec_name",
        )
    },
)[:2]

#: Accepted scheduler names → canonical spec name.  The policies' own
#: ``name`` attributes (``GreedyScheduler.name``,
#: ``FastestCompletionScheduler.name``) are spelled out so that naming a
#: scheduler imports none; a test pins them to the classes.
_SCHEDULER_ALIASES: dict[str, str] = {
    "greedy": "greedy",
    "greedy-first-available": "greedy",
    "fastest-completion": "fastest-completion",
    "lookahead": "fastest-completion",
}

#: Canonical scheduler names a spec can hold (the keys of
#: :data:`repro.runner.schedulers.SCHEDULER_FACTORIES`).
SCHEDULER_NAMES: tuple[str, ...] = tuple(sorted(set(_SCHEDULER_ALIASES.values())))


def canonical_scheduler_name(name: str) -> str:
    """Resolve ``name`` (canonical or alias) to a canonical scheduler name.

    Raises:
        ConfigurationError: for an unknown scheduler name.
    """
    try:
        return _SCHEDULER_ALIASES[name.lower()]
    except KeyError as exc:
        known = ", ".join(SCHEDULER_NAMES)
        raise ConfigurationError(
            f"unknown scheduler {name!r}; known schedulers: {known}"
        ) from exc


def power_series_label(fraction: float | None) -> str:
    """The paper's series label for a power-limit fraction.

    ``None`` maps to ``"no power limit"`` and 0.5 to ``"50% power limit"``,
    matching the legends of Figure 1.
    """
    if fraction is None:
        return "no power limit"
    percent = fraction * 100.0
    rendered = f"{percent:g}"
    return f"{rendered}% power limit"


@dataclass(frozen=True)
class SweepPoint:
    """One fully resolved configuration of a sweep grid.

    Attributes:
        index: position in the spec's deterministic point order.
        system: paper system name (e.g. ``"d695_leon"``).
        reused_processors: processors reused for test (``None`` = all).
        power_label: series label (e.g. ``"50% power limit"``).
        power_limit_fraction: power ceiling fraction, ``None`` = unlimited.
        scheduler: canonical scheduler name (see :data:`SCHEDULER_NAMES`).
        flit_width: NoC flit width the system is built with.
        pattern_penalty: override of the processors' cycles-per-pattern
            penalty (``None`` keeps the model default).
    """

    index: int
    system: str
    reused_processors: int | None
    power_label: str
    power_limit_fraction: float | None
    scheduler: str
    flit_width: int
    pattern_penalty: int | None = None

    @property
    def label(self) -> str:
        """The paper's name for the reuse level (``noproc``, ``4proc``...)."""
        if self.reused_processors is None:
            return "allproc"
        if self.reused_processors == 0:
            return "noproc"
        return f"{self.reused_processors}proc"

    def system_key_fields(self) -> dict[str, object]:
        """The fields that determine which built system the point needs."""
        return {
            "system": self.system,
            "flit_width": self.flit_width,
            "pattern_penalty": self.pattern_penalty,
        }

    def to_dict(self) -> dict[str, object]:
        """Plain-data form of the point (JSON-ready)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _as_tuple(value: Iterable) -> tuple:
    if isinstance(value, (str, bytes)):
        raise ConfigurationError(f"expected a sequence, got {value!r}")
    return tuple(value)


def _normalise_power_limits(
    value: Mapping[str, float | None] | Sequence
) -> tuple[tuple[str, float | None], ...]:
    if isinstance(value, Mapping):
        items = tuple(value.items())
    else:
        items = tuple(tuple(entry) for entry in value)
    for entry in items:
        if len(entry) != 2:
            raise ConfigurationError(
                f"power limit entries must be (label, fraction) pairs, got {entry!r}"
            )
    return items


@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment grid.

    The cartesian product of every axis is executed, ordered as
    system → flit width → pattern penalty → scheduler → power series →
    processor count (the innermost axis varies fastest), which matches the
    row order of the paper's Figure 1 tables.

    Attributes:
        name: free-form identifier recorded in stored results.
        systems: paper system names (validated against
            :data:`~repro.system.paper.PAPER_SYSTEMS`).
        processor_counts: reuse levels to sweep (``None`` = all processors).
        power_limits: ``(label, fraction)`` pairs; a mapping is accepted and
            normalised.  ``None`` fractions disable the constraint.
        schedulers: scheduler names (canonical names or aliases).
        flit_widths: NoC flit widths to build the systems with.
        pattern_penalties: processor cycles-per-pattern overrides
            (``None`` keeps the processor model's default).
    """

    name: str
    systems: tuple[str, ...]
    processor_counts: tuple[int | None, ...] = (None,)
    power_limits: tuple[tuple[str, float | None], ...] = field(
        default_factory=lambda: (("no power limit", None),)
    )
    schedulers: tuple[str, ...] = ("greedy",)
    flit_widths: tuple[int, ...] = (32,)
    pattern_penalties: tuple[int | None, ...] = (None,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "systems", _as_tuple(self.systems))
        object.__setattr__(self, "processor_counts", _as_tuple(self.processor_counts))
        object.__setattr__(
            self, "power_limits", _normalise_power_limits(self.power_limits)
        )
        object.__setattr__(
            self,
            "schedulers",
            tuple(canonical_scheduler_name(name) for name in _as_tuple(self.schedulers)),
        )
        object.__setattr__(self, "flit_widths", _as_tuple(self.flit_widths))
        object.__setattr__(self, "pattern_penalties", _as_tuple(self.pattern_penalties))
        self._validate()

    def _validate(self) -> None:
        if not self.name:
            raise ConfigurationError("sweep name must not be empty")
        if not self.systems:
            raise ConfigurationError("sweep needs at least one system")
        for system in self.systems:
            if system.lower() not in PAPER_SYSTEMS:
                known = ", ".join(sorted(PAPER_SYSTEMS))
                raise ConfigurationError(
                    f"unknown paper system {system!r}; known systems: {known}"
                )
        if not self.processor_counts:
            raise ConfigurationError("sweep needs at least one processor count")
        for count in self.processor_counts:
            if count is not None and count < 0:
                raise ConfigurationError("processor counts must be non-negative")
        if not self.power_limits:
            raise ConfigurationError("sweep needs at least one power series")
        for label, fraction in self.power_limits:
            if not label:
                raise ConfigurationError("power series labels must not be empty")
            if fraction is not None:
                require_positive_finite(fraction, "power limit fractions")
        if not self.schedulers:
            raise ConfigurationError("sweep needs at least one scheduler")
        if not self.flit_widths:
            raise ConfigurationError("sweep needs at least one flit width")
        for width in self.flit_widths:
            if width <= 0:
                raise ConfigurationError("flit widths must be positive")

    # ------------------------------------------------------------------
    # Expansion.
    # ------------------------------------------------------------------
    def points(self) -> tuple[SweepPoint, ...]:
        """Expand the grid into its deterministic point sequence."""
        points: list[SweepPoint] = []
        index = 0
        for system in self.systems:
            for flit_width in self.flit_widths:
                for penalty in self.pattern_penalties:
                    for scheduler in self.schedulers:
                        for power_label, fraction in self.power_limits:
                            for count in self.processor_counts:
                                points.append(
                                    SweepPoint(
                                        index=index,
                                        system=system.lower(),
                                        reused_processors=count,
                                        power_label=power_label,
                                        power_limit_fraction=fraction,
                                        scheduler=scheduler,
                                        flit_width=flit_width,
                                        pattern_penalty=penalty,
                                    )
                                )
                                index += 1
        return tuple(points)

    def points_at(self, indices: Iterable[int]) -> tuple[SweepPoint, ...]:
        """The points at ``indices`` of the expanded order, ascending.

        How a grid is sliced (``repro sweep --points``, which every
        orchestration worker runs): any partition of the grid into index
        sets executes and merges like a full run, because every point keeps
        its global index.  Indices are deduplicated and returned in
        ascending order so a subset run preserves the canonical point
        order.

        Raises:
            ConfigurationError: for an empty selection or an out-of-range
                index.
        """
        wanted = sorted(set(int(index) for index in indices))
        if not wanted:
            raise ConfigurationError("point selection must name at least one index")
        points = self.points()
        if wanted[0] < 0 or wanted[-1] >= len(points):
            raise ConfigurationError(
                f"point index {wanted[0] if wanted[0] < 0 else wanted[-1]} is out "
                f"of range for a grid of {len(points)} point(s)"
            )
        return tuple(points[index] for index in wanted)

    @property
    def point_count(self) -> int:
        """Number of grid points the spec expands to."""
        return (
            len(self.systems)
            * len(self.flit_widths)
            * len(self.pattern_penalties)
            * len(self.schedulers)
            * len(self.power_limits)
            * len(self.processor_counts)
        )

    # ------------------------------------------------------------------
    # Serialisation.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Plain-data form of the spec (JSON-ready, round-trips)."""
        return {
            "name": self.name,
            "systems": list(self.systems),
            "processor_counts": list(self.processor_counts),
            "power_limits": [list(entry) for entry in self.power_limits],
            "schedulers": list(self.schedulers),
            "flit_widths": list(self.flit_widths),
            "pattern_penalties": list(self.pattern_penalties),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Raises:
            ConfigurationError: for missing or malformed fields.
        """
        try:
            return cls(
                name=str(data["name"]),
                systems=data["systems"],
                processor_counts=data.get("processor_counts", (None,)),
                power_limits=data.get("power_limits", (("no power limit", None),)),
                schedulers=data.get("schedulers", ("greedy",)),
                flit_widths=data.get("flit_widths", (32,)),
                pattern_penalties=data.get("pattern_penalties", (None,)),
            )
        except KeyError as exc:
            raise ConfigurationError(f"sweep spec is missing field {exc}") from exc
        except TypeError as exc:
            raise ConfigurationError(f"malformed sweep spec: {exc}") from exc

    def content_key(self) -> str:
        """Content hash identifying the grid (stable across processes)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

"""``repro profile`` — cProfile harness for a sweep grid.

This module runs one or more sweep specs serially under :mod:`cProfile`
and condenses the collected statistics into a :class:`ProfileReport` — the
top functions by the chosen sort key, renderable as text or JSON.

The profile covers per-point planning and the per-process setup that
precedes it, not the interpreter start and import.  Measured without the
profiler on a cold ``repro sweep`` of the 56-point paper grid (2-vCPU
x86-64 container shared with other jobs, Python 3.11; medians of 24 runs
that vary by about 30 %), per-point planning takes 0.15-0.2 s, most of it
in the greedy scheduler loop; the import about 0.15 s; the six system
builds about 0.04 s and the three NoC characterisation campaigns about
0.02 s, of 0.35-0.5 s of wall time.  Every cold process repeats the builds
and the campaigns; ``--no-characterize`` leaves the campaigns out.  The
profiler tells you *where the time goes*; ``perfbench/`` tells you how
long a user waits and how that time splits across the layers.

The harness runs the grid in-process, as every ``SweepRunner`` does, so
the whole planning path lands in one profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import PurePath
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.runner.engine import SweepRunner
from repro.runner.spec import SweepSpec

if TYPE_CHECKING:  # the profiler is imported by profile_specs, which runs it
    import pstats

#: Sort orders a report can be built with (name → pstats stat tuple index).
PROFILE_SORT_KEYS: dict[str, int] = {
    "cumulative": 3,
    "tottime": 2,
    "calls": 1,
}


@dataclass(frozen=True)
class HotSpot:
    """One function's aggregate cost in a profile run."""

    function: str
    """``file:line(name)`` — the file trimmed to its final two components."""

    calls: int
    """Total number of calls (including recursive re-entries)."""

    primitive_calls: int
    """Calls that were not recursive re-entries."""

    total_time: float
    """Seconds spent in the function itself (``tottime``)."""

    cumulative_time: float
    """Seconds spent in the function and everything it called (``cumtime``)."""

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form of the hotspot."""
        return {
            "function": self.function,
            "calls": self.calls,
            "primitive_calls": self.primitive_calls,
            "total_time": self.total_time,
            "cumulative_time": self.cumulative_time,
        }


@dataclass(frozen=True)
class ProfileReport:
    """Condensed cProfile statistics of one profiled sweep run."""

    specs: tuple[str, ...]
    """Names of the profiled sweep specs."""

    point_count: int
    """Grid points executed under the profiler."""

    sort: str
    """Sort key the hotspots are ranked by (a :data:`PROFILE_SORT_KEYS` name)."""

    total_calls: int
    """Function calls observed across the whole run."""

    total_time: float
    """Seconds of profiled execution."""

    hotspots: tuple[HotSpot, ...]
    """The top functions, ranked by ``sort``."""

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form of the report (``repro profile --format json``)."""
        return {
            "specs": list(self.specs),
            "point_count": self.point_count,
            "sort": self.sort,
            "total_calls": self.total_calls,
            "total_time": self.total_time,
            "hotspots": [spot.as_dict() for spot in self.hotspots],
        }

    def format_text(self) -> str:
        """Human-readable hotspot table (``repro profile``'s default output)."""
        lines = [
            f"profiled {self.point_count} grid point(s) of "
            f"{', '.join(self.specs)}: "
            f"{self.total_calls} calls in {self.total_time:.3f}s",
            f"top {len(self.hotspots)} functions by {self.sort}:",
            f"{'calls':>10} {'tottime':>9} {'cumtime':>9}  function",
        ]
        for spot in self.hotspots:
            calls = (
                str(spot.calls)
                if spot.calls == spot.primitive_calls
                else f"{spot.calls}/{spot.primitive_calls}"
            )
            lines.append(
                f"{calls:>10} {spot.total_time:>9.4f} "
                f"{spot.cumulative_time:>9.4f}  {spot.function}"
            )
        return "\n".join(lines)


def _function_label(func: tuple[str, int, str]) -> str:
    """``file:line(name)`` with the file trimmed to its final two components."""
    filename, lineno, name = func
    if filename.startswith("~"):  # pstats' marker for built-in functions
        return name
    trimmed = "/".join(PurePath(filename).parts[-2:])
    return f"{trimmed}:{lineno}({name})"


def _extract_hotspots(stats: pstats.Stats, *, sort: str, limit: int) -> tuple[HotSpot, ...]:
    """The ``limit`` most expensive entries of ``stats`` under ``sort``."""
    index = PROFILE_SORT_KEYS[sort]
    entries = sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda item: item[1][index],
        reverse=True,
    )
    hotspots = []
    for func, (primitive, calls, tottime, cumtime, _callers) in entries[:limit]:
        hotspots.append(
            HotSpot(
                function=_function_label(func),
                calls=calls,
                primitive_calls=primitive,
                total_time=tottime,
                cumulative_time=cumtime,
            )
        )
    return tuple(hotspots)


def profile_specs(
    specs: Iterable[SweepSpec] | SweepSpec,
    *,
    characterize: bool = False,
    packet_count: int = 200,
    sort: str = "cumulative",
    limit: int = 25,
) -> ProfileReport:
    """Run ``specs`` serially under cProfile and condense the statistics.

    Args:
        specs: one sweep spec or an iterable of them.
        characterize: also run (and profile) the NoC characterisation
            campaign per point; off by default so the report shows only
            the planning hot path.
        packet_count: campaign size when ``characterize`` is on.
        sort: hotspot ranking — one of :data:`PROFILE_SORT_KEYS`.
        limit: number of hotspots to keep.

    Raises:
        ConfigurationError: for an unknown sort key or a non-positive limit.
    """
    if sort not in PROFILE_SORT_KEYS:
        known = ", ".join(sorted(PROFILE_SORT_KEYS))
        raise ConfigurationError(f"unknown profile sort {sort!r}; known: {known}")
    if limit < 1:
        raise ConfigurationError("profile hotspot limit must be positive")
    spec_list: Sequence[SweepSpec] = [specs] if isinstance(specs, SweepSpec) else list(specs)
    if not spec_list:
        raise ConfigurationError("nothing to profile: no sweep specs given")

    import cProfile
    import pstats

    runner = SweepRunner(characterize=characterize, packet_count=packet_count)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        for spec in spec_list:
            runner.run(spec)
    finally:
        profiler.disable()

    stats = pstats.Stats(profiler)
    return ProfileReport(
        specs=tuple(spec.name for spec in spec_list),
        point_count=sum(spec.point_count for spec in spec_list),
        sort=sort,
        total_calls=stats.total_calls,  # type: ignore[attr-defined]
        total_time=stats.total_tt,  # type: ignore[attr-defined]
        hotspots=_extract_hotspots(stats, sort=sort, limit=limit),
    )

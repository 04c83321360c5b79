"""The paper's six systems and Figure 1's axes, as plain data.

Naming a paper system, validating a sweep spec or building the ``repro``
argument parser needs these tables but none of the planning core, so they
live apart from :mod:`repro.system.presets` (which builds the systems) and
:mod:`repro.experiments.figure1` (which runs the figure).  Both re-export
them under their historical names.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PaperSystemSpec:
    """Parameters of one of the paper's evaluated systems."""

    benchmark: str
    processor_model: str
    processor_count: int
    grid_width: int
    grid_height: int

    @property
    def name(self) -> str:
        """System name in the paper's nomenclature, e.g. ``"d695_leon"``."""
        return f"{self.benchmark}_{self.processor_model}"


#: The six system configurations of the paper's Figure 1, keyed by name.
PAPER_SYSTEMS: dict[str, PaperSystemSpec] = {
    spec.name: spec
    for spec in (
        PaperSystemSpec("d695", "leon", 6, 4, 4),
        PaperSystemSpec("d695", "plasma", 6, 4, 4),
        PaperSystemSpec("p22810", "leon", 8, 5, 6),
        PaperSystemSpec("p22810", "plasma", 8, 5, 6),
        PaperSystemSpec("p93791", "leon", 8, 5, 5),
        PaperSystemSpec("p93791", "plasma", 8, 5, 5),
    )
}

#: Processor counts swept per benchmark, following the x axes of Figure 1.
PAPER_PROCESSOR_COUNTS: dict[str, tuple[int, ...]] = {
    "d695": (0, 2, 4, 6),
    "p22810": (0, 2, 4, 6, 8),
    "p93791": (0, 2, 4, 6, 8),
}

#: The two series of every panel: 50 % power limit and no power limit.
PAPER_POWER_SERIES: dict[str, float | None] = {
    "50% power limit": 0.5,
    "no power limit": None,
}

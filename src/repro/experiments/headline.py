"""The reduction percentages quoted in the paper's text.

Section 3 quotes three headline numbers:

* T1 — "even smaller systems like d695_leon can take advantage of the extra
  test interface, with test time reduction of 28 %";
* T2 — "for larger systems such as p93791_leon, the gain in test time can be
  as high as 44 %";
* T3 — "despite of this, imposing power constraints the test reduction
  reaches up to 37 %".

:func:`run_headline_claims` recomputes each of them by running the relevant
Figure 1 panel specs through the shared sweep runner and reports
paper-vs-measured side by side; ``repro headline`` prints them, and the
``paper_gap_pp`` row of ``perfbench/METRICS.md`` tracks their mean gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.figure1 import run_panel
from repro.runner.engine import SweepRunner


@dataclass(frozen=True)
class HeadlineClaim:
    """One textual claim of the paper and its reproduced counterpart.

    Attributes:
        claim_id: the claim's identifier (T1, T2, T3), as ``repro headline``
            prints it.
        description: what the paper claims.
        system: the system the claim refers to.
        series: which power series of Figure 1 the claim refers to.
        paper_value: the reduction percentage quoted by the paper.
        measured_value: the reduction percentage measured by the reproduction.
    """

    claim_id: str
    description: str
    system: str
    series: str
    paper_value: float
    measured_value: float

    @property
    def absolute_error(self) -> float:
        """Absolute difference between paper and measured values (points)."""
        return abs(self.paper_value - self.measured_value)

    def row(self) -> str:
        """One formatted report line for this claim."""
        return (
            f"{self.claim_id}: {self.system:<14} {self.series:<16} "
            f"paper {self.paper_value:5.1f}%   measured {self.measured_value:5.1f}%   "
            f"(delta {self.measured_value - self.paper_value:+.1f} points)"
        )


def run_headline_claims(
    *, flit_width: int = 32, runner: SweepRunner | None = None
) -> list[HeadlineClaim]:
    """Recompute the paper's three quoted reductions with the reproduction."""
    runner = runner or SweepRunner()
    d695 = run_panel("d695_leon", flit_width=flit_width, runner=runner)
    p93791 = run_panel("p93791_leon", flit_width=flit_width, runner=runner)

    return [
        HeadlineClaim(
            claim_id="T1",
            description="d695_leon test time reduction with processor reuse",
            system="d695_leon",
            series="no power limit",
            paper_value=28.0,
            measured_value=d695.best_reduction("no power limit"),
        ),
        HeadlineClaim(
            claim_id="T2",
            description="p93791_leon best-case reduction without power limit",
            system="p93791_leon",
            series="no power limit",
            paper_value=44.0,
            measured_value=p93791.best_reduction("no power limit"),
        ),
        HeadlineClaim(
            claim_id="T3",
            description="p93791_leon best-case reduction under the 50% power limit",
            system="p93791_leon",
            series="50% power limit",
            paper_value=37.0,
            measured_value=p93791.best_reduction("50% power limit"),
        ),
    ]

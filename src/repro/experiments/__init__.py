"""Experiment drivers reproducing the paper's evaluation.

Every exhibit of the paper maps to one driver here:

* :mod:`repro.experiments.figure1` — the six panels of Figure 1 (test time vs
  number of reused processors, with and without the 50 % power limit),
* :mod:`repro.experiments.headline` — the reduction percentages quoted in the
  text (28 % for d695_Leon, up to 44 % / 37 % for p93791_Leon).

The drivers are deterministic and fast (the whole Figure 1 grid plans in
well under a second), so the tests under ``tests/experiments/`` call them
directly and check the shapes the paper reports.

Every driver is a thin :class:`~repro.runner.spec.SweepSpec` definition
executed by the shared :class:`~repro.runner.engine.SweepRunner` — pass a
configured runner to share build/characterisation caches.  The spec factory
:func:`figure1_spec` is exported separately so the grid can be dumped via
``SweepSpec.to_dict`` and orchestrated shard-wise with
``repro orchestrate --spec-json``.  Studies over the parameters the paper
fixes (scheduler policy, processor pattern penalty, flit width) are plain
specs too: they are the ``schedulers``, ``pattern_penalties`` and
``flit_widths`` axes of ``repro sweep --spec-json``.

The names below are imported on first use (PEP 562): importing the package
loads no driver.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.experiments.figure1": (
            "PAPER_PROCESSOR_COUNTS",
            "Figure1Panel",
            "figure1_spec",
            "run_figure1",
            "run_panel",
        ),
        "repro.experiments.headline": ("HeadlineClaim", "run_headline_claims"),
    },
)

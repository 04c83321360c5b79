"""Experiment drivers reproducing the paper's evaluation.

Every exhibit of the paper maps to one driver here:

* :mod:`repro.experiments.figure1` — the six panels of Figure 1 (test time vs
  number of reused processors, with and without the 50 % power limit),
* :mod:`repro.experiments.headline` — the reduction percentages quoted in the
  text (28 % for d695_Leon, up to 44 % / 37 % for p93791_Leon),
* :mod:`repro.experiments.ablation` — the greedy vs look-ahead comparison that
  explains the p22810 irregularity, plus sweeps over the design parameters the
  paper fixes (processor pattern penalty, number of external interfaces).

The drivers are deterministic and fast (the whole Figure 1 grid plans in
well under a second), so the tests under ``tests/experiments/`` call them
directly and check the shapes the paper reports.

Since the sweep-engine refactor every grid-shaped driver is a thin
:class:`~repro.runner.spec.SweepSpec` definition executed by the shared
:class:`~repro.runner.engine.SweepRunner` — pass a configured runner to any
driver to share build/characterisation caches.  The spec factories
(:func:`figure1_spec`, :func:`scheduler_comparison_spec`,
:func:`pattern_penalty_spec`, :func:`flit_width_spec`) are exported
separately so any backend can execute an experiment grid — e.g. dumped via
``SweepSpec.to_dict`` and orchestrated shard-wise with
``repro orchestrate --spec-json``.

The names below are imported on first use (PEP 562): the ``repro sweep``
CLI reads the Figure 1 grid constants without loading the ablation
drivers.
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
        "repro.experiments.ablation": (
            "scheduler_comparison_spec",
            "run_scheduler_comparison",
            "pattern_penalty_spec",
            "run_pattern_penalty_sweep",
            "run_external_interface_sweep",
            "flit_width_spec",
            "run_flit_width_sweep",
        ),
    },
)

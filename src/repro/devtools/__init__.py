"""Developer tooling for the reproduction — the ``repro lint`` AST-based
invariant checker (see :mod:`repro.devtools.framework` for the rule
machinery and :mod:`repro.devtools.rules` for the shipped rules) and the
``repro profile`` cProfile harness for the planning hot path
(:mod:`repro.devtools.profile`).

The names below are imported on first use (PEP 562), so the fault
injector (:mod:`repro.devtools.chaos`) loads neither the AST analyzer nor
the profiler."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.devtools.profile": (
            "HotSpot",
            "PROFILE_SORT_KEYS",
            "ProfileReport",
            "profile_specs",
        ),
        "repro.devtools.framework": (
            "Finding",
            "Linter",
            "LintReport",
            "LintRule",
            "ModuleSource",
            "PARSE_ERROR_RULE_ID",
            "ProjectLintRule",
            "Suppressions",
            "parse_suppressions",
        ),
        "repro.devtools.rules": ("KNOWN_API_STATUSES", "RULES", "get_rules"),
    },
)

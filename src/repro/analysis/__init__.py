"""Static verification of schedules and symbolic structures (no numerics).

The subsystem has four layers:

* :mod:`repro.analysis.report` — :class:`Finding` / :class:`AnalysisReport`
  and the versioned ``repro.analysis`` JSON schema with its validator.
* :mod:`repro.analysis.structure` — invariant lints for CSC patterns,
  eforests, postorders, supernode partitions, BTF decompositions, solve
  schedules, and whole :class:`~repro.serve.plan.SymbolicPlan` bundles.
* :mod:`repro.analysis.footprints` — static read/write sets of every task
  kind over (region, scalar-row) pairs.
* :mod:`repro.analysis.races` — DAG-reachability race checking, liveness
  (deadlock) detection, and the Theorem-4 S*-vs-eforest minimality report.
* :mod:`repro.analysis.sanitizer` — opt-in (``REPRO_SANITIZE=1``) runtime
  access sanitizer: dynamic reads/writes checked online against the
  static footprints, with happens-before rebuilt from the execution.

:mod:`repro.analysis.runner` composes the static passes into
:func:`analyze_plan` / :func:`analyze_matrix` (the ``repro analyze
--verify`` CLI; ``--sanitize`` adds the runtime mode) and the
``REPRO_ANALYZE=1`` debug hooks. See ``docs/analysis.md``.

The static passes never execute numerics; only the sanitizer factorizes
for real — which is why it lives behind its own CLI flag and environment
switch.
"""

from repro.analysis.footprints import (
    ORIG_AT_REGION,
    TaskFootprint,
    expected_2d_tasks,
    expected_factor_tasks,
    expected_solve_tasks,
    factor_footprints,
    region_label,
    solve_footprints,
    solve_region_label,
    two_d_footprints,
)
from repro.analysis.races import (
    Reachability,
    check_liveness,
    check_races,
    minimality_report,
)
from repro.analysis.report import (
    ANALYSIS_SCHEMA,
    ANALYSIS_SCHEMA_VERSION,
    SUPPORTED_ANALYSIS_VERSIONS,
    AnalysisReport,
    Finding,
    SubjectReport,
    validate_analysis_document,
)
from repro.analysis.sanitizer import (
    SANITIZER_KINDS,
    AccessSanitizer,
    build_sanitizer,
    sanitize_enabled,
    sanitize_matrix,
    sanitizer_footprints,
)
from repro.analysis.runner import (
    ENV_VAR,
    analysis_enabled,
    analyze_matrix,
    analyze_plan,
    suppress_hooks,
    verify_plan,
)
from repro.analysis.structure import (
    check_btf,
    check_csc,
    check_forest,
    check_partition,
    check_plan,
    check_postorder,
    check_schedule,
)

__all__ = [
    "ANALYSIS_SCHEMA",
    "ANALYSIS_SCHEMA_VERSION",
    "AccessSanitizer",
    "AnalysisReport",
    "ENV_VAR",
    "Finding",
    "ORIG_AT_REGION",
    "Reachability",
    "SANITIZER_KINDS",
    "SUPPORTED_ANALYSIS_VERSIONS",
    "SubjectReport",
    "TaskFootprint",
    "analysis_enabled",
    "analyze_matrix",
    "analyze_plan",
    "build_sanitizer",
    "sanitize_enabled",
    "sanitize_matrix",
    "sanitizer_footprints",
    "check_btf",
    "check_csc",
    "check_forest",
    "check_liveness",
    "check_partition",
    "check_plan",
    "check_postorder",
    "check_races",
    "check_schedule",
    "expected_2d_tasks",
    "expected_factor_tasks",
    "expected_solve_tasks",
    "factor_footprints",
    "minimality_report",
    "region_label",
    "solve_footprints",
    "solve_region_label",
    "two_d_footprints",
    "suppress_hooks",
    "validate_analysis_document",
    "verify_plan",
]

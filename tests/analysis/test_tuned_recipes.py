"""Analyzer sweep over tuned recipes: every recipe's plan stays clean.

The static race/deadlock/invariant analyzer must report zero findings
for plans built under any recipe the autotuner can select — new
orderings (amd, dissect) and non-default amalgamation included.
"""

import pytest

from repro.analysis.runner import analyze_plan
from repro.serve.plan import build_plan
from repro.sparse.generators import paper_matrix
from repro.tune import autotune, default_candidates, recipe_spec


@pytest.mark.parametrize(
    "recipe", default_candidates(quick=True), ids=recipe_spec
)
def test_candidate_grid_plans_zero_findings(recipe):
    a = paper_matrix("sherman3", scale=0.08)
    plan = build_plan(a, recipe)
    report = analyze_plan(plan, name=recipe_spec(recipe))
    assert report.ok, report.render()


def test_autotuned_winner_zero_findings():
    a = paper_matrix("sherman5", scale=0.08)
    result = autotune(a, quick=True)
    plan = build_plan(a, result.recipe)
    report = analyze_plan(plan, name=recipe_spec(result.recipe))
    assert report.ok, report.render()

"""Per-pattern ordering autotuning (the ROADMAP's "real subsystem").

The ordering ablation shows no single fill-reducing ordering wins: the
ordering and the supernode amalgamation tolerance interact, and the right
joint setting depends on the sparsity pattern.
This package closes the loop:

* :func:`parse_recipe` / :func:`recipe_spec` — the spec-string form of
  one joint (ordering + params + amalgamation) setting, read into and
  printed from :class:`~repro.numeric.solver.SolverOptions`;
* :func:`evaluate_recipe` — symbolic-only scoring: fill, the Luce/Ng
  FLOPs objective, and the α-β machine-model makespan at P processors;
* :func:`autotune` — deterministic, offline grid search returning the
  best recipe under the chosen objective, as options a caller builds
  plans from. The ranking is the simulated Origin-2000 makespan, not
  this host's clock (docs/ordering.md).

CLI: ``repro tune``; per-ordering scores and wall times:
``benchmarks/bench_ablation_ordering.py``. Guide: docs/ordering.md.
"""

from repro.tune.recipe import parse_recipe, recipe_spec
from repro.tune.cost import OBJECTIVES, RecipeScore, evaluate_recipe
from repro.tune.autotune import TuneResult, autotune, default_candidates

__all__ = [
    "parse_recipe",
    "recipe_spec",
    "RecipeScore",
    "OBJECTIVES",
    "evaluate_recipe",
    "TuneResult",
    "autotune",
    "default_candidates",
]

"""Per-pattern ordering autotuning (the ROADMAP's "real subsystem").

The ordering ablation shows no single fill-reducing ordering wins: the
ordering and the supernode amalgamation tolerance interact, and the right
joint setting depends on the sparsity pattern.
This package closes the loop:

* :class:`OrderingRecipe` — one joint (ordering + params + amalgamation)
  setting, hashable and serializable;
* :func:`evaluate_recipe` — symbolic-only scoring: fill, the Luce/Ng
  FLOPs objective, and the α-β machine-model makespan at P processors;
* :func:`autotune` — deterministic, offline grid search returning the
  best recipe under the chosen objective; a caller applies it with
  ``recipe.apply(options)``. The ranking is the simulated Origin-2000
  makespan, not this host's clock (docs/ordering.md).

CLI: ``repro tune``; per-ordering scores and wall times:
``benchmarks/bench_ablation_ordering.py``. Guide: docs/ordering.md.
"""

from repro.tune.recipe import OrderingRecipe
from repro.tune.cost import OBJECTIVES, RecipeScore, evaluate_recipe
from repro.tune.autotune import TuneResult, autotune, default_candidates

__all__ = [
    "OrderingRecipe",
    "RecipeScore",
    "OBJECTIVES",
    "evaluate_recipe",
    "TuneResult",
    "autotune",
    "default_candidates",
]

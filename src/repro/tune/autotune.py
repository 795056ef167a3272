"""Per-pattern autotuning of ordering recipes.

``autotune(a)`` scores a candidate grid of :class:`OrderingRecipe`\\ s with
the symbolic-only evaluator (:mod:`repro.tune.cost`) and returns the
winner under the requested objective (predicted T(P) by default). The
search is pure pattern analysis and offline: it suggests a recipe, and a
caller that wants it builds plans from ``recipe.apply(options)``.

Observability: the search runs under a ``tune.search`` span with one
``tune.candidate`` child per evaluation, and feeds ``tune.searches`` /
``tune.candidates`` counters plus the ``tune.search_seconds`` histogram
into the provided metrics registry (names catalogued in
docs/observability.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.numeric.solver import SolverOptions
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.parallel.machine import MachineModel, ORIGIN2000
from repro.sparse.csc import CSCMatrix
from repro.tune.cost import OBJECTIVES, RecipeScore, evaluate_recipe
from repro.tune.recipe import OrderingRecipe

#: Search-time histogram bounds (seconds).
SEARCH_BOUNDS: tuple[float, ...] = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


def default_candidates(*, quick: bool = False) -> tuple[OrderingRecipe, ...]:
    """The default recipe grid: ordering × amalgamation.

    Always contains every ordering at the default amalgamation bounds,
    so the winner can never be worse than the best fixed ordering — the
    acceptance bar of the subsystem. ``quick`` stops there, for CI smoke
    runs.
    """
    recipes = [
        OrderingRecipe(ordering=ordering)
        for ordering in ("mindeg", "amd", "rcm", "dissect", "natural")
    ]
    if not quick:
        # The simulated objective favours less padding than the wall clock
        # that picked the defaults: the paper-era bounds and one step
        # looser, for the ordering whose blocks are small enough to care.
        for pad in (0.25, 0.4):
            recipes.append(
                OrderingRecipe(ordering="amd", max_padding=pad, max_supernode=48)
            )
        # Wider blocks for the fragmenting orderings (the ablation's
        # mindeg lesson: fill won, fragmentation lost), and a larger
        # dissection leaf so separators stay coarse.
        recipes.append(
            OrderingRecipe(ordering="amd", max_padding=0.4, max_supernode=96)
        )
        recipes.append(
            OrderingRecipe(ordering="mindeg", max_padding=0.4, max_supernode=96)
        )
        recipes.append(
            OrderingRecipe(ordering="dissect", params=(("leaf_size", 128),))
        )
    return tuple(recipes)


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one ``autotune`` call."""

    recipe: OrderingRecipe
    score: RecipeScore
    #: Every evaluated candidate, best first.
    scores: tuple[RecipeScore, ...]
    objective: str
    search_seconds: float

    def as_dict(self) -> dict:
        return {
            "recipe": self.recipe.spec(),
            "objective": self.objective,
            "search_seconds": float(self.search_seconds),
            "winner": self.score.as_dict(),
            "candidates": [s.as_dict() for s in self.scores],
        }


def autotune(
    a: CSCMatrix,
    *,
    candidates: Optional[Sequence[OrderingRecipe]] = None,
    objective: str = "time",
    n_procs: int = 8,
    machine: MachineModel = ORIGIN2000,
    base_options: Optional[SolverOptions] = None,
    quick: bool = False,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> TuneResult:
    """Pick the best ordering recipe for ``a``'s pattern.

    Parameters
    ----------
    candidates:
        Recipes to score; :func:`default_candidates` when omitted.
    objective:
        ``"time"`` (simulator-predicted makespan at ``n_procs``, the
        default), ``"flops"``, or ``"fill"``. Ties break on the remaining
        objectives, then the recipe spec — fully deterministic.
    quick:
        Use the trimmed candidate grid (CI smoke runs).
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r} (want one of {OBJECTIVES})")
    tr = tracer if tracer is not None else Tracer(enabled=False)
    reg = metrics if metrics is not None else MetricsRegistry()
    m_searches = reg.counter("tune.searches")
    m_candidates = reg.counter("tune.candidates")
    h_seconds = reg.histogram("tune.search_seconds", unit="s", bounds=SEARCH_BOUNDS)

    t0 = time.perf_counter()
    with tr.span(
        "tune.search", n=a.n_cols, nnz=a.nnz, objective=objective, n_procs=n_procs
    ) as span:
        grid = tuple(candidates) if candidates is not None else default_candidates(
            quick=quick
        )
        if not grid:
            raise ValueError("autotune needs at least one candidate recipe")
        scores = []
        for recipe in grid:
            scores.append(
                evaluate_recipe(
                    a, recipe, n_procs=n_procs, machine=machine,
                    base_options=base_options, tracer=tr,
                )
            )
            m_candidates.inc()
        scores.sort(key=lambda s: s.sort_key(objective))
        best = scores[0]
        m_searches.inc()
        elapsed = time.perf_counter() - t0
        h_seconds.observe(elapsed)
        span.set(
            recipe=best.recipe.spec(),
            n_candidates=len(scores),
            predicted_time=best.predicted_time,
        )
    return TuneResult(
        recipe=best.recipe,
        score=best,
        scores=tuple(scores),
        objective=objective,
        search_seconds=elapsed,
    )

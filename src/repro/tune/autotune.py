"""Per-pattern autotuning of ordering recipes.

``autotune(a)`` scores a candidate grid of :class:`SolverOptions` that
differ in their recipe (:mod:`repro.tune.recipe`) with the symbolic-only
evaluator (:mod:`repro.tune.cost`) and returns the winner under the
requested objective (predicted T(P) by default). The search is pure
pattern analysis and offline: it suggests options, and a caller that
wants them builds plans from ``autotune(a).recipe``.

Observability: the search runs under a ``tune.search`` span with one
``tune.candidate`` child per evaluation, and feeds ``tune.searches`` /
``tune.candidates`` counters plus the ``tune.search_seconds`` histogram
into the provided metrics registry (names catalogued in
docs/observability.md).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.numeric.solver import SolverOptions
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.ordering import ORDERINGS
from repro.parallel.machine import MachineModel, ORIGIN2000
from repro.sparse.csc import CSCMatrix
from repro.tune.cost import OBJECTIVES, RecipeScore, evaluate_recipe
from repro.tune.recipe import parse_recipe, recipe_spec
from repro.util.errors import DispatchError

#: Search-time histogram bounds (seconds).
SEARCH_BOUNDS: tuple[float, ...] = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


def default_candidates(*, quick: bool = False) -> tuple[SolverOptions, ...]:
    """The default recipe grid: ordering × amalgamation.

    Always contains every ordering of :data:`repro.ordering.ORDERINGS` at
    the default amalgamation bounds, so the winner can never be worse
    than the best fixed ordering — the acceptance bar of the subsystem.
    ``quick`` stops there, for CI smoke runs.
    """
    specs = list(ORDERINGS)
    if not quick:
        # The simulated objective favours less padding than the wall clock
        # that picked the defaults: the paper-era bounds and one step
        # looser, for the ordering whose blocks are small enough to care.
        specs += ["amd:pad=0.25,max=48", "amd:pad=0.4,max=48"]
        # Wider blocks for the fragmenting orderings (the ablation's
        # mindeg lesson: fill won, fragmentation lost), and a larger
        # dissection leaf so separators stay coarse.
        specs += ["amd:pad=0.4,max=96", "mindeg:pad=0.4,max=96", "dissect:leaf_size=128"]
    # A tuned row whose ordering has left the catalog is skipped.
    return tuple(
        parse_recipe(spec) for spec in specs if spec.partition(":")[0] in ORDERINGS
    )


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one ``autotune`` call."""

    #: The winning options (``score.recipe``).
    recipe: SolverOptions
    score: RecipeScore
    #: Every evaluated candidate, best first.
    scores: tuple[RecipeScore, ...]
    objective: str
    search_seconds: float

    def as_dict(self) -> dict:
        return {
            "recipe": recipe_spec(self.recipe),
            "objective": self.objective,
            "search_seconds": float(self.search_seconds),
            "winner": self.score.as_dict(),
            "candidates": [s.as_dict() for s in self.scores],
        }


def autotune(
    a: CSCMatrix,
    *,
    candidates: Optional[Sequence[SolverOptions]] = None,
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
        Options to score; :func:`default_candidates` when omitted.
    base_options:
        When given, every candidate's postordering, task graph,
        equilibration and symbolic params are taken from it: only the
        recipe (ordering, its params, amalgamation bounds) is searched.
    objective:
        ``"time"`` (simulator-predicted makespan at ``n_procs``, the
        default), ``"flops"``, or ``"fill"``. Ties break on the remaining
        objectives, then the recipe spec — fully deterministic.
    quick:
        Use the trimmed candidate grid (CI smoke runs).
    """
    if objective not in OBJECTIVES:
        raise DispatchError(f"unknown objective {objective!r} (want one of {OBJECTIVES})")
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
            raise DispatchError("autotune needs at least one candidate recipe")
        if base_options is not None:
            grid = tuple(
                dataclasses.replace(
                    base_options,
                    ordering=c.ordering,
                    ordering_params=c.ordering_params,
                    amalgamation=c.amalgamation,
                    max_padding=c.max_padding,
                    max_supernode=c.max_supernode,
                )
                for c in grid
            )
        scores = []
        for recipe in grid:
            scores.append(
                evaluate_recipe(
                    a, recipe, n_procs=n_procs, machine=machine, tracer=tr
                )
            )
            m_candidates.inc()
        scores.sort(key=lambda s: s.sort_key(objective))
        best = scores[0]
        m_searches.inc()
        elapsed = time.perf_counter() - t0
        h_seconds.observe(elapsed)
        span.set(
            recipe=recipe_spec(best.recipe),
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

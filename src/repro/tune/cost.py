"""Symbolic-only cost evaluation of ordering recipes.

Scores a candidate recipe without touching a single matrix value: build
the recipe's symbolic plan (:func:`repro.serve.build_plan`), then read off

* **fill** — ``|Ā| / |A|``, the classical ordering objective;
* **FLOPs** — the total factorization flop count over the §4 task graph
  (the Luce/Ng objective, PAPERS.md ``1303.1754``: minimum fill and
  minimum FLOPs are *different* problems, and for a parallel machine the
  flop count is the better proxy for work);
* **predicted parallel time** — the α-β machine-model makespan of the
  task graph at ``P`` processors (:mod:`repro.parallel.simulate`, the
  same simulator the Table-2 benchmarks trust), which folds in what
  neither fill nor FLOPs see: supernode fragmentation, the BLAS-3
  efficiency ramp, per-task overhead, and communication.

sherman3 is the canonical cautionary tale (ablation_ordering.txt):
mindeg wins fill 17.0× vs 31.3× yet loses T(P=8) 0.49s vs 0.23s. The
evaluator exists so the autotuner can rank by the quantity that actually
matters for the serving fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.numeric.costs import CostModel
from repro.numeric.solver import SolverOptions
from repro.obs.trace import Tracer
from repro.parallel.machine import MachineModel, ORIGIN2000
from repro.parallel.mapping import make_mapping
from repro.parallel.simulate import simulate_schedule
from repro.serve.plan import build_plan
from repro.sparse.csc import CSCMatrix
from repro.tune.recipe import recipe_spec
from repro.util.errors import DispatchError

#: Ranking objectives ``evaluate_recipe``'s scores can be sorted by.
OBJECTIVES: tuple[str, ...] = ("time", "flops", "fill")


@dataclass(frozen=True)
class RecipeScore:
    """One recipe's symbolic-only cost card."""

    #: The options scored; :func:`recipe_spec` prints the recipe part.
    recipe: SolverOptions
    n: int
    nnz: int
    nnz_filled: int
    fill_ratio: float
    n_supernodes: int
    mean_supernode_size: float
    n_tasks: int
    flops: int
    predicted_time: float
    n_procs: int
    efficiency: float
    comm_bytes: int

    def objective(self, name: str = "time") -> float:
        """The scalar this score contributes under ranking ``name``."""
        if name == "time":
            return float(self.predicted_time)
        if name == "flops":
            return float(self.flops)
        if name == "fill":
            return float(self.fill_ratio)
        raise DispatchError(f"unknown objective {name!r} (want one of {OBJECTIVES})")

    def sort_key(self, name: str = "time") -> tuple:
        """Deterministic total order: objective, then the tie-breakers."""
        return (
            self.objective(name),
            float(self.predicted_time),
            float(self.flops),
            float(self.fill_ratio),
            recipe_spec(self.recipe),
        )

    def as_dict(self) -> dict:
        return {
            "recipe": recipe_spec(self.recipe),
            "n": self.n,
            "nnz": self.nnz,
            "nnz_filled": self.nnz_filled,
            "fill_ratio": float(self.fill_ratio),
            "n_supernodes": self.n_supernodes,
            "mean_supernode_size": float(self.mean_supernode_size),
            "n_tasks": self.n_tasks,
            "flops": int(self.flops),
            "predicted_time": float(self.predicted_time),
            "n_procs": self.n_procs,
            "efficiency": float(self.efficiency),
            "comm_bytes": int(self.comm_bytes),
        }


def evaluate_recipe(
    a: CSCMatrix,
    recipe: SolverOptions,
    *,
    n_procs: int = 8,
    machine: MachineModel = ORIGIN2000,
    tracer: Optional[Tracer] = None,
) -> RecipeScore:
    """Score the plan ``recipe`` builds on ``a``'s pattern (values ignored).

    The simulation setup (cyclic 1-D mapping, ORIGIN2000 model) matches
    the ordering ablation's, so predicted times are directly comparable
    to ``benchmarks/results/ablation_ordering.txt`` rows.
    """
    tr = tracer if tracer is not None else Tracer(enabled=False)
    with tr.span(
        "tune.candidate",
        recipe=recipe_spec(recipe),
        n_procs=n_procs,
    ) as s:
        plan = build_plan(a.pattern_only(), recipe, tracer=tr)
        model = CostModel(plan.bp)
        flops = sum(model.flops(t) for t in plan.graph.tasks())
        res = simulate_schedule(
            plan.graph,
            plan.bp,
            machine.with_procs(n_procs),
            make_mapping("cyclic", plan.bp, n_procs),
        )
        score = RecipeScore(
            recipe=recipe,
            n=a.n_cols,
            nnz=a.nnz,
            nnz_filled=plan.fill.nnz,
            fill_ratio=float(plan.fill.fill_ratio),
            n_supernodes=plan.partition.n_supernodes,
            mean_supernode_size=float(plan.partition.mean_size()),
            n_tasks=plan.graph.n_tasks,
            flops=int(flops),
            predicted_time=float(res.makespan),
            n_procs=n_procs,
            efficiency=float(res.efficiency),
            comm_bytes=int(res.comm_bytes),
        )
        s.set(
            predicted_time=score.predicted_time,
            fill_ratio=score.fill_ratio,
            flops=score.flops,
            n_supernodes=score.n_supernodes,
        )
    return score

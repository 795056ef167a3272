"""Shared, cached pipeline runs for the evaluation drivers.

The same analyzed matrix feeds several tables/figures; a small in-process
cache keyed on (name, scale, options) keeps benchmark suites from re-running
the symbolic pipeline per experiment.
"""

from __future__ import annotations

from functools import lru_cache

from repro.numeric.solver import SolverOptions
from repro.serve.plan import SymbolicPlan, build_plan
from repro.sparse.generators import paper_matrix
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.sstar import build_sstar_graph

#: The amalgamation bounds every paper table and figure is taken at, named
#: here as ``ordering="mindeg"`` is: the library's defaults are measured
#: on the host and move; the reproduced numbers must not.
PAPER_AMALGAMATION = {"max_padding": 0.25, "max_supernode": 48}


@lru_cache(maxsize=64)
def analyzed_matrix(
    name: str,
    scale: float,
    *,
    postorder: bool = True,
    amalgamation: bool = True,
    ordering: str = "mindeg",
) -> SymbolicPlan:
    """Generate the analog of ``name`` and run the symbolic pipeline.
    The analyzed matrix is ``permuted_values(plan, paper_matrix(name,
    scale))[0]`` (:func:`repro.serve.refactor.permuted_values`)."""
    a = paper_matrix(name, scale=scale)
    opts = SolverOptions(
        ordering=ordering,
        postorder=postorder,
        amalgamation=amalgamation,
        **PAPER_AMALGAMATION,
    )
    return build_plan(a, opts)


def both_graphs(plan: SymbolicPlan) -> tuple[TaskGraph, TaskGraph]:
    """(eforest graph, S* graph) over the plan's block pattern."""
    return plan.graph, build_sstar_graph(plan.bp)

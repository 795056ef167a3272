"""Shared, cached pipeline runs for the evaluation drivers.

The same analyzed matrix feeds several tables/figures; a small in-process
cache keyed on (name, scale, options) keeps benchmark suites from re-running
the symbolic pipeline per experiment.
"""

from __future__ import annotations

from functools import lru_cache

from repro.numeric.solver import SolverOptions, SparseLUSolver
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
) -> SparseLUSolver:
    """Generate the analog of ``name`` and run the symbolic pipeline."""
    a = paper_matrix(name, scale=scale)
    opts = SolverOptions(
        ordering=ordering,
        postorder=postorder,
        amalgamation=amalgamation,
        **PAPER_AMALGAMATION,
    )
    return SparseLUSolver(a, opts).analyze()


def both_graphs(solver: SparseLUSolver) -> tuple[TaskGraph, TaskGraph]:
    """(eforest graph, S* graph) over the solver's block pattern."""
    assert solver.bp is not None and solver.graph is not None
    new_graph = solver.graph
    old_graph = build_sstar_graph(solver.bp)
    return new_graph, old_graph

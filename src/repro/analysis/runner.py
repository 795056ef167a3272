"""Entry points that compose the checkers into full analysis runs.

:func:`analyze_plan` is the one-stop verification of a frozen
:class:`~repro.serve.plan.SymbolicPlan`: structure lints, factor-graph
race/liveness checking, block-step race checking over the block eforest,
solve-graph race/liveness checking, and the S*-vs-eforest minimality
report, grouped into per-aspect subjects of one
:class:`~repro.analysis.report.AnalysisReport`. :func:`analyze_matrix`
builds the plan first (symbolic pipeline only — no numerics anywhere in
this subsystem).

The ``REPRO_ANALYZE=1`` environment hook routes through
:func:`analysis_enabled` / :func:`verify_plan`: the production call site
(:func:`repro.serve.plan.build_plan`) invokes them lazily and raises
:class:`~repro.util.errors.AnalysisError` on any finding, under an
``analysis.verify`` tracer span. :func:`suppress_hooks` exists so the
analyzer itself (which builds plans) never recurses into the hook.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from repro.analysis.footprints import (
    expected_2d_tasks,
    expected_factor_tasks,
    expected_solve_tasks,
    factor_footprints,
    footprint_stats,
    solve_footprints,
    solve_region_label,
    step_footprints,
    two_d_footprints,
)
from repro.analysis.races import check_liveness, check_races, minimality_report
from repro.analysis.report import AnalysisReport
from repro.analysis.structure import (
    check_btf, check_forest_matches, check_plan, check_postorder,
)
from repro.util.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids import cycles
    from repro.obs.trace import Tracer
    from repro.serve.plan import SymbolicPlan
    from repro.sparse.csc import CSCMatrix
    from repro.numeric.solver import SolverOptions

ENV_VAR = "REPRO_ANALYZE"

_hooks_suppressed = False


def analysis_enabled() -> bool:
    """True when the ``REPRO_ANALYZE`` debug hook should fire."""
    if _hooks_suppressed:
        return False
    return os.environ.get(ENV_VAR, "").strip().lower() not in ("", "0", "false")


@contextmanager
def suppress_hooks() -> Iterator[None]:
    """Disable the env hook inside the analyzer's own plan builds."""
    global _hooks_suppressed
    prev = _hooks_suppressed
    _hooks_suppressed = True
    try:
        yield
    finally:
        _hooks_suppressed = prev


def analyze_plan(plan: "SymbolicPlan", *, name: str = "plan") -> AnalysisReport:
    """Statically verify every structure and schedule a plan ships.

    Subjects (one per aspect, named ``{name}/{aspect}``):

    * ``structure`` — :func:`~repro.analysis.structure.check_plan`, the
      plan's ``fill.parent`` against the eforest Definition 1 derives from
      ``fill.pattern``, and the postorder/BTF lints on the derived one.
    * ``factor-graph`` — liveness and footprint races of the plan's task
      graph against the enumerated F/U task set.
    * ``factor-steps`` — footprint races of the block steps every engine
      runs (step ``k`` = ``F(k)`` plus every ``U(k, j)``), ordered by the
      block eforest alone: the Theorem-4 argument that independent
      subtrees' steps commute, checked.
    * ``factor-graph-2d`` — the same liveness/race verification of the
      executable 2-D refinement (F/SL/SU/UP over per-block footprints),
      so every schedule a 2-D mapping can produce is covered.
    * ``solve-graph`` — liveness and races of the FS/BS solve graph
      (:func:`~repro.taskgraph.solve_graph.build_solve_graph`, the graph
      ``simulate_schedule`` prices) over RHS block rows.
    * ``minimality`` — the Theorem-4 report comparing a freshly built S*
      graph against a freshly built eforest graph for the same pattern.
    """
    from repro.parallel.two_d import build_2d_graph  # lazy: import cycle
    from repro.symbolic.eforest import lu_elimination_forest_reference
    from repro.symbolic.postorder import block_upper_triangular_blocks
    from repro.taskgraph.dag import TaskGraph
    from repro.taskgraph.eforest_graph import block_eforest, build_eforest_graph
    from repro.taskgraph.solve_graph import build_solve_graph
    from repro.taskgraph.sstar import build_sstar_graph

    report = AnalysisReport(
        meta={
            "subject": name,
            "n": plan.n,
            "nnz": plan.nnz,
            "nnz_filled": plan.fill.nnz,
            "n_blocks": plan.bp.n_blocks,
            "options": str(plan.options.symbolic_key()),
        }
    )

    structure = report.subject(f"{name}/structure")
    structure.extend(check_plan(plan))
    # The forest every stage read came out of the merge; derive it again
    # from the pattern alone, compare, and lint the derived one.
    parent = lu_elimination_forest_reference(plan.fill)
    structure.extend(check_forest_matches(plan.fill.parent, parent))
    if plan.options.postorder:
        # The pipeline postordered the fill, so its eforest must be a
        # valid postorder and induce a clean BTF decomposition.
        post = check_postorder(parent)
        structure.extend(post)
        if not post:  # contiguous subtrees: the trees tile 0..n
            blocks = block_upper_triangular_blocks(parent)
            structure.extend(check_btf(plan.fill.pattern, blocks))
            structure.stats["n_btf_blocks"] = len(blocks)
    else:
        from repro.analysis.structure import check_forest

        structure.extend(check_forest(parent))
    structure.stats["n_supernodes"] = plan.bp.n_blocks

    factor = report.subject(f"{name}/factor-graph")
    fps = factor_footprints(plan.bp, plan.fill)
    factor.extend(check_liveness(plan.graph, expected_factor_tasks(plan.bp)))
    races, stats = check_races(plan.graph, fps)
    factor.extend(races)
    factor.stats.update(stats)
    factor.stats.update(footprint_stats(fps))
    factor.stats["n_tasks"] = plan.graph.n_tasks
    factor.stats["n_edges"] = plan.graph.n_edges

    steps = report.subject(f"{name}/factor-steps")
    step_graph = TaskGraph()
    for k, p in enumerate(block_eforest(plan.bp).tolist()):
        step_graph.add_task(k)
        if p >= 0:
            step_graph.add_edge(k, p)  # step k follows its children
    step_fps = step_footprints(plan.bp, fps)
    races, stats = check_races(step_graph, step_fps)
    steps.extend(races)
    steps.stats.update(stats)
    steps.stats.update(footprint_stats(step_fps))
    steps.stats["n_steps"] = step_graph.n_tasks
    steps.stats["n_edges"] = step_graph.n_edges

    factor2d = report.subject(f"{name}/factor-graph-2d")
    graph_2d = build_2d_graph(plan.bp)
    fps2d = two_d_footprints(plan.bp, plan.fill)
    factor2d.extend(check_liveness(graph_2d, expected_2d_tasks(plan.bp)))
    races, stats = check_races(graph_2d, fps2d)
    factor2d.extend(races)
    factor2d.stats.update(stats)
    factor2d.stats.update(footprint_stats(fps2d))
    factor2d.stats["n_tasks"] = graph_2d.n_tasks
    factor2d.stats["n_edges"] = graph_2d.n_edges

    solve = report.subject(f"{name}/solve-graph")
    solve_graph = build_solve_graph(plan.bp)
    sfps = solve_footprints(plan.bp)
    solve.extend(check_liveness(solve_graph, expected_solve_tasks(plan.bp.n_blocks)))
    races, stats = check_races(solve_graph, sfps, label=solve_region_label)
    solve.extend(races)
    solve.stats.update(stats)
    solve.stats["n_tasks"] = solve_graph.n_tasks
    solve.stats["n_edges"] = solve_graph.n_edges

    minimality = report.subject(f"{name}/minimality")
    sstar = build_sstar_graph(plan.bp)
    eforest = build_eforest_graph(plan.bp)
    findings, stats = minimality_report(sstar, eforest, fps)
    minimality.extend(findings)
    minimality.stats.update(stats)
    return report


def analyze_matrix(
    a: "CSCMatrix",
    options: "Optional[SolverOptions]" = None,
    *,
    name: str = "matrix",
    tracer: "Optional[Tracer]" = None,
) -> AnalysisReport:
    """Run the symbolic pipeline on ``a`` and analyze the resulting plan."""
    from repro.serve.plan import build_plan

    with suppress_hooks():  # the hook would re-verify the plan we build
        plan = build_plan(a, options, tracer=tracer)
    return analyze_plan(plan, name=name)


def verify_plan(plan: "SymbolicPlan", *, tracer: "Optional[Tracer]" = None) -> None:
    """Hook body for ``REPRO_ANALYZE=1``: analyze, raise on any finding."""
    from repro.obs.trace import Tracer as _Tracer

    tr = tracer if tracer is not None else _Tracer(enabled=False)
    with tr.span("analysis.verify", subject="plan") as span:
        with suppress_hooks():
            report = analyze_plan(plan)
        span.set(n_findings=report.n_findings, ok=report.ok)
    if not report.ok:
        raise AnalysisError(
            f"static analysis found {report.n_findings} problem(s):\n"
            + report.render()
        )

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``      factor and solve ``A x = b`` from a Matrix Market /
               Rutherford-Boeing file (or a named synthetic analog).
``analyze``    run the symbolic pipeline only and print the statistics
               (``--verify``/``--json`` run the static race/deadlock
               analyzer instead; ``all`` sweeps every Table-1 analog).
``bench``      run one registered experiment (``table1`` ... ``fig6``,
               ablations) and print its table.
``trace``      run the full pipeline with detail tracing, price its task
               graph on the simulated Origin 2000 (``engine.*`` metrics)
               and render the span tree + metrics (optionally dump
               telemetry/Chrome JSON).
``matrices``   list the available Table-1 analogs.
``selfcheck``  condensed end-to-end verification (``--json`` for machines).
``generate``   write a synthetic analog to a Matrix Market file.
``tune``       autotune the ordering recipe for one pattern (grid over
               ordering × amalgamation tolerance, ranked by the machine-
               model makespan); apply the suggestion with ``--recipe``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from repro.eval.config import BenchConfig
from repro.eval.registry import EXPERIMENTS, run_experiment
from repro.numeric.solver import TASK_GRAPHS, SolverOptions
from repro.ordering import DEFAULT_ORDERING, ORDERINGS
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import PAPER_MATRICES, paper_matrix
from repro.sparse.io import (
    read_matrix_market,
    read_rutherford_boeing,
    write_matrix_market,
)
from repro.util.tables import format_table


def _load_matrix(spec: str, scale: float) -> CSCMatrix:
    """Load ``spec``: a file path (.mtx/.rb/.rua) or an analog name."""
    if spec in PAPER_MATRICES:
        return paper_matrix(spec, scale=scale)
    lower = spec.lower()
    if lower.endswith((".rb", ".rua", ".rsa", ".pua", ".psa")):
        return read_rutherford_boeing(spec)
    return read_matrix_market(spec)


def _solver_options(
    args: argparse.Namespace, a: Optional[CSCMatrix] = None
) -> SolverOptions:
    """Options from the pipeline flags; ``--recipe`` wins over ``--ordering``.

    ``--recipe auto`` tunes on ``a`` (or on ``args.matrix``, loaded here
    when the caller did not pass the matrix it already has).
    """
    opts = SolverOptions(
        ordering=args.ordering,
        postorder=not args.no_postorder,
        amalgamation=not args.no_amalgamation,
        task_graph=args.task_graph,
        equilibrate=getattr(args, "equilibrate", False),
    )
    spec = getattr(args, "recipe", None)
    if spec:
        from repro.tune import autotune, parse_recipe, recipe_spec

        if spec == "auto":
            if a is None:
                a = _load_matrix(args.matrix, args.scale)
            opts = autotune(a, base_options=opts).recipe
            print(f"autotuned recipe: {recipe_spec(opts)}")
        else:
            try:
                opts = parse_recipe(spec, opts)
            except ValueError as exc:
                print(f"error: bad --recipe {spec!r}: {exc}", file=sys.stderr)
                raise SystemExit(2) from exc
    return opts


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("matrix", help="matrix file (.mtx/.rua) or analog name")
    p.add_argument("--scale", type=float, default=0.35, help="analog size factor")
    p.add_argument("--ordering", choices=list(ORDERINGS), default=DEFAULT_ORDERING)
    p.add_argument("--no-postorder", action="store_true")
    p.add_argument("--no-amalgamation", action="store_true")
    p.add_argument("--task-graph", choices=list(TASK_GRAPHS), default="eforest")
    p.add_argument(
        "--equilibrate", action="store_true", help="row/column max-norm scaling"
    )
    p.add_argument(
        "--recipe",
        metavar="SPEC",
        help="ordering recipe ('amd:pad=0.4,max=96', see docs/ordering.md) "
        "applied over the other flags; 'auto' runs the autotuner first",
    )


def cmd_solve(args: argparse.Namespace) -> int:
    from repro.api import lu

    a = _load_matrix(args.matrix, args.scale)
    handle = lu(a, **vars(_solver_options(args)))
    rng = np.random.default_rng(0)
    if args.rhs == "ones":
        b = np.ones(a.n_cols)
    elif args.rhs == "random":
        b = rng.standard_normal(a.n_cols)
    else:
        b = np.loadtxt(args.rhs)
    if args.refine:
        rr = handle.solve_refined(b)
        x = rr.x
        print(f"refinement: {rr.iterations} iteration(s), converged={rr.converged}")
    else:
        x = handle.solve(b)
    print(f"n={a.n_cols} nnz={a.nnz} residual={handle.solver.residual_norm(x, b):.3e}")
    if args.condest:
        print(f"condition estimate (1-norm): {handle.condition_estimate:.3e}")
    if args.output:
        np.savetxt(args.output, x)
        print(f"solution written to {args.output}")
    return 0


def _cmd_analyze_verify(args: argparse.Namespace) -> int:
    """``repro analyze --verify/--sanitize``: analysis modes.

    ``--verify`` runs the static race/deadlock/invariant analysis and
    ``--sanitize`` executes one sanitized factorization under the
    resolved engine.
    Modes compose into one schema-v2 document whose ``modes`` list names
    the passes that ran; with none of the mode flags (bare ``--json``)
    the static pass runs alone. ``matrix`` may be ``all`` to sweep every
    Table-1 analog (the CI gate). Exits nonzero on any finding.
    """
    from repro.analysis import (
        AnalysisReport,
        analyze_matrix,
        validate_analysis_document,
    )
    from repro.obs.export import write_json

    run_static = args.verify or not args.sanitize
    names = sorted(PAPER_MATRICES) if args.matrix == "all" else [args.matrix]
    combined = AnalysisReport(
        meta={"subject": args.matrix, "scale": args.scale}, modes=[]
    )
    for nm in names:
        a = _load_matrix(nm, args.scale)
        opts = _solver_options(args, a)
        if run_static:
            report = analyze_matrix(a, opts, name=nm)
            combined.merge(report)
            print(report.render())
        if args.sanitize:
            from repro.analysis.sanitizer import sanitize_matrix

            report = sanitize_matrix(a, opts, name=nm)
            combined.merge(report)
            print(report.render())
    doc = combined.as_dict()
    errors = validate_analysis_document(doc)
    if errors:  # defensive: analyze_* should always emit valid documents
        for e in errors:
            print(f"analysis schema error: {e}", file=sys.stderr)
        return 1
    if args.json:
        write_json(args.json, doc)
        print(f"analysis report written to {args.json}")
    if not combined.ok:
        print(
            f"FAIL: analysis found {combined.n_findings} problem(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.sparse.stats import matrix_stats

    if args.verify or args.sanitize or args.json:
        return _cmd_analyze_verify(args)
    a = _load_matrix(args.matrix, args.scale)
    ms = matrix_stats(a)
    print(
        format_table(
            ["quantity", "value"],
            ms.summary_rows(),
            title=f"matrix statistics: {args.matrix}",
        )
    )
    print()
    from repro.serve.plan import build_plan

    plan = build_plan(a, _solver_options(args))
    st = plan.stats()
    rows = [
        ("order", st.n),
        ("nnz(A)", st.nnz),
        ("nnz(Abar)", st.nnz_filled),
        ("fill ratio", round(st.fill_ratio, 3)),
        ("supernodes (raw)", st.n_supernodes_raw),
        ("supernodes (amalgamated)", st.n_supernodes),
        ("mean supernode width", round(st.mean_supernode_size, 3)),
        ("BTF diagonal blocks", st.n_btf_blocks),
        ("tasks", st.n_tasks),
        ("dependence edges", st.n_edges),
    ]
    print(format_table(["quantity", "value"], rows, title=f"analysis: {args.matrix}"))
    from repro.numeric.memory import memory_report

    mem = memory_report(plan.fill, plan.bp)
    print()
    print(
        format_table(
            ["quantity", "value"],
            mem.summary_rows(),
            title="memory report",
        )
    )
    if args.spy:
        from repro.serve.refactor import permuted_values
        from repro.symbolic.postorder import block_upper_triangular_blocks
        from repro.util.spy import spy

        print("\nA (analyzed ordering):")
        print(spy(permuted_values(plan, a)[0]))
        blocks = None
        if plan.options.postorder:
            blocks = block_upper_triangular_blocks(plan.fill.parent)
        print("\nAbar (static fill):")
        print(spy(plan.fill.pattern, blocks=blocks))
    if args.forest:
        from repro.taskgraph.eforest_graph import block_eforest
        from repro.util.spy import render_forest

        print("\nblock LU eforest:")
        print(render_forest(block_eforest(plan.bp)))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    config = BenchConfig(scale=args.scale)
    if args.experiment == "all":
        for exp in sorted(EXPERIMENTS):
            print(run_experiment(exp, config))
            print()
        return 0
    print(run_experiment(args.experiment, config))
    return 0


def cmd_matrices(_args: argparse.Namespace) -> int:
    rows = [
        (s.name, s.domain, s.paper_order, s.paper_nnz)
        for s in PAPER_MATRICES.values()
    ]
    print(
        format_table(
            ["name", "domain", "paper order", "paper nnz"],
            rows,
            title="Table 1 analogs (paper_matrix(name, scale=...))",
        )
    )
    return 0


def _simulate_trace(plan, tracer, n_procs: int = 4) -> None:
    """Price ``plan`` on the paper's platform into ``tracer``.

    Builds the §4 task graph (span ``task_graph``) and event-simulates its
    schedule on an ``n_procs`` Origin 2000 (span ``simulate_schedule``),
    which records the ``engine.*`` metrics into the tracer's registry.
    """
    from repro.parallel.machine import ORIGIN2000
    from repro.parallel.mapping import cyclic_mapping
    from repro.parallel.simulate import simulate_schedule

    tr, bp = tracer, plan.bp
    with tr.span("task_graph", kind=plan.options.task_graph) as s:
        graph = plan.graph
        s.set(n_tasks=graph.n_tasks, n_edges=graph.n_edges)
    with tr.span("simulate_schedule", n_procs=n_procs) as s:
        result = simulate_schedule(
            graph,
            bp,
            ORIGIN2000.with_procs(n_procs),
            cyclic_mapping(bp.n_blocks, n_procs),
            metrics=tr.metrics,
        )
        s.set(makespan=result.makespan, efficiency=result.efficiency)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import chrome_trace_events, validate_document, write_json
    from repro.obs.render import render_trace

    from repro.obs.trace import Tracer
    from repro.serve.plan import build_plan
    from repro.serve.refactor import refactorize_with_plan

    a = _load_matrix(args.matrix, args.scale)
    tracer = Tracer(detail=True)
    plan = build_plan(a, _solver_options(args), tracer=tracer)
    fac = refactorize_with_plan(plan, a, tracer=tracer, check_pattern=False)
    _simulate_trace(plan, tracer)
    b = np.ones(a.n_cols)
    x = fac.solve(b)
    doc = tracer.export(
        meta={
            "matrix": args.matrix,
            "scale": args.scale,
            "n": a.n_cols,
            "nnz": a.nnz,
            "residual": float(fac.residual_norm(x, b)),
        }
    )
    errors = validate_document(doc)
    if errors:  # defensive: the exporter should always emit valid documents
        for e in errors:
            print(f"telemetry schema error: {e}", file=sys.stderr)
        return 1
    if args.json:
        write_json(args.json, doc)
        print(f"telemetry written to {args.json}")
    if args.chrome:
        write_json(args.chrome, {"traceEvents": chrome_trace_events(tracer)})
        print(f"chrome trace written to {args.chrome} (open in about:tracing)")
    print(render_trace(doc))
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    import json

    from repro.verify import selfcheck

    report = selfcheck()
    if getattr(args, "json", False):
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_tune(args: argparse.Namespace) -> int:
    from repro.obs.export import bench_document, validate_bench_document, write_json
    from repro.tune import autotune

    scale = 0.06 if args.quick else args.scale
    a = _load_matrix(args.matrix, scale)
    result = autotune(
        a, objective=args.objective, n_procs=args.procs, quick=args.quick
    )
    data = {
        "matrix": args.matrix,
        "scale": float(scale),
        "n": a.n_cols,
        "nnz": a.nnz,
        "n_procs": args.procs,
        "quick": bool(args.quick),
        **result.as_dict(),
    }
    winner = data["winner"]
    text = format_table(
        ["quantity", "value"],
        [
            ("matrix", f"{args.matrix} (n={a.n_cols}, nnz={a.nnz})"),
            ("objective", f"{args.objective} @ P={args.procs}"),
            ("candidates scored", len(data["candidates"])),
            ("winning recipe", data["recipe"]),
            ("predicted T(P)", round(winner["predicted_time"], 4)),
            ("fill ratio", round(winner["fill_ratio"], 3)),
            ("supernodes", winner["n_supernodes"]),
            ("flops", winner["flops"]),
            ("search seconds", round(data["search_seconds"], 3)),
        ],
        title=f"tune: {args.matrix} @ scale {scale}",
    )
    text += "\n\n" + format_table(
        ["recipe", "|Abar|/|A|", "supernodes", "flops", f"T(P={args.procs})"],
        [
            (
                s["recipe"],
                round(s["fill_ratio"], 3),
                s["n_supernodes"],
                s["flops"],
                round(s["predicted_time"], 4),
            )
            for s in data["candidates"]
        ],
        title="candidates (best first)",
        floatfmt=".4f",
    )
    if args.json:
        doc = bench_document(
            "tune",
            text=text,
            data=data,
            meta={"benchmark": "tune", "quick": bool(args.quick)},
        )
        errors = validate_bench_document(doc)
        if errors:  # defensive: bench_document should always emit valid docs
            for e in errors:
                print(f"bench schema error: {e}", file=sys.stderr)
            return 1
        write_json(args.json, doc)
        print(f"tune artifact written to {args.json}")
    print(text)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    a = paper_matrix(args.name, scale=args.scale)
    write_matrix_market(a, args.output)
    print(f"wrote {args.name} analog ({a.n_cols} x {a.n_cols}, nnz={a.nnz}) to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel sparse LU with postordering and static symbolic factorization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="factor and solve A x = b")
    _add_pipeline_flags(p)
    p.add_argument("--rhs", default="ones", help="'ones', 'random', or a file")
    p.add_argument("--refine", action="store_true", help="iterative refinement")
    p.add_argument("--condest", action="store_true", help="estimate cond_1(A)")
    p.add_argument("-o", "--output", help="write the solution vector")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("analyze", help="symbolic pipeline statistics")
    _add_pipeline_flags(p)
    p.add_argument(
        "--spy", action="store_true", help="ASCII spy plots of A and Abar"
    )
    p.add_argument(
        "--forest", action="store_true", help="render the (block) LU eforest"
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="static race/deadlock/invariant analysis; matrix may be 'all'",
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="run one sanitized factorization (engine from $REPRO_ENGINE) "
        "checking every access against the static footprints",
    )
    p.add_argument(
        "--json", metavar="PATH", help="write the repro.analysis JSON report"
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="run one registered experiment (or 'all')")
    p.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    p.add_argument("--scale", type=float, default=0.35)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("trace", help="traced pipeline run + telemetry report")
    _add_pipeline_flags(p)
    p.add_argument("--json", metavar="PATH", help="write telemetry JSON document")
    p.add_argument(
        "--chrome", metavar="PATH", help="write a Chrome-trace (about:tracing) dump"
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("matrices", help="list Table-1 analogs")
    p.set_defaults(func=cmd_matrices)

    p = sub.add_parser("selfcheck", help="condensed end-to-end verification")
    p.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )
    p.set_defaults(func=cmd_selfcheck)

    p = sub.add_parser(
        "tune",
        help="autotune the ordering recipe for one pattern (docs/ordering.md)",
    )
    p.add_argument("matrix", help="matrix file (.mtx/.rua) or analog name")
    p.add_argument(
        "--quick", action="store_true", help="small smoke run (CI-friendly)"
    )
    p.add_argument("--scale", type=float, default=0.35, help="analog size factor")
    p.add_argument(
        "--procs", type=int, default=8, help="simulated processor count"
    )
    p.add_argument(
        "--objective", choices=["time", "flops", "fill"], default="time",
        help="ranking objective (default: simulated makespan)",
    )
    p.add_argument(
        "--json", metavar="PATH", help="write the repro.bench JSON artifact"
    )
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("generate", help="write an analog to a .mtx file")
    p.add_argument("name", choices=sorted(PAPER_MATRICES))
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Drivers for the extension experiments (beyond the paper's tables).

Each function returns structured rows plus a formatter, mirroring the
table1-3/figure drivers so the benchmarks and the CLI ``bench`` command can
share them.
"""

from __future__ import annotations

import numpy as np

from repro.eval.config import BenchConfig
from repro.eval.pipeline import analyzed_matrix
from repro.numeric.factor import LUFactorization
from repro.parallel.machine import MachineModel
from repro.parallel.mapping import GridMapping, cyclic_mapping
from repro.parallel.simulate import simulate_schedule
from repro.parallel.two_d import build_2d_graph
from repro.serve.refactor import permuted_values
from repro.sparse.generators import paper_matrix
from repro.symbolic.coletree_analysis import compare_analyses
from repro.taskgraph.solve_graph import build_solve_graph
from repro.taskgraph.sstar import build_sstar_graph
from repro.util.tables import format_table


def _analyzed_values(name: str, scale: float):
    """``(plan, a_work)``: the cached plan of ``name`` and the analog
    permuted into its elimination order."""
    plan = analyzed_matrix(name, scale)
    return plan, permuted_values(plan, paper_matrix(name, scale=scale))[0]


def coletree_rows(config: BenchConfig) -> list[tuple]:
    rows = []
    for name in config.matrices[:5]:
        a_work = _analyzed_values(name, config.scale)[1]
        cmp = compare_analyses(a_work, name)
        rows.append(
            (
                cmp.name,
                cmp.nnz_exact,
                cmp.nnz_bound,
                cmp.overestimate,
                cmp.supernodes_eforest,
                cmp.supernodes_coletree,
            )
        )
    return rows


def format_coletree(rows: list[tuple]) -> str:
    return format_table(
        ["Matrix", "|Abar|", "|AtA bound|", "over", "SN eforest", "SN coletree"],
        rows,
        title="§3 claim: column-etree structure bound vs exact static fill",
        floatfmt=".2f",
    )


def lazy_rows(config: BenchConfig) -> list[tuple]:
    rows = []
    for name in config.matrices[:5]:
        plan, a_work = _analyzed_values(name, config.scale)
        eng = LUFactorization(a_work, plan.bp)
        eng.factor_sequential()
        ls = eng.lazy_stats
        rows.append(
            (name, ls.n_updates_run, ls.n_updates_skipped, f"{100 * ls.saved_fraction:.1f}%")
        )
    return rows


def format_lazy(rows: list[tuple]) -> str:
    return format_table(
        ["Matrix", "updates run", "updates skipped", "flops saved"],
        rows,
        title="LazyS+ zero-block elimination (§2)",
    )


def graph_metric_rows(config: BenchConfig) -> list[tuple]:
    from repro.numeric.costs import CostModel

    rows = []
    for name in config.matrices[:4]:
        plan = analyzed_matrix(name, config.scale)
        g_new = plan.graph
        g_old = build_sstar_graph(plan.bp)
        model = CostModel(plan.bp)
        cost = lambda t: model.flops(t) + 1.0
        par_new = g_new.parallelism_profile(cost)["avg_parallelism"]
        par_old = g_old.parallelism_profile(cost)["avg_parallelism"]
        rows.append(
            (
                name,
                g_new.n_edges,
                g_old.n_edges,
                g_new.count_concurrent_pairs(),
                g_old.count_concurrent_pairs(),
                par_new,
                par_old,
            )
        )
    return rows


def format_graph_metrics(rows: list[tuple]) -> str:
    return format_table(
        [
            "Matrix",
            "edges new",
            "edges S*",
            "conc pairs new",
            "conc pairs S*",
            "avg par new",
            "avg par S*",
        ],
        rows,
        title="§4 quantified: exposed task parallelism",
        floatfmt=".2f",
    )


def simulate_1d_vs_2d(bp, graph_1d, procs=(4, 8, 16)) -> list[tuple]:
    """``(P, T(1-D), T(2-D), 2-D gain)`` per processor count: the 1-D graph
    under the cyclic column mapping against the 2-D block graph on the
    most-square grid, on one simulator and one machine model."""
    graph_2d = build_2d_graph(bp)
    out = []
    for p in procs:
        machine = MachineModel(n_procs=p)
        t1 = simulate_schedule(
            graph_1d, bp, machine, cyclic_mapping(bp.n_blocks, p)
        ).makespan
        t2 = simulate_schedule(
            graph_2d, bp, machine, GridMapping.for_workers(p)
        ).makespan
        out.append((p, t1, t2, 1.0 - t2 / t1))
    return out


def two_d_rows(config: BenchConfig) -> list[tuple]:
    rows = []
    for name in ("sherman3", "sherman5", "goodwin"):
        plan = analyzed_matrix(name, config.scale)
        for p, t1, t2, gain in simulate_1d_vs_2d(plan.bp, plan.graph):
            rows.append((name, p, t1, t2, f"{100 * gain:+.1f}%"))
    return rows


def format_two_d(rows: list[tuple]) -> str:
    return format_table(
        ["Matrix", "P", "T(1D)", "T(2D)", "2D gain"],
        rows,
        title="1-D vs 2-D partitioning: simulated crossover (measured runs below)",
        floatfmt=".4f",
    )


def solve_phase_rows(config: BenchConfig) -> list[tuple]:
    rows = []
    for name in config.matrices[:4]:
        plan = analyzed_matrix(name, config.scale)
        graph = build_solve_graph(plan.bp)
        times = []
        for p in config.procs:
            res = simulate_schedule(
                graph,
                plan.bp,
                MachineModel(n_procs=p),
                cyclic_mapping(plan.bp.n_blocks, p),
            )
            times.append(res.makespan)
        rows.append((name, *times, times[0] / times[-1]))
    return rows


def format_solve_phase(rows: list[tuple], procs: tuple[int, ...]) -> str:
    headers = ["Matrix"] + [f"P={p}" for p in procs] + ["speedup"]
    return format_table(
        headers,
        rows,
        title="Triangular-solve phase, simulated (1-D mapping)",
        floatfmt=".5f",
    )


def btf_rows(config: BenchConfig) -> list[tuple]:
    """Classical SCC block triangular form vs the eforest decomposition."""
    from repro.ordering.btf import block_triangular_permutation
    from repro.ordering.transversal import zero_free_diagonal_permutation
    from repro.sparse.ops import permute

    rows = []
    for name in config.matrices:
        a = paper_matrix(name, scale=config.scale)
        a0 = permute(a, row_perm=zero_free_diagonal_permutation(a))
        _, classical = block_triangular_permutation(a0)
        plan = analyzed_matrix(name, config.scale)
        st = plan.stats()
        biggest = max(e - s for s, e in classical)
        rows.append(
            (name, st.n, len(classical), biggest, st.n_btf_blocks)
        )
    return rows


def format_btf(rows: list[tuple]) -> str:
    return format_table(
        ["Matrix", "n", "SCC blocks (A)", "largest SCC", "eforest trees (Abar)"],
        rows,
        title="Classical BTF (Tarjan SCCs of A) vs eforest decomposition of Abar",
    )


def dynamic_rows(config: BenchConfig) -> list[tuple]:
    from repro.parallel.dynamic import DynamicRuntime
    from repro.taskgraph.eforest_graph import build_eforest_graph
    from repro.util.timer import Timer

    rows = []
    for name in ("sherman3", "orsreg1"):
        plan, a_work = _analyzed_values(name, config.scale)
        with Timer() as t_static:
            graph = build_eforest_graph(plan.bp)
            eng_s = LUFactorization(a_work, plan.bp)
            eng_s.run_order(graph.topological_order())
        with Timer() as t_dynamic:
            eng_d = LUFactorization(a_work, plan.bp)
            DynamicRuntime(plan.bp).run(eng_d)
        same = bool(
            np.allclose(
                eng_s.extract().l_factor.to_dense(),
                eng_d.extract().l_factor.to_dense(),
            )
        )
        rows.append(
            (name, graph.n_tasks, graph.n_edges, t_static.elapsed, t_dynamic.elapsed, same)
        )
    return rows


def format_dynamic(rows: list[tuple]) -> str:
    return format_table(
        ["Matrix", "tasks", "edges (static only)", "t static", "t dynamic", "same factors"],
        rows,
        title="Future work: static edge lists vs dynamic (lazy) runtime",
        floatfmt=".3f",
    )

"""Ablation: fill-reducing ordering (the paper fixes minimum degree on AᵀA).

Compares exact minimum degree, AMD, RCM, nested dissection, and the
natural order on static fill, supernode count, and simulated
8-processor factorization time. The emitted artifact carries the rows
as machine-readable data so ``repro tune`` results can be diffed
against the fixed-ordering baselines.

A second test scores the same orderings through the tuner's evaluator
(:func:`repro.tune.evaluate_recipe`: fill, supernodes, FLOPs, predicted
T(P)) and adds what the ablation does not time — each ordering's own
wall clock. AMD's raison d'être is matching exact minimum degree's fill
at a fraction of its ordering cost, so the bench asserts both halves.
"""

import time

from repro.eval.ablations import format_ordering, ordering_comparison
from repro.numeric.solver import SolverOptions
from repro.obs.trace import Tracer
from repro.ordering import ORDERINGS
from repro.sparse.generators import paper_matrix
from repro.tune import evaluate_recipe
from repro.util.tables import format_table

N_PROCS = 8


def test_ablation_ordering(benchmark, bench_config, emit):
    names = bench_config.matrices[:3]

    def run():
        return {n: ordering_comparison(n, config=bench_config) for n in names}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n\n".join(format_ordering(results[n]) for n in names)
    data = {
        "rows": [
            {
                "matrix": p.name,
                "ordering": p.ordering,
                "fill_ratio": p.fill_ratio,
                "n_supernodes": p.n_supernodes,
                "makespan_p8": p.makespan_p8,
            }
            for pts in results.values()
            for p in pts
        ]
    }
    emit("ablation_ordering", text, data=data)
    for name, pts in results.items():
        by = {p.ordering: p for p in pts}
        # The paper's choice should not lose badly to the natural order.
        assert by["mindeg"].fill_ratio <= by["natural"].fill_ratio * 1.25, name
        # AMD is an approximation of exact minimum degree; it must track
        # its fill within the tolerance the tune docs promise.
        assert by["amd"].fill_ratio <= by["mindeg"].fill_ratio * 1.15, name


def run_ordering_benchmark(matrices, scale: float) -> dict:
    """Score every ordering on every matrix (artifact ``data``).

    One :func:`evaluate_recipe` call per (matrix, ordering) at the
    default amalgamation, plus the ordering's own wall time (the
    pipeline's ``ordering`` span).
    """
    rows: list[dict] = []
    agreement = {}
    for name in matrices:
        a = paper_matrix(name, scale=scale)
        by = {}
        for ordering in ORDERINGS:
            tr = Tracer()
            t0 = time.perf_counter()
            score = evaluate_recipe(
                a, SolverOptions(ordering=ordering), n_procs=N_PROCS, tracer=tr
            )
            by[ordering] = {
                "matrix": name,
                "ordering": ordering,
                "n": a.n_cols,
                "fill_ratio": float(score.fill_ratio),
                "n_supernodes": score.n_supernodes,
                "flops": int(score.flops),
                "predicted_time": float(score.predicted_time),
                "ordering_seconds": tr.stage_seconds()["ordering"],
                "pipeline_seconds": time.perf_counter() - t0,
            }
        rows.extend(by.values())
        agreement[name] = by["amd"]["fill_ratio"] / by["mindeg"]["fill_ratio"]
    return {
        "scale": float(scale),
        "n_procs": N_PROCS,
        "matrices": list(matrices),
        "orderings": list(ORDERINGS),
        "rows": rows,
        "amd_over_mindeg_fill": agreement,
    }


def test_ordering_wall_time(bench_config, emit):
    names = bench_config.matrices[:3]
    data = run_ordering_benchmark(names, bench_config.scale)
    text = format_table(
        ["matrix", "ordering", "|Abar|/|A|", "supernodes", "flops",
         f"T(P={N_PROCS})", "ordering s", "pipeline s"],
        [
            (
                r["matrix"],
                r["ordering"],
                round(r["fill_ratio"], 4),
                r["n_supernodes"],
                r["flops"],
                round(r["predicted_time"], 4),
                round(r["ordering_seconds"], 4),
                round(r["pipeline_seconds"], 3),
            )
            for r in data["rows"]
        ],
        title=f"orderings scored and timed @ scale {data['scale']}",
        floatfmt=".4f",
    )
    emit("ordering_bench", text, data=data)
    # Ratios, not absolute times, so the bars hold on any host: the
    # default ordering must take less wall time than exact minimum degree
    # and stay within 15 % of its fill, on every matrix benched.
    for name in names:
        seconds = {
            r["ordering"]: r["ordering_seconds"]
            for r in data["rows"]
            if r["matrix"] == name
        }
        assert seconds["amd"] < seconds["mindeg"], (name, seconds)
        assert data["amd_over_mindeg_fill"][name] <= 1.15, name

"""1-D block-column vs 2-D block ownership: simulated crossover + measured runs.

§6 proposes extending the method to a 2-D partitioning; the simulation-level
model shows the expected crossover — 1-D is competitive at small P (fewer,
coarser tasks and messages), 2-D scales past it as P grows because column
ownership stops serializing each column's updates on one processor. The
same 2-D graph the simulator prices also *executes*, as a sequential replay
(the parallel engines run block steps only), so alongside the simulated
table the artifact records measured wall times of the sequential 1-D block
steps and the sequential 2-D replay, and the ≤1e-12 agreement of the 2-D
factors with the sequential reference. docs/parallel.md carries the verdict:
on this host the measured rows lose, which is why no plan or recipe selects
the 2-D graph and no parallel engine runs it.
"""

import time
from statistics import median_high
from typing import Sequence

import numpy as np
from bench_proc import analyzed, available_cpus, bitwise_equal

from repro.eval.extras import format_two_d, simulate_1d_vs_2d, two_d_rows
from repro.numeric.factor import LUFactorization
from repro.parallel.mapping import GridMapping
from repro.parallel.two_d import build_2d_graph, canonical_2d_order
from repro.util.tables import format_table

REPEATS = 2
#: Worker count behind the artifact's `grid` field: a 2-D placement recorded, not run.
N_WORKERS = 4
#: Processor counts the simulator prices.
SIM_PROCS = (4, 8, 16)


def run_two_d_benchmark(matrices: Sequence[str], scale: float) -> dict:
    """Measured 1-D vs 2-D factorization times, both sequential.

    Per matrix: analyze once, compute the sequential (1-D) reference
    factors and the canonical 2-D replay, verify the 2-D factors agree
    with the reference to 1e-12 (relative to the largest factor entry —
    the two modes sum block updates through differently-shaped GEMM
    calls, so bitwise identity only holds *within* a mode), then run
    ``REPEATS`` timed factorizations of each shape — the 1-D block steps
    and the 2-D canonical replay — asserting every run is bitwise equal
    to its mode's reference. Alongside the measured times the row records
    the α-β simulator's 1-D/2-D prediction at ``SIM_PROCS`` for the same
    two graphs.
    """
    rows = []
    for name in matrices:
        solver = analyzed(name, scale)
        g1 = solver.graph
        g2 = build_2d_graph(solver.bp)
        ref = LUFactorization(solver.a_work, solver.bp)
        ref.factor_sequential()
        ref_res = ref.extract()
        eng2 = LUFactorization(solver.a_work, solver.bp)
        eng2.run_order(canonical_2d_order(g2))
        ref2_res = eng2.extract()
        l1 = ref_res.l_factor.to_dense()
        u1 = ref_res.u_factor.to_dense()
        denom = max(1.0, float(np.max(np.abs(l1))), float(np.max(np.abs(u1))))
        rel_diff = max(
            float(np.max(np.abs(ref2_res.l_factor.to_dense() - l1))),
            float(np.max(np.abs(ref2_res.u_factor.to_dense() - u1))),
        ) / denom
        if rel_diff > 1e-12:
            raise AssertionError(
                f"2-D factors diverged from sequential reference on "
                f"{name}: rel diff {rel_diff:.3e}"
            )
        order_2d = canonical_2d_order(g2)
        t1d: list[float] = []
        t2d: list[float] = []
        runs = (
            (LUFactorization.factor_sequential, ref_res, t1d),
            (lambda e: e.run_order(order_2d), ref2_res, t2d),
        )
        for run, ref_for, times in runs:
            for _ in range(REPEATS):
                e = LUFactorization(solver.a_work, solver.bp)
                t0 = time.perf_counter()
                run(e)
                times.append(time.perf_counter() - t0)
                if not bitwise_equal(e.extract(), ref_for):
                    raise AssertionError(
                        f"sequential factors diverged from the mode "
                        f"reference on {name}"
                    )
        m1, m2 = median_high(t1d), median_high(t2d)
        simulated = [
            {"p": int(p), "t_1d": float(t1), "t_2d": float(t2), "gain_2d": float(gain)}
            for p, t1, t2, gain in simulate_1d_vs_2d(solver.bp, g1, SIM_PROCS)
        ]
        grid = GridMapping.for_workers(N_WORKERS)
        rows.append(
            {
                "matrix": name,
                "scale": scale,
                "n": solver.a.n_cols,
                "n_tasks_1d": g1.n_tasks,
                "n_tasks_2d": g2.n_tasks,
                "grid": [int(grid.pr), int(grid.pc)],
                "rel_diff_vs_1d": rel_diff,
                "measured": {
                    "sequential": {
                        "t_1d_s": m1,
                        "t_2d_s": m2,
                        "ratio_1d_over_2d": m1 / m2 if m2 > 0 else 0.0,
                    }
                },
                "simulated": simulated,
            }
        )
    return {
        "scale": scale,
        "repeats": REPEATS,
        "n_workers": N_WORKERS,
        "cpu_count": available_cpus(),
        "engines": ["sequential"],
        "matrices": rows,
    }


def two_d_summary_rows(data: dict) -> list:
    """``(quantity, value)`` rows for the measured table."""
    out = []
    for row in data["matrices"]:
        for engine, m in row["measured"].items():
            out.append(
                (
                    f"{row['matrix']} ({engine}, n={row['n']})",
                    f"1-D {m['t_1d_s'] * 1e3:.1f} ms / "
                    f"2-D {m['t_2d_s'] * 1e3:.1f} ms = "
                    f"{m['ratio_1d_over_2d']:.2f}x",
                )
            )
        sim16 = next(
            (s for s in row["simulated"] if s["p"] == 16), row["simulated"][-1]
        )
        out.append(
            (
                f"{row['matrix']} simulated P={sim16['p']}",
                f"1-D {sim16['t_1d']:.4f} s / 2-D {sim16['t_2d']:.4f} s "
                f"({100 * sim16['gain_2d']:+.1f}% gain)",
            )
        )
        out.append(
            (
                f"{row['matrix']} 2-D vs sequential",
                f"rel diff {row['rel_diff_vs_1d']:.2e} (<= 1e-12)",
            )
        )
    return out


def test_ablation_2d(benchmark, bench_config, emit):
    rows = benchmark.pedantic(two_d_rows, args=(bench_config,), rounds=1, iterations=1)
    measured = run_two_d_benchmark(
        ("sherman3", "goodwin"), min(0.2, bench_config.scale)
    )
    text = format_two_d(rows)
    text += "\n\n" + format_table(
        ["quantity", "value"],
        two_d_summary_rows(measured),
        title="Measured: sequential 1-D steps vs sequential 2-D replay",
    )
    data = {
        "simulated": [
            {
                "matrix": r[0],
                "p": int(r[1]),
                "t_1d": float(r[2]),
                "t_2d": float(r[3]),
                "gain_2d": r[4],
            }
            for r in rows
        ],
        "measured": measured,
    }
    emit("ablation_2d", text, data=data)

    # The artifact carries the measured (not just simulated) 1-D vs 2-D
    # wall times.
    assert measured["matrices"], "no measured rows recorded"
    for row in measured["matrices"]:
        assert row["rel_diff_vs_1d"] <= 1e-12
        assert row["measured"]["sequential"]["t_1d_s"] > 0
        assert row["measured"]["sequential"]["t_2d_s"] > 0
    # Shape: at P=16 the 2-D graph wins on every matrix.
    p16 = [r for r in rows if r[1] == 16]
    assert all(r[3] < r[2] for r in p16), "2-D did not out-scale 1-D at P=16"

"""Reproduce the paper's parallel story on one matrix (Figures 5/6 in-vivo).

Builds both task dependence graphs over the same supernodal block pattern,
prices them with the flop/communication model, simulates the RAPID-style
schedule for P = 1..8, and finally *really executes* the block steps the
eforest orders with a thread pool to show the parallel factors match the
sequential ones.

Run:  python examples/task_parallelism.py [matrix] [scale]
"""

import sys

import numpy as np

from repro import (
    MachineModel,
    build_plan,
    build_sstar_graph,
    paper_matrix,
    simulate_schedule,
    threaded_factorize,
)
from repro.numeric.factor import LUFactorization
from repro.parallel.mapping import cyclic_mapping
from repro.serve.refactor import permuted_values
from repro.util.tables import format_table


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "sherman3"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.3
    a = paper_matrix(name, scale=scale)
    print(f"{name} analog @ scale {scale}: n={a.n_cols}, nnz={a.nnz}")

    plan = build_plan(a)
    g_new = plan.graph
    g_old = build_sstar_graph(plan.bp)
    print(
        f"task graphs: {g_new.n_tasks} tasks; edges new/old = "
        f"{g_new.n_edges}/{g_old.n_edges}"
    )

    rows = []
    t1 = None
    for p in (1, 2, 4, 8):
        m = MachineModel(n_procs=p)
        owner = cyclic_mapping(plan.bp.n_blocks, p)
        r_new = simulate_schedule(g_new, plan.bp, m, owner)
        r_old = simulate_schedule(g_old, plan.bp, m, owner)
        if t1 is None:
            t1 = r_new.makespan
        rows.append(
            (
                p,
                r_new.makespan,
                r_old.makespan,
                t1 / r_new.makespan,
                100.0 * (1.0 - r_new.makespan / r_old.makespan),
                r_new.n_messages,
            )
        )
    print(
        format_table(
            ["P", "T(eforest)", "T(S*)", "speedup", "gain %", "messages"],
            rows,
            title="simulated factorization (machine model)",
            floatfmt=".4f",
        )
    )

    # When each task starts in the simulated 4-processor schedule.
    m4 = MachineModel(n_procs=4)
    owner4 = cyclic_mapping(plan.bp.n_blocks, 4)
    trace = simulate_schedule(g_new, plan.bp, m4, owner4, record_trace=True)
    first = sorted(trace.start_times.items(), key=lambda kv: kv[1])[:12]
    print()
    print(
        format_table(
            ["task", "processor", "start"],
            [(str(t), owner4[t.target], start) for t, start in first],
            title="eforest schedule on 4 processors (first tasks to start)",
            floatfmt=".5f",
        )
    )

    # Real threaded execution: block steps released over the block eforest.
    a_work, _ = permuted_values(plan, a)
    ref = LUFactorization(a_work, plan.bp)
    ref.factor_sequential()
    eng = LUFactorization(a_work, plan.bp)
    threaded_factorize(eng, n_threads=4)
    same = np.allclose(
        eng.extract().l_factor.to_dense(), ref.extract().l_factor.to_dense()
    )
    print(f"\nthreaded execution matches sequential factors: {same}")
    ls = eng.lazy_stats
    print(
        f"LazyS+ shortcut: {ls.n_updates_skipped} zero updates skipped "
        f"({100 * ls.saved_fraction:.0f}% of update flops)"
    )


if __name__ == "__main__":
    main()

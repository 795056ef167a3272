"""Demonstrate the paper's §6 future-work directions, implemented here.

1. **2-D partitioning** — block (not block-column) ownership on a processor
   grid; the simulation shows 1-D competitive at small P and 2-D taking over
   as P grows.
2. **Dynamic task-graph construction** — a lazy runtime that never stores
   dependence edges, deriving successors on task completion from the block
   eforest; its executed relation equals the static Theorem-4 graph.
3. **Solve-phase parallelism** — the eforest also schedules the triangular
   solves (step (4)); independent subtrees solve concurrently.

Run:  python examples/future_work.py
"""

import numpy as np

from repro import (
    DynamicRuntime,
    LUFactorization,
    MachineModel,
    build_plan,
    paper_matrix,
    simulate_schedule,
)
from repro.parallel import GridMapping, build_2d_graph, cyclic_mapping
from repro.serve.refactor import permuted_values
from repro.taskgraph.solve_graph import build_solve_graph
from repro.util.tables import format_table


def main() -> None:
    a = paper_matrix("sherman3", scale=0.25)
    plan = build_plan(a)
    a_work, _ = permuted_values(plan, a)
    print(f"sherman3 analog: n={a.n_cols}, {plan.bp.n_blocks} block columns\n")

    # --- 1. 2-D partitioning -------------------------------------------
    # One simulator; the graph shape and the mapping are its arguments.
    bp, n_blocks = plan.bp, plan.bp.n_blocks
    graph_2d = build_2d_graph(bp)
    rows = []
    for p in (4, 8, 16):
        m = MachineModel(n_procs=p)
        t1 = simulate_schedule(plan.graph, bp, m, cyclic_mapping(n_blocks, p)).makespan
        t2 = simulate_schedule(graph_2d, bp, m, GridMapping.for_workers(p)).makespan
        rows.append((p, t1, t2, f"{100 * (1 - t2 / t1):+.1f}%"))
    print(
        format_table(
            ["P", "T(1-D)", "T(2-D)", "2-D gain"],
            rows,
            title="future work 1: 1-D vs 2-D partitioning (simulated)",
            floatfmt=".4f",
        )
    )

    # --- 2. dynamic runtime --------------------------------------------
    runtime = DynamicRuntime(bp)
    eng_dyn = LUFactorization(a_work, bp)
    order = runtime.run(eng_dyn)
    eng_ref = LUFactorization(a_work, bp)
    eng_ref.factor_sequential()
    same = np.allclose(
        eng_dyn.extract().l_factor.to_dense(),
        eng_ref.extract().l_factor.to_dense(),
    )
    print(
        f"\nfuture work 2: dynamic runtime executed {len(order)} tasks with "
        f"O(tasks) state (no stored edges); factors match static: {same}"
    )

    # --- 3. solve-phase parallelism -------------------------------------
    solve_graph = build_solve_graph(bp)
    rows = []
    base = None
    for p in (1, 2, 4, 8):
        res = simulate_schedule(
            solve_graph, bp, MachineModel(n_procs=p), cyclic_mapping(n_blocks, p)
        )
        if base is None:
            base = res.makespan
        rows.append((p, res.makespan, base / res.makespan))
    print(
        "\n"
        + format_table(
            ["P", "solve makespan", "speedup"],
            rows,
            title="future work 3: triangular-solve phase (simulated)",
            floatfmt=".5f",
        )
    )


if __name__ == "__main__":
    main()

"""Distributed-memory factorization with explicit message passing.

The paper's S*/S+ setting, executed for real: each virtual process
materializes only its own block columns; ``Factor(k)`` broadcasts its
factored panel to the processes that need it; ``Update(k,j)`` consumes the
received copy. The gathered factors must match the shared-memory sequential
run, and the observed message traffic can be checked against the machine
model's prediction.

Run:  python examples/distributed_factorization.py
"""

import numpy as np

from repro import MachineModel, build_plan, paper_matrix, simulate_schedule
from repro.numeric.factor import LUFactorization
from repro.numeric.memory import memory_report
from repro.parallel.mapping import cyclic_mapping
from repro.parallel.message_passing import message_passing_factorize
from repro.serve.refactor import permuted_values
from repro.util.tables import format_table


def main() -> None:
    a = paper_matrix("saylr4", scale=0.25)
    plan = build_plan(a)
    a_work, _ = permuted_values(plan, a)
    print(f"saylr4 analog: n={a.n_cols}, {plan.bp.n_blocks} block columns")
    mem = memory_report(plan.fill, plan.bp)
    print(
        format_table(
            ["quantity", "value"], mem.summary_rows(), title="memory report"
        )
    )

    ref = LUFactorization(a_work, plan.bp)
    ref.factor_sequential()
    ref_l = ref.extract().l_factor.to_dense()

    rows = []
    for p in (1, 2, 4):
        owner = cyclic_mapping(plan.bp.n_blocks, p)
        mp = message_passing_factorize(a_work, plan.bp, plan.graph, owner)
        same = bool(np.allclose(mp.result.l_factor.to_dense(), ref_l))
        sim = simulate_schedule(plan.graph, plan.bp, MachineModel(n_procs=p), owner)
        rows.append(
            (
                p,
                mp.n_messages,
                sim.n_messages,
                round(mp.bytes_moved / 1e6, 2),
                mp.per_rank_tasks,
                same,
            )
        )
    print()
    print(
        format_table(
            ["P", "messages (real)", "messages (model)", "MB moved", "tasks/rank", "factors match"],
            rows,
            title="message-passing execution vs machine-model prediction",
        )
    )


if __name__ == "__main__":
    main()

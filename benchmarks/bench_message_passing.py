"""Cross-validate the machine model against real message-passing execution.

The event simulator *predicts* one panel message per (source column,
destination processor); the message-passing executor *counts* what it
actually sent. They must agree exactly — and the distributed factors must
equal the sequential ones. This pins the Table 2 / Figure 5-6 cost model to
executable ground truth.
"""

import numpy as np

from repro.eval.pipeline import analyzed_matrix
from repro.numeric.factor import LUFactorization
from repro.parallel.machine import MachineModel
from repro.parallel.mapping import cyclic_mapping
from repro.parallel.message_passing import message_passing_factorize
from repro.parallel.simulate import simulate_schedule
from repro.serve.refactor import permuted_values
from repro.sparse.generators import paper_matrix
from repro.util.tables import format_table


def run(config):
    rows = []
    for name in ("orsreg1", "sherman5"):
        scale = config.scale * 0.7
        plan = analyzed_matrix(name, scale)
        a_work = permuted_values(plan, paper_matrix(name, scale=scale))[0]
        ref = LUFactorization(a_work, plan.bp)
        ref.factor_sequential()
        ref_l = ref.extract().l_factor.to_dense()
        for p in (2, 4):
            owner = cyclic_mapping(plan.bp.n_blocks, p)
            mp = message_passing_factorize(a_work, plan.bp, plan.graph, owner)
            sim = simulate_schedule(
                plan.graph, plan.bp, MachineModel(n_procs=p), owner
            )
            same = bool(np.allclose(mp.result.l_factor.to_dense(), ref_l))
            rows.append(
                (name, p, mp.n_messages, sim.n_messages, mp.bytes_moved, same)
            )
    return rows


def test_message_passing_validates_model(benchmark, bench_config, emit):
    rows = benchmark.pedantic(run, args=(bench_config,), rounds=1, iterations=1)
    emit(
        "message_passing",
        format_table(
            ["Matrix", "P", "msgs real", "msgs model", "bytes moved", "factors match"],
            rows,
            title="Machine model vs real message-passing execution",
        ),
    )
    for r in rows:
        assert r[2] == r[3], f"message count mismatch on {r[0]} P={r[1]}"
        assert r[5], f"distributed factors diverged on {r[0]} P={r[1]}"

"""Ablation: sweep the amalgamation bounds (§3 design choice).

Larger tolerances merge more supernodes — fewer, bigger BLAS-3 blocks at the
cost of padded zeros and extra arithmetic. The sweep exposes the trade-off
the paper resolves by "applying amalgamation to further increase the
supernode size".

Two views of it, side by side in one artifact:

* the *simulated* padding sweep of :mod:`repro.eval.ablations` (``mindeg``,
  T(P=8) on the Origin-2000 model) — a paper-side table, unchanged;
* a *measured* ``(max_padding, max_supernode)`` grid under the default
  ordering on this host: median seconds of one sequential
  ``refactorize_with_plan``, the bytes its factors hold, and the simulated
  T(P=8) of the same plan next to them.

The simulated column favours little padding; wall-clock favours fat
panels. ``SolverOptions``' defaults follow the measured column under a
memory constraint (docs/api.md); :mod:`repro.eval` pins the paper-era pair.
"""

import gc
import statistics
import time
import tracemalloc

import numpy as np

from repro.eval.ablations import (
    amalgamation_policy_comparison,
    amalgamation_sweep,
    format_amalgamation,
    format_policy,
)
from repro.eval.pipeline import PAPER_AMALGAMATION
from repro.numeric.solver import (
    DEFAULT_MAX_PADDING,
    DEFAULT_MAX_SUPERNODE,
    SolverOptions,
)
from repro.parallel.machine import ORIGIN2000
from repro.parallel.mapping import cyclic_mapping
from repro.parallel.simulate import simulate_schedule
from repro.serve import build_plan, refactorize_with_plan
from repro.sparse.generators import paper_matrix
from repro.taskgraph.tasks import count_tasks
from repro.util.tables import format_table

MATRIX = "sherman3"
PADDINGS = (0.25, 0.4, 0.5, 0.6, 0.7)
MAX_SUPERNODES = (32, 48, 64)
#: Timed factorizations per cell, taken round-robin over the cells so a
#: slow minute of the host lands on every cell alike.
ROUNDS = 7


def held_bytes(plan, a) -> int:
    """Bytes one warm factorization keeps alive (``tracemalloc``)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fact = refactorize_with_plan(plan, a)
        fact.solve(np.ones(a.n_cols))
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def measured_grid(scale: float) -> list[dict]:
    """One row per ``(max_padding, max_supernode)`` cell."""
    a = paper_matrix(MATRIX, scale=scale)
    cells = {(PAPER_AMALGAMATION["max_padding"], PAPER_AMALGAMATION["max_supernode"])}
    cells |= {(DEFAULT_MAX_PADDING, DEFAULT_MAX_SUPERNODE)}
    cells |= {(pad, mx) for pad in PADDINGS for mx in MAX_SUPERNODES}
    plans = {
        cell: build_plan(a, SolverOptions(max_padding=cell[0], max_supernode=cell[1]))
        for cell in sorted(cells)
    }
    rng = np.random.default_rng(0)
    seconds: dict = {cell: [] for cell in plans}
    for plan in plans.values():  # untimed: first touches, lazy imports
        refactorize_with_plan(plan, a)
    for _ in range(ROUNDS):
        for cell, plan in plans.items():
            values = a.with_values(a.data * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, a.nnz)))
            t0 = time.perf_counter()
            refactorize_with_plan(plan, values)
            seconds[cell].append(time.perf_counter() - t0)
    machine = ORIGIN2000.with_procs(8)
    rows = []
    for cell, plan in plans.items():
        layout = plan.layout
        sim = simulate_schedule(
            plan.graph, plan.bp, machine, cyclic_mapping(plan.bp.n_blocks, 8)
        )
        rows.append(
            {
                "max_padding": cell[0],
                "max_supernode": cell[1],
                "n_supernodes": plan.bp.n_blocks,
                "n_tasks": count_tasks(plan.bp),
                "refactorize_s": statistics.median(seconds[cell]),
                "panel_bytes": 8 * int((layout.widths * layout.panel_heights).sum()),
                "held_bytes": held_bytes(plan, a),
                "simulated_t8_s": sim.makespan,
            }
        )
    return rows


def format_measured(rows: list[dict], scale: float) -> str:
    default = (DEFAULT_MAX_PADDING, DEFAULT_MAX_SUPERNODE)
    paper = (PAPER_AMALGAMATION["max_padding"], PAPER_AMALGAMATION["max_supernode"])

    def mark(row):
        cell = (row["max_padding"], row["max_supernode"])
        return "default" if cell == default else "paper" if cell == paper else ""

    table = format_table(
        ["max_padding", "max_supernode", "supernodes", "tasks", "refactorize s",
         "panel MB", "held MB", "sim T(P=8)", "role"],
        [
            (r["max_padding"], r["max_supernode"], r["n_supernodes"], r["n_tasks"],
             r["refactorize_s"], r["panel_bytes"] / 1e6, r["held_bytes"] / 1e6,
             r["simulated_t8_s"], mark(r))
            for r in rows
        ],
        title=(
            f"Measured on this host - {MATRIX} @ {scale:g}, default ordering, "
            f"sequential refactorize_with_plan (median of {ROUNDS})"
        ),
        floatfmt=".4f",
    )
    fastest = min(rows, key=lambda r: r["refactorize_s"])
    best_sim = min(rows, key=lambda r: r["simulated_t8_s"])
    return "\n".join(
        [
            table,
            f"measured seconds are lowest at {fastest['max_padding']:g} / "
            f"{fastest['max_supernode']}, simulated T(P=8) at "
            f"{best_sim['max_padding']:g} / {best_sim['max_supernode']}.",
            f"The defaults ({default[0]:g} / {default[1]}) follow the measured column, "
            "stopping where padding starts to raise a cold request's peak "
            "memory (docs/api.md); repro.eval pins the paper-era pair "
            f"({paper[0]:g} / {paper[1]}).",
        ]
    )


def test_ablation_amalgamation(benchmark, bench_config, emit):
    points = benchmark.pedantic(
        amalgamation_sweep, args=(MATRIX,), kwargs=dict(config=bench_config),
        rounds=1, iterations=1,
    )
    rows = measured_grid(bench_config.scale)
    emit(
        "ablation_amalgamation",
        format_amalgamation(points, MATRIX)
        + "\n\n"
        + format_measured(rows, bench_config.scale),
        data={
            "matrix": MATRIX,
            "scale": bench_config.scale,
            "simulated": [
                {
                    "max_padding": p.max_padding,
                    "n_supernodes": p.n_supernodes,
                    "mean_size": p.mean_size,
                    "stored_block_entries": p.stored_block_entries,
                    "makespan_p8": p.makespan_p8,
                }
                for p in points
            ],
            "measured": rows,
            "default": {
                "max_padding": DEFAULT_MAX_PADDING,
                "max_supernode": DEFAULT_MAX_SUPERNODE,
            },
        },
    )
    # More tolerance => never more supernodes, never smaller mean size.
    for a, b in zip(points, points[1:]):
        assert b.n_supernodes <= a.n_supernodes
        assert b.mean_size >= a.mean_size - 1e-9
        assert b.stored_block_entries >= a.stored_block_entries
    by_cell = {(r["max_padding"], r["max_supernode"]): r for r in rows}
    for mx in MAX_SUPERNODES:
        column = [by_cell[(pad, mx)] for pad in PADDINGS]
        for a, b in zip(column, column[1:]):
            assert b["n_supernodes"] <= a["n_supernodes"]
            assert b["panel_bytes"] >= a["panel_bytes"]
    # One copy of the factors: what a factorization holds is its panel
    # buffer plus inverses and indices, nowhere near a second buffer at
    # any cell (narrow blocks pay the most per-block overhead) and within
    # 1.3x at the default bounds from the size the defaults were taken at.
    for r in rows:
        assert r["held_bytes"] < 1.6 * r["panel_bytes"] + 2**20
    if bench_config.scale >= 0.35:
        default = by_cell[(DEFAULT_MAX_PADDING, DEFAULT_MAX_SUPERNODE)]
        assert default["held_bytes"] < 1.3 * default["panel_bytes"]


def test_ablation_amalgamation_policy(benchmark, bench_config, emit):
    points = benchmark.pedantic(
        amalgamation_policy_comparison,
        args=(MATRIX,),
        kwargs=dict(config=bench_config),
        rounds=1,
        iterations=1,
    )
    emit("ablation_amalgamation_policy", format_policy(points, MATRIX))
    by = {p.policy: p for p in points}
    # Chains is the restricted variant: at least as many supernodes and at
    # most as much padding as unrestricted greedy.
    assert by["chains"].n_supernodes >= by["greedy"].n_supernodes
    assert by["chains"].padding_entries <= by["greedy"].padding_entries
    assert by["none"].padding_entries == 0

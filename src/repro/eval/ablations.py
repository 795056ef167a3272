"""Ablation studies for the design choices DESIGN.md calls out.

Not part of the paper's tables, but each probes a knob the paper fixes:

* **Amalgamation tolerance** — §3 amalgamates supernodes "to further
  increase the supernode size"; the sweep shows the block-count /
  padded-zeros / simulated-time trade-off.
* **Fill-reducing ordering** — the paper fixes minimum degree on ``AᵀA``;
  we compare against RCM and the natural order.
* **1-D mapping policy** — RAPID owns the assignment in the paper; we
  compare cyclic, blocked, and greedy owner maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.config import BenchConfig
from repro.eval.pipeline import analyzed_matrix
from repro.ordering import ORDERINGS
from repro.parallel.machine import MachineModel, ORIGIN2000
from repro.parallel.mapping import make_mapping
from repro.parallel.simulate import simulate_schedule
from repro.symbolic.supernodes import amalgamate, block_pattern, supernode_partition
from repro.taskgraph.eforest_graph import build_eforest_graph
from repro.util.tables import format_table


@dataclass(frozen=True)
class AmalgamationPoint:
    max_padding: float
    n_supernodes: int
    mean_size: float
    stored_block_entries: int
    makespan_p8: float


def amalgamation_sweep(
    name: str,
    paddings: tuple[float, ...] = (0.0, 0.1, 0.25, 0.4, 0.6),
    config: BenchConfig | None = None,
    machine: MachineModel = ORIGIN2000,
) -> list[AmalgamationPoint]:
    """Sweep the amalgamation padding tolerance on one matrix."""
    config = config or BenchConfig()
    base = analyzed_matrix(name, config.scale)
    raw = supernode_partition(base.fill)
    points = []
    for tol in paddings:
        if tol == 0.0:
            part = raw
        else:
            part = amalgamate(base.fill, raw, max_padding=tol)
        bp = block_pattern(base.fill, part)
        graph = build_eforest_graph(bp)
        m = machine.with_procs(8)
        owner = make_mapping("cyclic", bp, 8)
        res = simulate_schedule(graph, bp, m, owner)
        starts = part.starts
        widths = np.diff(starts)
        stored = 0
        for k in range(bp.n_blocks):
            blocks = bp.col_blocks(k)
            stored += int(np.sum(widths[blocks]) * widths[k])
        points.append(
            AmalgamationPoint(
                max_padding=tol,
                n_supernodes=part.n_supernodes,
                mean_size=part.mean_size(),
                stored_block_entries=stored,
                makespan_p8=res.makespan,
            )
        )
    return points


def format_amalgamation(points: list[AmalgamationPoint], name: str) -> str:
    return format_table(
        ["max_padding", "supernodes", "mean size", "stored entries", "T(P=8)"],
        [
            (p.max_padding, p.n_supernodes, p.mean_size, p.stored_block_entries, p.makespan_p8)
            for p in points
        ],
        title=f"Ablation - amalgamation tolerance on {name}",
        floatfmt=".4f",
    )


@dataclass(frozen=True)
class PolicyPoint:
    policy: str
    n_supernodes: int
    padding_entries: int
    makespan_p8: float


def amalgamation_policy_comparison(
    name: str,
    config: BenchConfig | None = None,
    machine: MachineModel = ORIGIN2000,
) -> list[PolicyPoint]:
    """Greedy adjacent vs eforest-chain amalgamation on one matrix."""
    from repro.symbolic.supernodes import (
        _padding_cost,
        amalgamate_chains,
        supernode_partition,
    )

    config = config or BenchConfig()
    base = analyzed_matrix(name, config.scale)
    raw = supernode_partition(base.fill)
    variants = {
        "none": raw,
        "greedy": amalgamate(base.fill, raw),
        "chains": amalgamate_chains(base.fill, raw),
    }
    points = []
    for policy, part in variants.items():
        bp = block_pattern(base.fill, part)
        graph = build_eforest_graph(bp)
        res = simulate_schedule(
            graph, bp, machine.with_procs(8), make_mapping("cyclic", bp, 8)
        )
        padding = 0
        for s in range(part.n_supernodes):
            lo, hi = part.span(s)
            _, pad = _padding_cost(base.fill, lo, hi)
            padding += pad
        points.append(
            PolicyPoint(
                policy=policy,
                n_supernodes=part.n_supernodes,
                padding_entries=padding,
                makespan_p8=res.makespan,
            )
        )
    return points


def format_policy(points: list[PolicyPoint], name: str) -> str:
    return format_table(
        ["policy", "supernodes", "padding entries", "T(P=8)"],
        [
            (p.policy, p.n_supernodes, p.padding_entries, p.makespan_p8)
            for p in points
        ],
        title=f"Ablation - amalgamation policy on {name}",
        floatfmt=".4f",
    )


@dataclass(frozen=True)
class OrderingPoint:
    name: str
    ordering: str
    fill_ratio: float
    n_supernodes: int
    makespan_p8: float


def ordering_comparison(
    name: str,
    config: BenchConfig | None = None,
    machine: MachineModel = ORIGIN2000,
) -> list[OrderingPoint]:
    """Compare every ordering of :data:`repro.ordering.ORDERINGS` on one
    matrix."""
    config = config or BenchConfig()
    points = []
    for ordering in ORDERINGS:
        plan = analyzed_matrix(name, config.scale, ordering=ordering)
        st = plan.stats()
        m = machine.with_procs(8)
        owner = make_mapping("cyclic", plan.bp, 8)
        res = simulate_schedule(plan.graph, plan.bp, m, owner)
        points.append(
            OrderingPoint(
                name=name,
                ordering=ordering,
                fill_ratio=st.fill_ratio,
                n_supernodes=st.n_supernodes,
                makespan_p8=res.makespan,
            )
        )
    return points


def format_ordering(points: list[OrderingPoint]) -> str:
    return format_table(
        ["Matrix", "ordering", "|Abar|/|A|", "supernodes", "T(P=8)"],
        [
            (p.name, p.ordering, p.fill_ratio, p.n_supernodes, p.makespan_p8)
            for p in points
        ],
        title="Ablation - fill-reducing ordering",
        floatfmt=".4f",
    )


@dataclass(frozen=True)
class MappingPoint:
    name: str
    policy: str
    makespan_p8: float
    efficiency: float
    comm_bytes: int


def mapping_comparison(
    name: str,
    policies: tuple[str, ...] = ("cyclic", "blocked", "greedy"),
    config: BenchConfig | None = None,
    machine: MachineModel = ORIGIN2000,
) -> list[MappingPoint]:
    """Compare 1-D owner-assignment policies on one matrix."""
    config = config or BenchConfig()
    plan = analyzed_matrix(name, config.scale)
    points = []
    for policy in policies:
        m = machine.with_procs(8)
        owner = make_mapping(policy, plan.bp, 8)
        res = simulate_schedule(plan.graph, plan.bp, m, owner)
        points.append(
            MappingPoint(
                name=name,
                policy=policy,
                makespan_p8=res.makespan,
                efficiency=res.efficiency,
                comm_bytes=res.comm_bytes,
            )
        )
    return points


def format_mapping(points: list[MappingPoint]) -> str:
    return format_table(
        ["Matrix", "policy", "T(P=8)", "efficiency", "comm bytes"],
        [
            (p.name, p.policy, p.makespan_p8, p.efficiency, p.comm_bytes)
            for p in points
        ],
        title="Ablation - 1-D block-column mapping policy",
        floatfmt=".4f",
    )

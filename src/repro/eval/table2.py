"""Table 2 — numerical-factorization time vs processor count.

The paper reports wall-clock seconds of its implementation on the Origin
2000 for P = 1, 2, 4, 8, scaling "well up to 8 processors" with speedups
from 2.3 to 4.4. We regenerate the table by simulating the eforest task
graph under the RAPID-style scheduler on the calibrated machine model; the
quantity to compare is the *speedup shape*, not the absolute seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.config import BenchConfig
from repro.eval.pipeline import analyzed_matrix
from repro.parallel.machine import MachineModel, ORIGIN2000
from repro.parallel.mapping import make_mapping
from repro.parallel.simulate import simulate_schedule
from repro.util.tables import format_table


@dataclass(frozen=True)
class Table2Row:
    name: str
    times: tuple[float, ...]  # seconds per processor count
    procs: tuple[int, ...]

    @property
    def speedups(self) -> tuple[float, ...]:
        return tuple(self.times[0] / t for t in self.times)


def table2_rows(
    config: BenchConfig | None = None,
    machine: MachineModel = ORIGIN2000,
    *,
    mapping_policy: str = "cyclic",
) -> list[Table2Row]:
    config = config or BenchConfig()
    rows = []
    for name in config.matrices:
        plan = analyzed_matrix(name, config.scale)
        times = []
        for p in config.procs:
            m = machine.with_procs(p)
            owner = make_mapping(mapping_policy, plan.bp, p)
            res = simulate_schedule(plan.graph, plan.bp, m, owner)
            times.append(res.makespan)
        rows.append(Table2Row(name=name, times=tuple(times), procs=config.procs))
    return rows


def format_table2(rows: list[Table2Row], *, scale: float) -> str:
    procs = rows[0].procs if rows else ()
    headers = ["Matrix"] + [f"P={p}" for p in procs] + [f"SP(P={procs[-1] if procs else '?'})"]
    body = []
    for r in rows:
        body.append([r.name, *r.times, r.speedups[-1]])
    return format_table(
        headers,
        body,
        title=(
            "Table 2 - simulated factorization time in seconds "
            f"(machine model, scale={scale}); paper speedups at P=8: 2.3-4.4"
        ),
        floatfmt=".4f",
    )

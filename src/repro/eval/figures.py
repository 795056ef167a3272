"""Figures 5 and 6 — performance gain of the new task dependence graph.

The paper plots ``1 − PT(new_method)/PT(old_method)`` against the processor
count: the relative time saved by scheduling the eforest-guided graph (§4)
instead of the S* graph, everything else equal. Gains of roughly 4-13% that
grow with P are reported. We regenerate the series with the machine
simulator, running *both* graphs through the identical scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.config import BenchConfig, FIG5_MATRICES, FIG6_MATRICES
from repro.eval.pipeline import analyzed_matrix, both_graphs
from repro.parallel.machine import MachineModel, ORIGIN2000
from repro.parallel.mapping import make_mapping
from repro.parallel.simulate import simulate_schedule
from repro.util.tables import format_table


@dataclass(frozen=True)
class ImprovementSeries:
    name: str
    procs: tuple[int, ...]
    t_new: tuple[float, ...]
    t_old: tuple[float, ...]

    @property
    def improvement(self) -> tuple[float, ...]:
        """``1 − T_new/T_old`` per processor count (the plotted quantity)."""
        return tuple(1.0 - tn / to for tn, to in zip(self.t_new, self.t_old))


def taskgraph_improvement_series(
    matrices: tuple[str, ...],
    config: BenchConfig | None = None,
    machine: MachineModel = ORIGIN2000,
    *,
    mapping_policy: str = "cyclic",
) -> list[ImprovementSeries]:
    config = config or BenchConfig()
    series = []
    for name in matrices:
        plan = analyzed_matrix(name, config.scale)
        g_new, g_old = both_graphs(plan)
        t_new, t_old = [], []
        for p in config.procs:
            m = machine.with_procs(p)
            owner = make_mapping(mapping_policy, plan.bp, p)
            t_new.append(simulate_schedule(g_new, plan.bp, m, owner).makespan)
            t_old.append(simulate_schedule(g_old, plan.bp, m, owner).makespan)
        series.append(
            ImprovementSeries(
                name=name,
                procs=config.procs,
                t_new=tuple(t_new),
                t_old=tuple(t_old),
            )
        )
    return series


def figure5_series(config: BenchConfig | None = None, **kw) -> list[ImprovementSeries]:
    return taskgraph_improvement_series(FIG5_MATRICES, config, **kw)


def figure6_series(config: BenchConfig | None = None, **kw) -> list[ImprovementSeries]:
    return taskgraph_improvement_series(FIG6_MATRICES, config, **kw)


def format_figure56(
    series: list[ImprovementSeries], *, figure: int, scale: float
) -> str:
    from repro.util.asciiplot import line_chart

    procs = series[0].procs if series else ()
    headers = ["Matrix"] + [f"P={p}" for p in procs]
    body = [
        [s.name, *(f"{100 * v:+.1f}%" for v in s.improvement)] for s in series
    ]
    table = format_table(
        headers,
        body,
        title=(
            f"Figure {figure} - task-graph improvement 1 - T(new)/T(old) "
            f"(scale={scale}); paper reports ~4-13% growing with P"
        ),
    )
    chart = line_chart(
        list(procs),
        {s.name: list(s.improvement) for s in series},
        title=f"Figure {figure} (plotted)",
    )
    return table + "\n\n" + chart

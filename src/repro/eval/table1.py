"""Table 1 — benchmark matrices: order, |A|, and the static fill ratio.

Paper columns: Matrix Name | Order | Nonzeros |A| | |Ā|/|A|. Our rows show
the synthetic analog's numbers next to the published order/nnz so the
structural match is visible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.config import BenchConfig
from repro.eval.pipeline import analyzed_matrix
from repro.sparse.generators import PAPER_MATRICES
from repro.util.tables import format_table


@dataclass(frozen=True)
class Table1Row:
    name: str
    domain: str
    order: int
    nnz: int
    fill_ratio: float
    paper_order: int
    paper_nnz: int


def table1_rows(config: BenchConfig | None = None) -> list[Table1Row]:
    config = config or BenchConfig()
    rows = []
    for name in config.matrices:
        plan = analyzed_matrix(name, config.scale)
        spec = PAPER_MATRICES[name]
        st = plan.stats()
        rows.append(
            Table1Row(
                name=name,
                domain=spec.domain,
                order=st.n,
                nnz=st.nnz,
                fill_ratio=st.fill_ratio,
                paper_order=spec.paper_order,
                paper_nnz=spec.paper_nnz,
            )
        )
    return rows


def format_table1(rows: list[Table1Row], *, scale: float) -> str:
    return format_table(
        ["Matrix", "Domain", "Order", "|A|", "|Abar|/|A|", "PaperOrder", "Paper|A|"],
        [
            (r.name, r.domain, r.order, r.nnz, r.fill_ratio, r.paper_order, r.paper_nnz)
            for r in rows
        ],
        title=f"Table 1 - benchmark matrices (synthetic analogs, scale={scale})",
        floatfmt=".2f",
    )

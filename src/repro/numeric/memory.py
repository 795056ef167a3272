"""Memory accounting for the factorization data structures.

Answers the practical question the paper's step (2) raises: static symbolic
factorization trades extra *memory* (the conservative ``Ā`` with padding)
for the ability to pre-plan everything. This module prices that trade:
block-panel bytes, factor nonzeros, the dense equivalent, and the largest
panel message a 1-D distributed run ships.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.symbolic.static_fill import StaticFill
from repro.symbolic.supernodes import BlockPattern

_FLOAT_BYTES = 8


@dataclass(frozen=True)
class MemoryReport:
    """Bytes and entry counts of one analyzed matrix."""

    n: int
    nnz_a: int
    nnz_fill: int  # |Ā|
    panel_entries: int  # entries materialized in block storage (padding in)
    panel_bytes: int
    dense_bytes: int  # n*n*8 for comparison
    largest_panel_bytes: int  # biggest Factor(k) broadcast payload

    @property
    def padding_ratio(self) -> float:
        """Materialized entries over |Ā| — the amalgamation padding cost."""
        return self.panel_entries / max(1, self.nnz_fill)

    def summary_rows(self) -> list[tuple[str, object]]:
        return [
            ("order", self.n),
            ("nnz(A)", self.nnz_a),
            ("nnz(Abar)", self.nnz_fill),
            ("materialized block entries", self.panel_entries),
            ("block storage (MB)", round(self.panel_bytes / 1e6, 3)),
            ("dense equivalent (MB)", round(self.dense_bytes / 1e6, 3)),
            ("padding ratio (entries/|Abar|)", round(self.padding_ratio, 3)),
            ("largest panel message (KB)", round(self.largest_panel_bytes / 1e3, 1)),
        ]


def memory_report(fill: StaticFill, bp: BlockPattern) -> MemoryReport:
    """Price the block storage of ``Ā`` under the partition of ``bp``."""
    widths = np.diff(bp.partition.starts)
    panel_entries = 0
    largest_panel = 0
    for k in range(bp.n_blocks):
        blocks = bp.col_blocks(k)
        height = int(np.sum(widths[blocks]))
        w = int(widths[k])
        panel_entries += height * w
        sub_height = int(np.sum(widths[blocks[blocks >= k]]))
        largest_panel = max(largest_panel, sub_height * w * _FLOAT_BYTES)
    n = fill.n
    return MemoryReport(
        n=n,
        nnz_a=fill.nnz_original,
        nnz_fill=fill.nnz,
        panel_entries=panel_entries,
        panel_bytes=panel_entries * _FLOAT_BYTES,
        dense_bytes=n * n * _FLOAT_BYTES,
        largest_panel_bytes=largest_panel,
    )

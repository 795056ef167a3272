"""Flop and communication cost model: the one place a task is priced.

The machine simulator (Table 2, Figures 5-6, the §6 2-D comparison, the
solve phase) charges each task its classical flop count at the BLAS width
of its source block column, and each cross-processor dependence the bytes
of the datum the source task produced. :class:`CostModel` prices every
task kind the engines run — the 1-D ``F``/``U``, the 2-D
``F``/``SL``/``SU``/``UP`` (:mod:`repro.parallel.two_d`) and the solve
phase's ``FS``/``BS`` — from the block *pattern* alone, so schedules can
be priced without running numerics (the inspector half of the RAPID-style
inspector/executor split).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.numeric.kernels import lu_panel_flops, update_flops
from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.tasks import Task

_FLOAT_BYTES = 8
_INDEX_BYTES = 4


class CostModel:
    """Prices tasks over a block pattern (flops, width, message bytes).

    Tasks are told apart by ``kind``; a 2-D block task (a ``Task2D``) is
    one that names its block row ``i``, which is what separates its ``F``
    (the diagonal block) from the 1-D ``F`` (the whole candidate panel).
    """

    def __init__(self, bp: BlockPattern) -> None:
        self.bp = bp
        self.widths = np.diff(bp.partition.starts)
        # Every stored block (row, col), and per block column the total
        # candidate-panel rows (the widths of its blocks on or below diag).
        self._rows = np.concatenate([*bp.blocks, np.empty(0, np.int64)])
        self._cols = np.repeat(np.arange(bp.n_blocks), [b.size for b in bp.blocks])
        low = self._rows >= self._cols
        self.panel_rows = np.zeros(bp.n_blocks, dtype=np.int64)
        np.add.at(self.panel_rows, self._cols[low], self.widths[self._rows[low]])
        self._solve_flops: dict[str, np.ndarray] | None = None

    def flops(self, task: Any) -> int:
        kind = task.kind
        if kind in ("FS", "BS"):
            return int(self._solve_row_flops()[kind][task.k])
        w = self.widths
        w_k = int(w[task.k])
        if hasattr(task, "i"):  # the §6 block tasks
            if kind == "F":  # the diagonal block alone
                return lu_panel_flops(w_k, w_k)
            if kind == "SL":  # L(i,k) = A(i,k) U_kk^-1
                return int(w[task.i]) * w_k * w_k
            if kind == "SU":  # U(k,j) = L_kk^-1 A(k,j)
                return w_k * w_k * int(w[task.j])
            return 2 * int(w[task.i]) * w_k * int(w[task.j])  # rank-w_k UP
        rows = int(self.panel_rows[task.k])
        if kind == "F":
            return lu_panel_flops(rows, w_k)
        return update_flops(w_k, rows - w_k, int(w[task.j]))

    def step_flops(self) -> np.ndarray:
        """Flops of every block step: ``F(k)`` plus each ``U(k, j)``, whose
        count is linear in the target's width."""
        w, rows = self.widths, self.panel_rows
        up = self._rows < self._cols  # block (k, j) above the diagonal: U(k, j)
        w_targets = np.zeros(self.bp.n_blocks, dtype=np.int64)
        np.add.at(w_targets, self._rows[up], w[self._cols[up]])
        panel = [lu_panel_flops(r, w_k) for r, w_k in zip(rows.tolist(), w.tolist())]
        return np.asarray(panel, dtype=np.int64) + update_flops(w, rows - w, w_targets)

    def _solve_row_flops(self) -> dict[str, np.ndarray]:
        """Per block row ``FS``/``BS`` flops: a triangular solve on the
        diagonal block plus one GEMV per stored off-diagonal block of the
        row (lower blocks forward, upper blocks backward)."""
        if self._solve_flops is None:
            w = self.widths.astype(np.int64)
            fwd, bwd = w * w, w * w
            for j, rows in enumerate(self.bp.blocks):
                gemv = 2 * w[rows] * w[j]
                np.add.at(fwd, rows[rows > j], gemv[rows > j])
                np.add.at(bwd, rows[rows < j], gemv[rows < j])
            self._solve_flops = {"FS": fwd, "BS": bwd}
        return self._solve_flops

    def width(self, task: Any) -> int:
        """Kernel block width (the BLAS inner dimension): the source
        column's supernode width, for every task kind."""
        return int(self.widths[task.k])

    def comm_bytes(self, task: Task) -> int:
        """Bytes shipped when the 1-D ``task`` runs off the source column's
        owner (0 for factor tasks, local under the 1-D mapping)."""
        if task.kind == "F":
            return 0
        rows = int(self.panel_rows[task.k])
        w_k = int(self.widths[task.k])
        # Factored sub-panel (L and the diagonal U block) plus the pivot map.
        return rows * w_k * _FLOAT_BYTES + 2 * rows * _INDEX_BYTES

    def message(self, src: Any, dst: Any) -> tuple[tuple, int]:
        """``(dedup key, bytes)`` of the datum ``dst`` needs from ``src``
        when the two run on different processors.

        The datum is what ``src`` produced, shipped once per destination,
        and only to a task whose priced kernel reads it; every other edge
        orders the two tasks and carries nothing (a zero-byte message:
        the completion signal still pays the latency). Data edges are:

        * 2-D: the diagonal block on ``F(k) -> SL/SU``, the scaled block
          into each ``UP``, and a block handed to the next writer of the
          same block — keyed by the task, since a block is rewritten per
          update step. The per-column step chain from *other* block rows
          (``UP(k,i,j) -> SU(k',j)`` / ``F(j)``, ``i`` not the row the
          destination is priced on) is ordering only: ``SU`` is priced as
          one block's scale and ``F`` as the diagonal block alone.
        * solve: a solution piece (``w_k`` doubles).
        * 1-D: block column ``k``'s factored sub-panel on
          ``F(k) -> U(k, j)`` — the only 1-D edges that cross processors
          under a column mapping (update chains and the final ``F`` share
          the target column's owner).
        """
        kind = src.kind
        w = self.widths
        if kind in ("FS", "BS"):
            return (kind, src.k), int(w[src.k]) * _FLOAT_BYTES
        if hasattr(src, "i"):
            if kind == "F" or dst.kind == "UP" or (src.i, src.j) == (dst.i, dst.j):
                return src, int(w[src.i] * w[src.j]) * _FLOAT_BYTES
        elif kind == "F" and dst.kind == "U" and dst.k == src.k:
            return ("panel", src.k), self.comm_bytes(dst)
        return ("edge", src, dst), 0

"""The Factor/Update task model shared by both dependence graphs."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.symbolic.supernodes import BlockPattern


class Task(NamedTuple):
    """One unit of work of the 1-D block LU factorization.

    ``kind`` is ``"F"`` (``Factor(k)``: factorize block column ``k``,
    including the pivot search) or ``"U"`` (``Update(k, j)``: update block
    column ``j`` by the factored block column ``k``). For factor tasks
    ``j == k`` by convention, so the *target* block column of any task is
    always ``t.j`` — the quantity the 1-D mapping assigns to a processor.
    """

    kind: str
    k: int
    j: int

    def __str__(self) -> str:  # e.g. F(3), U(1,4), FS(2)
        if self.kind == "F":
            return f"F({self.k})"
        if self.kind == "U":
            return f"U({self.k},{self.j})"
        if self.k == self.j:
            return f"{self.kind}({self.k})"
        return f"{self.kind}({self.k},{self.j})"

    @property
    def target(self) -> int:
        """Block column whose data this task writes (owner under 1-D map)."""
        return self.j


def factor_task(k: int) -> Task:
    return Task("F", k, k)


def update_task(k: int, j: int) -> Task:
    if not k < j:
        raise ValueError(f"update task requires k < j, got ({k}, {j})")
    return Task("U", k, j)


def enumerate_tasks(bp: BlockPattern) -> list[Task]:
    """All tasks of the factorization: ``F(k)`` per block column and
    ``U(k, j)`` per stored upper block ``B̄_{k,j}``, in the right-looking
    sequential order (which is a topological order of both graphs)."""
    tasks: list[Task] = []
    upper = _upper_blocks_by_source(bp)
    for k in range(bp.n_blocks):
        tasks.append(factor_task(k))
        for j in upper[k]:
            tasks.append(update_task(k, j))
    return tasks


def count_tasks(bp: BlockPattern) -> int:
    """``len(enumerate_tasks(bp))`` without listing them: one ``F`` per
    block column plus one ``U`` per stored block above the diagonal."""
    return bp.n_blocks + sum(
        int(np.count_nonzero(rows < j)) for j, rows in enumerate(bp.blocks)
    )


def _upper_blocks_by_source(bp: BlockPattern) -> list[list[int]]:
    """``upper[k]`` = block columns ``j > k`` with ``B̄_{k,j} ≠ 0``, ascending."""
    upper: list[list[int]] = [[] for _ in range(bp.n_blocks)]
    for j in range(bp.n_blocks):
        for i in bp.col_blocks(j):
            if i < j:
                upper[int(i)].append(j)
    return upper

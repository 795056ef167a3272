"""Task-to-processor mappings: 1-D block-column maps and the 2-D grid.

The paper uses a 1-D scheme — "an entire column block k is assigned to one
processor" — with the RAPID system choosing the assignment. We provide the
classic 1-D policies (plain ``np.ndarray`` owner-per-column maps) plus the
§6 2-D block-cyclic :class:`GridMapping`, which owns *blocks* rather than
columns and therefore cannot be an array indexed by ``task.target``. Use
:func:`task_owner` to handle both shapes uniformly; the mapping ablation
benchmark compares the policies. Mappings place tasks for the simulators
and the message-passing executor; the real engines place a unit on
whichever worker is free.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.numeric.costs import CostModel
from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.tasks import enumerate_tasks
from repro.util.errors import DispatchError


class GridMapping:
    """2-D block-cyclic owner map on a ``pr × pc`` processor grid.

    Block (i, j) — and every task that writes it — lives on processor
    ``(i mod pr) * pc + (j mod pc)``, the classic torus-wrap layout, and
    the only 2-D owner rule: the simulator asks :meth:`owner_of`. For 1-D
    tasks (no ``i`` field) the diagonal block row ``k`` stands in, so the
    same object can drive a 1-D graph if asked.
    """

    __slots__ = ("pr", "pc")

    def __init__(self, pr: int, pc: int) -> None:
        if pr < 1 or pc < 1:
            raise ValueError(f"grid {pr}x{pc} must be at least 1x1")
        self.pr = int(pr)
        self.pc = int(pc)

    @property
    def n_procs(self) -> int:
        return self.pr * self.pc

    def owner_of(self, task: Any) -> int:
        """Rank owning ``task``'s written block (its read block for SL)."""
        i = getattr(task, "i", task.k)
        return (int(i) % self.pr) * self.pc + (int(task.j) % self.pc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridMapping(pr={self.pr}, pc={self.pc})"

    @classmethod
    def for_workers(cls, n_workers: int) -> "GridMapping":
        """Most-square grid with ``pr * pc == n_workers``."""
        pr = int(np.sqrt(n_workers))
        while n_workers % pr:
            pr -= 1
        return cls(pr, n_workers // pr)


def task_owner(mapping: Any, task: Any) -> int:
    """Owner rank of ``task`` under either mapping shape.

    1-D maps are arrays indexed by the task's target block column;
    anything with an ``owner_of`` method (the 2-D grid) is asked directly.
    """
    if hasattr(mapping, "owner_of"):
        return int(mapping.owner_of(task))
    return int(mapping[task.target])


def cyclic_mapping(n_blocks: int, n_procs: int) -> np.ndarray:
    """Round-robin: block ``k`` on processor ``k mod P`` (the default)."""
    return np.arange(n_blocks, dtype=np.int64) % n_procs


def blocked_mapping(n_blocks: int, n_procs: int) -> np.ndarray:
    """Contiguous chunks of block columns per processor."""
    return (np.arange(n_blocks, dtype=np.int64) * n_procs) // max(1, n_blocks)


def greedy_mapping(bp: BlockPattern, n_procs: int) -> np.ndarray:
    """Load-balancing: assign columns in descending work order to the
    least-loaded processor (work = flops of all tasks targeting the column).
    """
    model = CostModel(bp)
    work = np.zeros(bp.n_blocks, dtype=np.float64)
    for task in enumerate_tasks(bp):
        work[task.target] += model.flops(task)
    owner = np.zeros(bp.n_blocks, dtype=np.int64)
    load = np.zeros(n_procs, dtype=np.float64)
    for k in np.argsort(-work, kind="stable"):
        p = int(np.argmin(load))
        owner[k] = p
        load[p] += work[k]
    return owner


def make_mapping(policy: str, bp: BlockPattern, n_procs: int) -> np.ndarray:
    """Build a 1-D mapping by name: ``cyclic``, ``blocked`` or ``greedy``."""
    if policy == "cyclic":
        return cyclic_mapping(bp.n_blocks, n_procs)
    if policy == "blocked":
        return blocked_mapping(bp.n_blocks, n_procs)
    if policy == "greedy":
        return greedy_mapping(bp, n_procs)
    raise DispatchError(f"unknown mapping policy {policy!r}")

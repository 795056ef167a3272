"""Task dependence graphs for the triangular solves (paper step (4)).

The factorization's task system extends naturally to the solve phase: under
the 1-D mapping, block column ``k``'s owner computes the forward-solve piece
``y_k`` and the backward-solve piece ``x_k``. The eforest structure shows up
again: independent subtrees of the (block) forest solve concurrently, so a
postordered matrix with many trees exposes solve-phase parallelism too.

Tasks
-----
* ``FS(k)`` — forward: ``y_k = L_kk⁻¹ (b_k − Σ_{i<k, B̄(k,i)≠0} L(k,i) y_i)``;
  depends on ``FS(i)`` for every stored lower block in block *row* ``k``.
* ``BS(k)`` — backward: ``x_k = U_kk⁻¹ (y_k − Σ_{j>k} U(k,j) x_j)``;
  depends on ``FS(k)`` and on ``BS(j)`` for every stored upper block in
  block row ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.tasks import Task, _upper_blocks_by_source


def forward_task(k: int) -> Task:
    return Task("FS", k, k)


def backward_task(k: int) -> Task:
    return Task("BS", k, k)


def build_solve_graph(bp: BlockPattern) -> TaskGraph:
    """Dependence graph of one forward+backward solve over ``B̄``."""
    n = bp.n_blocks
    g = TaskGraph()
    upper = _upper_blocks_by_source(bp)
    for k in range(n):
        g.add_task(forward_task(k))
        g.add_task(backward_task(k))
        g.add_edge(forward_task(k), backward_task(k))
    for i in range(n):
        # Lower block (k, i) for k > i: row k of L uses y_i. The mirror
        # anti-dependence FS(k) -> BS(i) keeps BS(i) from overwriting
        # y_i with x_i while FS(k) still needs it — required for any
        # executor that interleaves forward and backward tasks.
        col = bp.col_blocks(i)
        for k in col[col > i]:
            g.add_edge(forward_task(i), forward_task(int(k)))
            g.add_edge(forward_task(int(k)), backward_task(i))
        # Upper block (i, j): row i of U uses x_j.
        for j in upper[i]:
            g.add_edge(backward_task(int(j)), backward_task(i))
    return g


@dataclass(frozen=True)
class SolveSchedule:
    """Barrier-level schedule of one forward+backward solve.

    Derived purely from the *static* block pattern. No plan carries it and
    no solve or verifier reads it: only the staged pass of the end-to-end
    benchmark builds one (timing :func:`level_schedule`) and hands it to
    :meth:`~repro.numeric.factor.LUFactorization.extract`. Blocks inside one
    level have no dependence on each other (levels come from the
    longest-path depths of :func:`build_solve_graph`, and every edge
    strictly increases depth), so a level's tasks may run in any order or
    concurrently.

    Attributes
    ----------
    fwd_levels / bwd_levels:
        Tuples of int64 arrays; level ``L``'s array holds the block ids
        whose ``FS``/``BS`` task sits at depth ``L`` (ascending ids inside
        a level, for a deterministic sequential order).
    fwd_level / bwd_level:
        Per-block depth arrays (``fwd_level[k]`` is FS(k)'s level).
    graph:
        The underlying task graph, for executors that want edge-level
        (rather than barrier-level) concurrency.
    """

    fwd_levels: tuple
    bwd_levels: tuple
    fwd_level: np.ndarray
    bwd_level: np.ndarray
    graph: TaskGraph

    @property
    def n_blocks(self) -> int:
        return self.fwd_level.size

    @property
    def n_fwd_levels(self) -> int:
        return len(self.fwd_levels)

    @property
    def n_bwd_levels(self) -> int:
        return len(self.bwd_levels)


def _group_by_level(level_of: np.ndarray) -> tuple:
    """Group block ids by level; ids ascend inside each group."""
    order = np.argsort(level_of, kind="stable")
    sorted_levels = level_of[order]
    bounds = np.flatnonzero(
        np.r_[True, sorted_levels[1:] != sorted_levels[:-1], True]
    )
    return tuple(
        order[s:e].astype(np.int64) for s, e in zip(bounds[:-1], bounds[1:])
    )


def _schedule_from_graph(graph: TaskGraph, n: int) -> SolveSchedule:
    depth = graph.levels()
    fwd = np.fromiter(
        (depth[forward_task(k)] for k in range(n)), dtype=np.int64, count=n
    )
    bwd = np.fromiter(
        (depth[backward_task(k)] for k in range(n)), dtype=np.int64, count=n
    )
    fwd.setflags(write=False)
    bwd.setflags(write=False)
    return SolveSchedule(
        fwd_levels=_group_by_level(fwd),
        bwd_levels=_group_by_level(bwd),
        fwd_level=fwd,
        bwd_level=bwd,
        graph=graph,
    )


def level_schedule(bp: BlockPattern) -> SolveSchedule:
    """Level schedule of the static solve graph (the solve-phase analogue
    of the factorization executors' topological orders).

    Describes the static pattern. Deferred pivoting can rename multiplier
    rows across block boundaries, outside it, so the schedule does not
    drive the block solve, which runs in fixed block order
    (:mod:`repro.numeric.supersolve`). The solve phase is priced
    (:func:`~repro.parallel.simulate.simulate_schedule`) and verified
    (``repro analyze``) on :func:`build_solve_graph` directly.
    """
    graph = build_solve_graph(bp)
    return _schedule_from_graph(graph, bp.n_blocks)

"""Frozen, shareable symbolic plans.

A :class:`SymbolicPlan` freezes one run of the paper's static analysis —
fill pattern of ``Ā``, composed row/column permutations (transversal +
ordering + §3 postorder), supernode partition, block pattern, and the
numeric engine's :class:`~repro.numeric.blockdata.BlockLayout` — keyed by
the :class:`~repro.serve.fingerprint.PatternFingerprint` of the pattern it
was built from. What only some executions read is derived from the block
pattern on first use and then kept: the §4 task graph
(:attr:`SymbolicPlan.graph`) and the static solve schedule.

Theorem 3 (postordering leaves the static structure invariant) is what
makes the bundle a pure function of (pattern, symbolic options): any two
matrices with the same pattern share it, so a plan built once can drive
arbitrarily many numeric refactorizations, concurrently. To keep that
safe, the plan stores its *own* read-only copies of the pattern arrays and
never exposes anything a numeric phase mutates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.numeric.blockdata import BlockLayout
from repro.numeric.solver import (
    SolverOptions,
    SymbolicArtifacts,
    run_symbolic_pipeline,
)
from repro.obs.trace import Tracer
from repro.serve.fingerprint import PatternFingerprint, fingerprint
from repro.sparse.csc import CSCMatrix
from repro.symbolic.static_fill import StaticFill
from repro.symbolic.supernodes import BlockPattern, SupernodePartition
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.solve_graph import SolveSchedule, level_schedule
from repro.taskgraph.tasks import count_tasks


def _frozen_copy(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype).copy()
    out.setflags(write=False)
    return out


def _inverse_perm(perm: np.ndarray) -> np.ndarray:
    inv = np.empty(perm.size, dtype=np.int64)
    inv[perm] = np.arange(perm.size, dtype=np.int64)
    inv.setflags(write=False)
    return inv


@dataclass(frozen=True, eq=False)
class SymbolicPlan:
    """One pattern's static analysis, frozen for sharing.

    Instances are immutable and safe to share across threads: the numeric
    phase only ever *reads* the plan (permutations, block pattern, layout)
    and allocates its own value panels. Build via :func:`build_plan` or
    :meth:`SparseLUSolver.plan`.

    Identity (:meth:`identity`, ``__eq__``, ``__hash__``) is
    (pattern fingerprint, symbolic options) — *not* the fingerprint
    alone: the same pattern analyzed under two different ordering recipes
    yields two structurally different plans, and caches must never
    conflate them. The generated dataclass ``__eq__`` would compare the
    array fields elementwise (ambiguous truth value), hence ``eq=False``
    and the explicit definitions.
    """

    fingerprint: PatternFingerprint
    options: SolverOptions
    indptr: np.ndarray  # read-only copy of the source pattern, for
    indices: np.ndarray  # entry-for-entry verification on cache hits
    artifacts: SymbolicArtifacts
    layout: BlockLayout
    #: Inverse of ``row_perm``, so every solve permutes its RHS with a
    #: single gather.
    row_perm_inv: np.ndarray

    # ---- identity -----------------------------------------------------
    @property
    def identity(self) -> tuple:
        """Hashable (fingerprint, symbolic options) cache identity."""
        return (self.fingerprint.key, self.options.symbolic_key())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolicPlan):
            return NotImplemented
        return self.identity == other.identity

    def __hash__(self) -> int:
        return hash(self.identity)

    # ---- convenience views over the artifact bundle -------------------
    @property
    def row_perm(self) -> np.ndarray:
        return self.artifacts.row_perm

    @property
    def col_perm(self) -> np.ndarray:
        return self.artifacts.col_perm

    @property
    def fill(self) -> StaticFill:
        return self.artifacts.fill

    @property
    def partition(self) -> SupernodePartition:
        return self.artifacts.partition

    @property
    def bp(self) -> BlockPattern:
        return self.artifacts.bp

    @property
    def graph(self) -> TaskGraph:
        """The §4 task graph, built on first access and at most once
        (:attr:`SymbolicArtifacts.graph` holds the lock and the result).
        A factorization, on any engine, never asks for it; a replayed
        ``order`` does."""
        return self.artifacts.graph

    @cached_property
    def solve_schedule(self) -> SolveSchedule:
        """Static level schedule of the triangular solves
        (:func:`repro.taskgraph.solve_graph.level_schedule`), for the
        analyzer and for threaded block solves of factors whose pivots
        stayed inside the static pattern. Built on first access and
        cached on the instance (``cached_property`` writes straight to
        ``__dict__``, which the frozen dataclass permits): the sequential
        block solve runs in block order and needs no schedule, so a
        serving request never builds it."""
        return level_schedule(self.bp)

    @property
    def n(self) -> int:
        return self.fingerprint.n_cols

    @property
    def nnz(self) -> int:
        return self.fingerprint.nnz

    @property
    def nnz_filled(self) -> int:
        return self.artifacts.fill.nnz

    def matches(self, a: CSCMatrix) -> bool:
        """Entry-for-entry pattern check — the collision-safe gate.

        Cheap rejections first (dims, nnz: O(1)), then the full index
        arrays. A digest collision therefore cannot produce a structurally
        wrong factorization, only a cache miss.
        """
        fp = self.fingerprint
        if (a.n_rows, a.n_cols, a.nnz) != (fp.n_rows, fp.n_cols, fp.nnz):
            return False
        return bool(
            np.array_equal(self.indptr, a.indptr)
            and np.array_equal(self.indices, a.indices)
        )

    def __str__(self) -> str:
        return (
            f"SymbolicPlan({self.fingerprint}, "
            f"nnz_filled={self.nnz_filled}, "
            f"n_blocks={self.bp.n_blocks}, n_tasks={count_tasks(self.bp)})"
        )


def build_plan(
    a: CSCMatrix,
    options: Optional[SolverOptions] = None,
    *,
    tracer: Optional[Tracer] = None,
) -> SymbolicPlan:
    """Run the symbolic pipeline on ``a``'s pattern and freeze the result.

    The one constructor of plans, and the whole symbolic phase of every
    request path: a cold request is this plus the warm path
    (:func:`repro.serve.refactor.refactorize_with_plan`). ``a`` may be
    pattern-only; an ordering recipe reaches it as ``recipe.apply(options)``
    (:meth:`repro.tune.OrderingRecipe.apply`). When ``tracer`` is given, the symbolic stages record their usual spans
    (``transversal`` … ``supernodes``) under an ``analyze`` parent.
    """
    from repro.symbolic.dispatch import resolve_impl

    opts = options or SolverOptions()
    tr = tracer if tracer is not None else Tracer(enabled=False)
    with tr.span(
        "analyze",
        n=a.n_cols,
        nnz=a.nnz,
        symbolic_impl=resolve_impl(),
    ) as s:
        art = run_symbolic_pipeline(a.pattern_only(), opts, tr)
        s.set(nnz_filled=art.fill.nnz, fill_ratio=art.fill.fill_ratio)
        plan = SymbolicPlan(
            fingerprint=fingerprint(a),
            options=dataclasses.replace(opts),
            indptr=_frozen_copy(a.indptr, np.int64),
            indices=_frozen_copy(a.indices, np.int32),
            artifacts=art,
            layout=BlockLayout(art.bp),
            row_perm_inv=_inverse_perm(art.row_perm),
        )
    from repro.analysis.runner import analysis_enabled

    if analysis_enabled():  # REPRO_ANALYZE=1 debug hook
        from repro.analysis.runner import verify_plan

        verify_plan(plan, tracer=tr)
    return plan

"""Frozen, shareable symbolic plans.

A :class:`SymbolicPlan` is one pattern's static analysis as plain data —
composed row/column permutations (transversal + ordering + §3
postorder), fill pattern of ``Ā``, supernode partition and block pattern
— keyed by the :class:`~repro.serve.fingerprint.PatternFingerprint` of
the pattern it was built from. :func:`build_plan` is its one constructor
and runs the symbolic stages. What not every caller reads is derived
from the block pattern on first use and then kept: the numeric engine's
:class:`~repro.numeric.blockdata.BlockLayout` (:attr:`SymbolicPlan.layout`,
built by the first factorization) and the §4 task graph
(:attr:`SymbolicPlan.graph`).

Theorem 3 (postordering leaves the static structure invariant) is what
makes the record a pure function of (pattern, symbolic options): any two
matrices with the same pattern share it, so a plan built once can drive
arbitrarily many numeric refactorizations, concurrently, and pickles
across a process boundary. To keep that safe, the plan stores its *own*
read-only copies of the pattern arrays and never exposes anything a
numeric phase mutates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.numeric.blockdata import BlockLayout
from repro.numeric.solver import SolverOptions
from repro.obs.trace import Tracer
from repro.ordering import ORDERINGS
from repro.ordering.transversal import zero_free_diagonal_permutation
from repro.serve.fingerprint import PatternFingerprint, fingerprint
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import permute
from repro.symbolic.postorder import postorder_pipeline
from repro.symbolic.static_fill import StaticFill, static_symbolic_factorization
from repro.symbolic.supernodes import (
    BlockPattern,
    SupernodePartition,
    amalgamate,
    block_pattern,
    supernode_partition,
)
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.eforest_graph import build_eforest_graph
from repro.taskgraph.sstar import build_sstar_graph
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


@dataclass
class AnalysisStats:
    """Symbolic-phase measurements (the raw material of Tables 1 and 3)."""

    n: int
    nnz: int
    nnz_filled: int
    fill_ratio: float
    n_supernodes_raw: int
    n_supernodes: int
    mean_supernode_size: float
    n_btf_blocks: int
    n_tasks: int
    n_edges: int


@dataclass(frozen=True, eq=False)
class SymbolicPlan:
    """One pattern's static analysis, frozen for sharing.

    Instances are immutable data, safe to share across threads and to
    pickle: the numeric phase only ever *reads* the plan (permutations,
    block pattern, layout) and allocates its own value panels. Build via
    :func:`build_plan`.

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
    #: Composed permutations: ``A_work = A[row_perm][:, col_perm]``.
    row_perm: np.ndarray
    col_perm: np.ndarray
    #: Inverse of ``row_perm``, so every solve permutes its RHS with a
    #: single gather.
    row_perm_inv: np.ndarray
    fill: StaticFill
    partition: SupernodePartition
    bp: BlockPattern
    #: Diagonal blocks of the BTF the postorder found (0 without it).
    n_btf_blocks: int

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

    # ---- derived on first read ----------------------------------------
    # ``cached_property`` writes straight to ``__dict__``, which the frozen
    # dataclass permits. On Python 3.11 it serialises first reads behind
    # one lock per descriptor (one build at a time across all plans); from
    # 3.12 there is no lock and concurrent first readers may each build a
    # copy. Either way every reader gets an equal value.
    @cached_property
    def layout(self) -> BlockLayout:
        """The numeric engine's structural metadata for ``bp``. The first
        :func:`~repro.serve.refactor.refactorize_with_plan` builds it and
        every later one reuses it; a plan that is only scored (the
        tuner) or analysed never pays for it."""
        return BlockLayout(self.bp)

    @cached_property
    def graph(self) -> TaskGraph:
        """The §4 task graph (``options.task_graph``) over ``bp``. No
        engine reads it — only a replayed ``order`` and the analysis tools
        do — so a plan that only serves requests never pays its time or
        its memory (the dict-of-tuples graph is the largest single object
        of a plan)."""
        if self.options.task_graph == "eforest":
            return build_eforest_graph(self.bp)
        return build_sstar_graph(self.bp)

    @property
    def n(self) -> int:
        return self.fingerprint.n_cols

    @property
    def nnz(self) -> int:
        return self.fingerprint.nnz

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

    def stats(self) -> AnalysisStats:
        """The plan's symbolic statistics; reads (and so builds) :attr:`graph`."""
        return AnalysisStats(
            n=self.fill.n,
            nnz=self.nnz,
            nnz_filled=self.fill.nnz,
            fill_ratio=self.fill.fill_ratio,
            n_supernodes_raw=supernode_partition(self.fill).n_supernodes,
            n_supernodes=self.partition.n_supernodes,
            mean_supernode_size=self.partition.mean_size(),
            n_btf_blocks=self.n_btf_blocks,
            n_tasks=self.graph.n_tasks,
            n_edges=self.graph.n_edges,
        )

    def __str__(self) -> str:
        return (
            f"SymbolicPlan({self.fingerprint}, "
            f"nnz_filled={self.fill.nnz}, "
            f"n_blocks={self.bp.n_blocks}, n_tasks={count_tasks(self.bp)})"
        )


def build_plan(
    a: CSCMatrix,
    options: Optional[SolverOptions] = None,
    *,
    tracer: Optional[Tracer] = None,
) -> SymbolicPlan:
    """Run steps (1)-(2) plus §3 postordering and supernodes on ``a``'s
    pattern and freeze the result; the §4 graph is left to
    :attr:`SymbolicPlan.graph`, which builds it on demand.

    The one constructor of plans, and the whole symbolic phase of every
    request path: a cold request is this plus the warm path
    (:func:`repro.serve.refactor.refactorize_with_plan`). ``a`` may be
    pattern-only; an ordering recipe reaches it as the options
    :func:`repro.tune.parse_recipe` returns, and the ordering is the
    function :data:`repro.ordering.ORDERINGS` names. Every stage runs
    inside a tracer span (``transversal`` … ``supernodes`` under an
    ``analyze`` parent, hierarchy in docs/observability.md) carrying the
    symbolic statistics as attributes.
    """
    opts = options or SolverOptions()
    tr = tracer if tracer is not None else Tracer(enabled=False)
    with tr.span("analyze", n=a.n_cols, nnz=a.nnz) as s:
        work = a.pattern_only()
        with tr.span("transversal"):
            row_perm = zero_free_diagonal_permutation(work)
            work = permute(work, row_perm=row_perm)

        with tr.span("ordering", method=opts.ordering):
            q = ORDERINGS[opts.ordering](work, **opts.ordering_kwargs())
        work = permute(work, row_perm=q, col_perm=q)
        row_perm, col_perm = q[row_perm], q

        with tr.span("static_fill") as sf:
            fill = static_symbolic_factorization(work, tracer=tr)
            sf.set(nnz_filled=fill.nnz, fill_ratio=fill.fill_ratio)

        n_btf_blocks = 0
        with tr.span("postorder", enabled=opts.postorder) as sp:
            if opts.postorder:
                po = postorder_pipeline(fill)
                row_perm, col_perm = po.perm[row_perm], po.perm[col_perm]
                fill = po.fill
                n_btf_blocks = len(po.blocks)
                sp.set(n_btf_blocks=n_btf_blocks)

        with tr.span("supernodes", amalgamation=opts.amalgamation) as ss:
            part_raw = supernode_partition(fill)
            part = part_raw
            if opts.amalgamation:
                part = amalgamate(
                    fill,
                    part_raw,
                    max_padding=opts.max_padding,
                    max_size=opts.max_supernode,
                )
            bp = block_pattern(fill, part)
            ss.set(
                n_supernodes_raw=part_raw.n_supernodes,
                n_supernodes=part.n_supernodes,
                mean_supernode_size=part.mean_size(),
            )

        s.set(nnz_filled=fill.nnz, fill_ratio=fill.fill_ratio)
        plan = SymbolicPlan(
            fingerprint=fingerprint(a),
            options=opts,
            indptr=_frozen_copy(a.indptr, np.int64),
            indices=_frozen_copy(a.indices, np.int32),
            row_perm=row_perm,
            col_perm=col_perm,
            row_perm_inv=_inverse_perm(row_perm),
            fill=fill,
            partition=part,
            bp=bp,
            n_btf_blocks=n_btf_blocks,
        )
    from repro.analysis.runner import analysis_enabled

    if analysis_enabled():  # REPRO_ANALYZE=1 debug hook
        from repro.analysis.runner import verify_plan

        verify_plan(plan, tracer=tr)
    return plan

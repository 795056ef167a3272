"""Supernodal block triangular solves over retained panel factors.

The scalar solves in :mod:`repro.numeric.triangular` walk the CSC factors
one column at a time — O(n) interpreter iterations of tiny ``np.outer``
work per solve. But the factorization already computed L and U in dense
supernode panels; scattering them to scalar CSC only to re-walk them
column-wise throws the block structure away exactly where the serving hot
path needs it. :class:`BlockFactors` keeps the factors in panel form:

* per supernode ``k``, the ``(w, w)`` diagonal block (unit-lower L and
  upper U intertwined, as in the panel storage) plus its two precomputed
  triangular inverses, so each per-block solve is one small GEMM;
* per supernode ``k``, one fused *row-panel* matrix per solve direction:
  all L blocks of block row ``k`` (resp. all U blocks of block row ``k``)
  horizontally stacked, with one precomputed gather-index array mapping
  panel columns to positions of the solution vector.

A forward task is then ``y_k = L_kk^{-1} (b_k − Lrow_k · y[gather_k])`` —
one gather, one GEMM, one ``(w, w)`` GEMM — and the backward task is the
mirror image. Multi-RHS right-hand sides ride through the same GEMMs as
genuine matrix width, which is what turns :class:`repro.serve.SolverService`
batching into BLAS-3 work.

Writing each task in this *gather* form (one fixed expression per target
block, sources concatenated in ascending block order) rather than
scattering partial updates makes the result bitwise independent of task
interleaving: tasks write disjoint row ranges and read only finished
ranges, so any topological order of the solve graph — including the
threaded executor's — produces identical bits. The interleaving tests pin
this, mirroring the factorization-side guarantee.

The row structure of L depends on the pivots actually chosen: deferred
pivoting renames multiplier rows, and a rename in a later block can move
a row *across block boundaries*, outside the static block pattern of the
source column. (U is immune — its row structure lives in position space
and is fully static, so the build reads it off the
:class:`~repro.numeric.blockdata.BlockLayout`.) Rows below a diagonal only
ever land in strictly later blocks, so the sequential solve needs no
schedule at all: blocks ascending, then descending, is a topological order
of every solve graph. Only a threaded solve needs the graph; for it a
static :class:`~repro.taskgraph.solve_graph.SolveSchedule` supplied by the
caller (``SymbolicPlan.solve_schedule``) serves when every L block stayed
inside the static structure (``static_covered``), and otherwise an exact
one is derived on first use from the actual block dependence lists via
:func:`~repro.taskgraph.solve_graph.schedule_from_structure`.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.numeric.blockdata import BlockColumnData, BlockLayout, concat_ranges
from repro.numeric.kernels import solve_unit_lower, solve_upper
from repro.taskgraph.solve_graph import SolveSchedule, schedule_from_structure
from repro.util.errors import SchedulingError, ShapeError


class BlockFactors:
    """Panel-form factors of ``P A = L U``, ready for block solves.

    Built by ``LUFactorization.extract(retain_blocks=True)``; everything is
    an owned copy, so instances stay valid after the engine is dropped and
    are safe to share read-only across threads.
    """

    def __init__(
        self,
        data: BlockColumnData,
        l_labels: dict,
        orig_at: np.ndarray,
        schedule: "SolveSchedule | None" = None,
    ) -> None:
        """Assemble block factors from a completed factorization's storage.

        ``l_labels`` is ``LUFactorization._final_l_labels()`` — the final
        global row id of every candidate-panel position. The first ``w``
        labels of block ``k`` are always the block's own rows (later pivot
        renames only touch positions below finished diagonals), so the
        diagonal block is the top ``(w, w)`` slice of the candidate panel
        and the rows below it scatter into strictly later blocks.
        ``schedule`` is the plan's static solve schedule, kept only when
        the L blocks stay inside the static pattern.
        """
        layout = data.layout
        n_blocks = data.n_blocks
        starts = layout.starts
        widths = layout.widths.tolist()
        eyes = {w: np.eye(w, dtype=np.float64) for w in set(widths)}
        self.n = data.n
        self.n_blocks = n_blocks
        self.starts = starts
        self.orig_at = np.array(orig_at, dtype=np.int64)
        self.orig_at.setflags(write=False)
        self.diag_linv: list = []
        self.diag_uinv: list = []
        fwd_parts: list = [[] for _ in range(n_blocks)]
        fwd_srcs: list = [[] for _ in range(n_blocks)]
        bwd_parts: list = [[] for _ in range(n_blocks)]
        bwd_srcs: list = [[] for _ in range(n_blocks)]
        for k in range(n_blocks):
            w = widths[k]
            sub = data.sub_panel(k)
            diag = sub[:w, :w]
            # The substitution kernels read only their own triangle of the
            # intertwined diagonal block; inverting against the identity
            # once makes every later per-block solve a plain GEMM.
            self.diag_linv.append(solve_unit_lower(diag, eyes[w]))
            self.diag_uinv.append(solve_upper(diag, eyes[w]))

            # L blocks of block *rows* below k: group the candidate-panel
            # rows by the target block of their final label. All-zero
            # groups are padding the elimination never touched (LazyS+) and
            # are dropped — fewer gathered columns, identical bits.
            labels_below = l_labels[k][w:]
            if labels_below.size:
                vals_below = sub[w:, :]
                tb = layout.block_of_row[labels_below]
                order = np.argsort(tb, kind="stable")
                tb_sorted = tb[order]
                cuts = (tb_sorted[1:] != tb_sorted[:-1]).nonzero()[0] + 1
                bounds = [0, *cuts.tolist(), order.size]
                for s, e in zip(bounds[:-1], bounds[1:]):
                    t = int(tb_sorted[s])
                    pos = order[s:e]
                    block_vals = vals_below[pos, :]
                    if not block_vals.any():
                        continue
                    mat = np.zeros((widths[t], w), dtype=np.float64)
                    mat[labels_below[pos] - starts[t], :] = block_vals
                    fwd_parts[t].append(mat)
                    fwd_srcs[t].append(k)

            # U blocks of block row b < k stored in column k contribute to
            # BS(b); their row structure is static (position space), so the
            # layout lists them and no label translation is needed. The
            # backward dependence BS(k) -> BS(b) is in the static graph by
            # construction.
            panel_full = data.panels[k]
            for b, off, h in layout.upper_blocks(k):
                block_vals = panel_full[off : off + h, :]
                if block_vals.any():
                    bwd_parts[b].append(block_vals)
                    bwd_srcs[b].append(k)

        self.fwd_mats, self.fwd_cols = _fuse(fwd_parts, fwd_srcs, layout)
        self.bwd_mats, self.bwd_cols = _fuse(bwd_parts, bwd_srcs, layout)
        # Block (t, k) inside the static pattern is what generates the
        # FS(k) -> FS(t) edge of the static solve graph; a pivot rename that
        # moved rows into another block demands the exact schedule instead.
        targets = np.repeat(np.arange(n_blocks), [len(ss) for ss in fwd_srcs])
        sources = np.fromiter((s for ss in fwd_srcs for s in ss), dtype=np.int64)
        static_covered = bool(layout.has_blocks(targets, sources).all())
        self.static_covered = static_covered
        # (fwd, bwd) per-target source-block lists: the exact solve graph.
        self._srcs = (fwd_srcs, bwd_srcs)
        # The static schedule is only valid when it covers them.
        self._schedule = schedule if static_covered else None
        self._lock = threading.Lock()

    @property
    def known_schedule(self) -> "SolveSchedule | None":
        """The solve schedule if one is at hand; never derives one."""
        return self._schedule

    @property
    def schedule(self) -> SolveSchedule:
        """A schedule valid for these factors, derived on first use (once,
        under a lock) when the static one was absent or not covering."""
        if self._schedule is None:
            with self._lock:
                if self._schedule is None:
                    self._schedule = schedule_from_structure(*self._srcs)
        return self._schedule

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray, *, n_threads: int = 1) -> np.ndarray:
        """Solve ``A x = b`` via ``L U x = P b`` (vector or multi-RHS)."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ShapeError(
                f"rhs has shape {b.shape}, expected ({self.n},) or ({self.n}, k)"
            )
        x = self.solve_permuted(b[self.orig_at], n_threads=n_threads)
        return x if b.ndim == 2 else x[:, 0]

    def solve_permuted(
        self,
        pb: np.ndarray,
        *,
        n_threads: int = 1,
        order=None,
    ) -> np.ndarray:
        """Solve ``L U x = pb`` for an already-permuted right-hand side.

        ``order`` (tests only) runs an explicit task sequence — any
        topological order of the solve graph — instead of the block
        order; ``n_threads > 1`` runs the solve graph of :attr:`schedule`
        under the shared threaded executor. All three paths produce
        identical bits.
        """
        pb = np.asarray(pb, dtype=np.float64)
        y = np.array(pb if pb.ndim == 2 else pb[:, None], dtype=np.float64)
        if order is not None:
            if len(order) != 2 * self.n_blocks:
                raise SchedulingError(
                    f"solve order has {len(order)} tasks, expected "
                    f"{2 * self.n_blocks}"
                )
            for task in order:
                self._run_task(task, y)
        elif n_threads > 1:
            from repro.parallel.threads import threaded_factorize

            engine = _SolveTaskAdapter(self, y)
            threaded_factorize(engine, self.schedule.graph, n_threads)
        else:
            # L rows only land in later blocks and U blocks come from
            # later columns: ascending then descending block order is a
            # topological order of every solve graph.
            for k in range(self.n_blocks):
                self._forward(k, y)
            for k in range(self.n_blocks - 1, -1, -1):
                self._backward(k, y)
        return y

    def _run_task(self, task, y: np.ndarray) -> None:
        if task.kind == "FS":
            self._forward(task.k, y)
        elif task.kind == "BS":
            self._backward(task.k, y)
        else:
            raise SchedulingError(f"unknown solve task kind {task.kind!r}")

    def _forward(self, k: int, y: np.ndarray) -> None:
        self._solve_block(k, y, self.fwd_mats[k], self.fwd_cols[k], self.diag_linv[k])

    def _backward(self, k: int, y: np.ndarray) -> None:
        self._solve_block(k, y, self.bwd_mats[k], self.bwd_cols[k], self.diag_uinv[k])

    def _solve_block(self, k: int, y: np.ndarray, mat, cols, diag_inv) -> None:
        """``y_k = D⁻¹ (y_k − mat · y[cols])``: one gather, two GEMMs."""
        lo = int(self.starts[k])
        hi = int(self.starts[k + 1])
        rhs = y[lo:hi]
        if cols.size:
            rhs = rhs - mat @ y[cols]
        y[lo:hi] = diag_inv @ rhs


def _fuse(parts: list, srcs: list, layout: BlockLayout) -> tuple:
    """Hstack each target's row-panel pieces; build the gather indices
    (the scalar column ranges of its sources, one pass for all targets)."""
    flat = np.fromiter((s for ss in srcs for s in ss), dtype=np.int64)
    idx = concat_ranges(layout.starts[flat], layout.widths[flat])
    idx.setflags(write=False)
    mats: list = []
    cols: list = []
    lo = 0
    for t, ps in enumerate(parts):
        if ps:
            mats.append(np.concatenate(ps, axis=1))
        else:
            mats.append(np.zeros((layout.width(t), 0)))
        cols.append(idx[lo : lo + mats[-1].shape[1]])
        lo += mats[-1].shape[1]
    return mats, cols


class _SolveTaskAdapter:
    """Adapts :class:`BlockFactors` to the threaded executor's engine
    contract (``run_task`` + a ``done`` set)."""

    __slots__ = ("bf", "y", "done")

    def __init__(self, bf: BlockFactors, y: np.ndarray) -> None:
        self.bf = bf
        self.y = y
        self.done: set = set()

    def run_task(self, task) -> None:
        if task in self.done:
            raise SchedulingError(f"solve task {task} executed twice")
        self.bf._run_task(task, self.y)
        self.done.add(task)

"""Task-based supernodal LU factorization with partial pivoting.

:class:`LUFactorization` executes ``Factor``/``Update`` tasks against the
dense block storage. Any topological order of a valid dependence graph
produces the same factors (the property the task-graph tests assert); the
right-looking sequential order is built in as the reference.

Pivoting bookkeeping: ``Factor(k)`` swaps rows inside its candidate panel
and publishes the renaming ``pivots[k][p] → sub_rows(k)[p]`` of global row
ids in the panel store, beside the panel's values
(:class:`~repro.numeric.blockdata.BlockColumnData`). ``Update(k, j)``
*applies* that renaming to column ``j`` before its TRSM/GEMM — the
deferred-pivot discipline of S+ that makes the 1-D distributed
factorization possible, and the very reason Theorem 4's ancestor-ordering
of updates is required. The task bodies take block indices only: where the
store's buffers live (private memory, a shared arena, a received copy) is
the executor's business.

The engine also executes the refined 2-D task kinds of
:mod:`repro.parallel.two_d` (``SL``/``SU``/``UP``), which split
``Update(k, j)``'s body per block row: ``SU(k, j)`` applies the renames
and the TRSM for column ``j`` (the rename scatter crosses block rows, so
it belongs to the per-column task), and each ``UP(k, i, j)`` pushes the
GEMM into block row ``i`` only. ``F(k)`` is *unchanged* — it still pivots
over the whole candidate panel — so 1-D and 2-D runs share one pivot
sequence and agree to rounding.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

import numpy as np

from repro.numeric.blockdata import BlockColumnData, BlockLayout
from repro.numeric.kernels import (
    gemm_flops,
    lu_panel_flops,
    lu_panel_inplace,
    triangular_inverses,
    trsm_flops,
    update_flops,
)
from repro.numeric.solve_dispatch import resolve_impl as resolve_solve_impl
from repro.numeric.triangular import lower_unit_solve_csc, upper_solve_csc
from repro.sparse.coo import COOBuilder
from repro.sparse.csc import CSCMatrix
from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.tasks import Task, enumerate_tasks
from repro.util.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (supersolve)
    from repro.analysis.sanitizer import AccessSanitizer
    from repro.numeric.supersolve import BlockFactors


@dataclass
class LazyStats:
    """Work skipped by the LazyS+-style zero-block elimination.

    ``flops_saved``/``flops_spent`` are GEMM+TRSM estimates; their ratio is
    the fraction of the static structure that never carried numerical work
    — the quantity motivating the LazyS+ follow-up the paper cites in §2.
    """

    n_updates_skipped: int = 0
    n_updates_run: int = 0
    flops_saved: int = 0
    flops_spent: int = 0

    def skip_update(self, w: int, rows_below: int, w_dst: int) -> None:
        self.n_updates_skipped += 1
        self.flops_saved += update_flops(w, rows_below, w_dst)

    def note_gemm_rows(self, total: int, active: int, w: int, w_dst: int) -> None:
        self.n_updates_run += 1
        self.flops_saved += 2 * (total - active) * w * w_dst
        self.flops_spent += w * w * w_dst + 2 * active * w * w_dst

    @property
    def saved_fraction(self) -> float:
        denom = self.flops_saved + self.flops_spent
        return self.flops_saved / denom if denom else 0.0


class PanelFacts(NamedTuple):
    """What the updates out of block ``k`` read besides the panel's values.

    Pure functions of the factored panel and its pivot renaming as the
    store holds them, derived once per block: by ``F(k)`` where it ran, on
    first use (:meth:`LUFactorization._facts`) where the panel was
    published by someone else — identical bits either way.
    """

    linv: np.ndarray  # L⁻¹ of the diagonal block: the TRSM is one GEMM
    uinv: np.ndarray  # U⁻¹ of the diagonal block, which only the solves read
    moved: np.ndarray  # candidate positions whose row id F(k) renamed
    moved_from: np.ndarray  # position in ``sub_rows`` of the id now there
    active: np.ndarray  # positions below the diagonal with a nonzero multiplier


def _panel_facts(
    subs: np.ndarray,
    pivoted: np.ndarray,
    m: np.ndarray,
    w: int,
    inverses: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> PanelFacts:
    linv, uinv = inverses if inverses is not None else triangular_inverses(m[:w])
    moved = (pivoted != subs).nonzero()[0]
    moved_from = np.searchsorted(subs, pivoted[moved])
    # LazyS+: padded rows keep all-zero multipliers and push nothing.
    active = m[w:].any(axis=1).nonzero()[0] + w
    return PanelFacts(linv, uinv, moved, moved_from, active)


class FactorResult:
    """Factors ``P A = L U``.

    ``orig_at[i]`` is the original row of ``A`` living at pivoted position
    ``i``, i.e. ``(PA)[i, :] = A[orig_at[i], :]``.

    ``blocks`` optionally carries the factors in supernodal panel form
    (:class:`repro.numeric.supersolve.BlockFactors`: views of the engine's
    panels), produced by ``extract(retain_blocks=True)`` and consumed by
    the block solve path.

    ``l_factor``/``u_factor`` are the scalar CSC form. The block solve
    never reads them, so they are assembled from the engine's panels on
    first access: once, under a lock (concurrent readers share one build),
    after which this object's own reference to the panels is released.
    """

    def __init__(
        self,
        orig_at: np.ndarray,
        blocks: "BlockFactors | None",
        assemble: "Callable[[], tuple[CSCMatrix, CSCMatrix]]",
    ) -> None:
        self.orig_at = orig_at
        self.blocks = blocks
        self._assemble: "Callable[[], tuple[CSCMatrix, CSCMatrix]] | None" = assemble
        self._csc: "tuple[CSCMatrix, CSCMatrix] | None" = None
        self._lock = threading.Lock()

    def _scalar_factors(self) -> "tuple[CSCMatrix, CSCMatrix]":
        if self._csc is None:
            with self._lock:
                if self._csc is None:
                    self._csc = self._assemble()
                    self._assemble = None  # drops the panel references
        return self._csc

    @property
    def l_factor(self) -> CSCMatrix:
        return self._scalar_factors()[0]

    @property
    def u_factor(self) -> CSCMatrix:
        return self._scalar_factors()[1]

    def solve(self, b: np.ndarray, *, impl: "str | None" = None) -> np.ndarray:
        """Solve ``A x = b`` via ``L U x = P b`` (vector or multi-RHS).

        ``impl`` selects the solve engine (see
        :mod:`repro.numeric.solve_dispatch`): ``"block"`` runs the
        supernodal panel solves when block factors were retained (falling
        back to the scalar path otherwise), ``"reference"`` always runs
        the scalar CSC substitutions.
        """
        choice = resolve_solve_impl(impl)
        if choice == "block" and self.blocks is not None:
            return self.blocks.solve(b)
        b = np.asarray(b, dtype=np.float64)
        pb = b[self.orig_at]
        y = lower_unit_solve_csc(self.l_factor, pb)
        return upper_solve_csc(self.u_factor, y)

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        """Solve ``Aᵀ x = b`` via ``Uᵀ Lᵀ P x = b`` (vector or multi-RHS)."""
        from repro.numeric.triangular import (
            lower_transpose_unit_solve_csc,
            upper_transpose_solve_csc,
        )

        b = np.asarray(b, dtype=np.float64)
        y = upper_transpose_solve_csc(self.u_factor, b)
        z = lower_transpose_unit_solve_csc(self.l_factor, y)
        out = np.empty_like(z)
        # PA = LU => Aᵀ Pᵀ = UᵀLᵀ => x = Pᵀ z: x[orig_at[i]] = z[i].
        out[self.orig_at] = z
        return out

    def slogdet(self) -> tuple[float, float]:
        """``(sign, log|det A|)`` from the factors (NumPy convention).

        ``det(A) = det(Pᵀ) · det(L) · det(U) = sign(P) · Π u_ii``. Fully
        vectorized: the U diagonal comes out of one mask over the CSC
        arrays, and the permutation parity comes from a pointer-doubling
        cycle count (``sign = (-1)^(n - #cycles)``) — no per-element
        Python loop on either side.
        """
        n = self.orig_at.size
        u = self.u_factor
        cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(u.indptr))
        on_diag = u.indices == cols
        if int(np.count_nonzero(on_diag)) != n:
            return 0.0, -np.inf  # at least one structurally absent u_jj
        dvals = u.data[on_diag]
        if np.any(dvals == 0.0):
            return 0.0, -np.inf
        sign = _permutation_sign(self.orig_at)
        if int(np.count_nonzero(dvals < 0.0)) % 2:
            sign = -sign
        logdet = float(np.sum(np.log(np.abs(dvals))))
        return sign, logdet


def _permutation_sign(perm: np.ndarray) -> float:
    """Parity of a permutation array via pointer-doubling cycle counting.

    ``rep`` converges to the minimum element of each cycle (after round
    ``r`` it covers a window of ``2^r`` hops), so ``np.unique(rep).size``
    is the cycle count and the parity is ``(-1)^(n - #cycles)`` —
    O(n log n) total work with no Python-level cycle walk.
    """
    p = np.asarray(perm, dtype=np.int64)
    n = p.size
    rep = np.arange(n, dtype=np.int64)
    hop = p.copy()
    span = 1
    while span < n:
        rep = np.minimum(rep, rep[hop])
        hop = hop[hop]
        span *= 2
    n_cycles = int(np.unique(rep).size)
    return -1.0 if (n - n_cycles) % 2 else 1.0


class LUFactorization:
    """Executes the task set of one factorization over block storage.

    Parameters
    ----------
    a:
        Square matrix with values, already permuted by the full symbolic
        pipeline (transversal, fill-reducing order, postorder).
    bp:
        Block pattern of ``Ā`` over the supernode partition.
    owned_columns:
        Passed to the panel store: only these block columns are
        materialized (one rank of a distributed-memory run).
    check_dependencies:
        When True, :meth:`run_task` verifies its prerequisites ran (the
        executors pass orders that satisfy this by construction; tests use
        it to catch bad schedules).

    Notes
    -----
    ``lazy_stats`` accumulates the work skipped by the zero-block (LazyS+)
    shortcut. Under the threaded executor its counters are updated without
    a lock and may undercount slightly; the numerics are unaffected.
    """

    def __init__(
        self,
        a: CSCMatrix,
        bp: BlockPattern,
        *,
        check_dependencies: bool = False,
        metrics=None,
        layout=None,
        owned_columns: "set[int] | None" = None,
    ) -> None:
        # ``layout`` is an optional precomputed BlockLayout for ``bp`` (a
        # cached symbolic plan carries one) so repeated numeric
        # factorizations skip rebuilding the structural metadata.
        self.data = BlockColumnData(a, bp, owned_columns, layout=layout)
        self.bp = bp
        self.n = a.n_cols
        self.orig_at = np.arange(self.n, dtype=np.int64)
        self.done: set[Task] = set()
        self.check_dependencies = check_dependencies
        self.lazy_stats = LazyStats()
        # Per block, on first use: what its updates (1-D and 2-D alike) and
        # the solves read of it besides the store (see _facts).
        self.panel_facts: dict[int, PanelFacts] = {}
        # Optional MetricsRegistry: per-kernel call counts, flop counters,
        # block-width histograms, and pivot-deferral counters (stable names
        # in docs/observability.md). ``None`` keeps the hot paths at one
        # ``is None`` branch per task. Under the threaded executor the
        # updates race benignly, exactly like ``lazy_stats``.
        self.metrics = metrics
        # Optional repro.analysis.sanitizer.AccessSanitizer, attached by
        # run_engine: kernels record the scalar rows they actually touch
        # for online containment in the static footprints. Disabled cost
        # is one ``is None`` test per site — the ``metrics`` discipline.
        self.sanitizer: "AccessSanitizer | None" = None

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------
    def run_task(self, task: Task) -> None:
        if task in self.done:
            raise SchedulingError(f"task {task} executed twice")
        san = self.sanitizer
        if san is not None:
            san.begin(task)
        if task.kind == "F":
            self._factor(task.k)
        elif task.kind == "U":
            self._apply_update(task.j, task.k)
        elif task.kind == "SL":
            self._scale_lower(task.k, task.i)
        elif task.kind == "SU":
            self._scale_upper(task.k, task.j)
        elif task.kind == "UP":
            self._block_update(task.k, task.i, task.j)
        else:  # pragma: no cover - task constructors prevent this
            raise SchedulingError(f"unknown task kind {task.kind!r}")
        if san is not None:
            san.end(task)
        self.done.add(task)

    def run_order(self, order: Iterable[Task]) -> None:
        for task in order:
            self.run_task(task)

    def factor_sequential(self) -> None:
        """Right-looking reference order: F(k) then its updates, ascending."""
        self.run_order(enumerate_tasks(self.bp))

    # ------------------------------------------------------------------
    def _factor(self, k: int) -> None:
        if self.check_dependencies:
            self._require_column_updates_done(k)
        data = self.data
        panel = data.sub_panel(k)
        w = data.width(k)
        order, linv, uinv = lu_panel_inplace(panel, w)
        subs = data.sub_rows(k)
        pivoted = data.pivots[k]
        pivoted[...] = subs[order]
        self.panel_facts[k] = facts = _panel_facts(
            subs, pivoted, panel, w, (linv, uinv)
        )
        changed = facts.moved
        if changed.size:
            self.orig_at[subs[changed]] = self.orig_at[pivoted[changed]]
        if self.sanitizer is not None:
            from repro.analysis.footprints import ORIG_AT_REGION
            from repro.analysis.sanitizer import pivot_region

            self.sanitizer.record_read(k, subs)
            self.sanitizer.record_write(k, subs)
            self.sanitizer.record_write(pivot_region(k), subs)
            if changed.size:
                self.sanitizer.record_read(ORIG_AT_REGION, pivoted[changed])
                self.sanitizer.record_write(ORIG_AT_REGION, subs[changed])
        if self.metrics is not None:
            self.metrics.counter("kernel.factor.calls", unit="calls").inc()
            self.metrics.counter("kernel.factor.flops", unit="flops").inc(
                lu_panel_flops(panel.shape[0], w)
            )
            self.metrics.histogram("kernel.panel.width", unit="cols").observe(w)
            self.metrics.histogram("kernel.panel.rows", unit="rows").observe(
                panel.shape[0]
            )
            n_moved = int(changed.size)
            if n_moved:
                # Deferred-pivot bookkeeping: rows renamed by F(k) whose
                # renaming every later U(k, j) must still apply.
                self.metrics.counter("pivot.rows_deferred", unit="rows").inc(n_moved)
                self.metrics.counter("pivot.panels_with_swaps", unit="panels").inc()

    def _facts(self, k: int) -> PanelFacts:
        """Block ``k``'s :class:`PanelFacts`, derived from the store the
        first time a block this engine did not factor is read."""
        facts = self.panel_facts.get(k)
        if facts is None:
            data = self.data
            facts = self.panel_facts[k] = _panel_facts(
                data.sub_rows(k), data.pivots[k], data.sub_panel(k), data.width(k)
            )
        return facts

    def _rename_and_solve(self, kind: str, k: int, j: int) -> "tuple | None":
        """Renames + TRSM of block ``(k, j)``: all of ``SU(k, j)`` and the
        first two phases of ``U(k, j)`` (``kind`` says which). Returns
        ``(panel_j, rel, u_kj, subs, m, facts)`` — ``rel`` the layout's
        relative indices of update ``(k → j)`` — or ``None`` when the
        LazyS+ shortcut skipped the update.

        Block ``k``'s factored panel and pivot renaming are read from the
        store, wherever the executor put its buffers. Every renamed id is a
        row of ``sub_rows(k)``, so its panel-``j`` position is a lookup in
        ``rel``.
        """
        data = self.data
        subs = data.sub_rows(k)
        pivoted = data.pivots[k]
        if self.check_dependencies and pivoted[0] < 0:
            raise SchedulingError(f"{kind}({k},{j}) ran before F({k})")
        m = data.sub_panels[k]
        w = data.width(k)
        facts = self._facts(k)
        panel_j = data.panels[j]
        if panel_j is None:
            raise SchedulingError(
                f"{kind}({k},{j}) ran on a process that does not own column {j}"
            )
        rel = data.layout.relative_rows(k, j)
        san = self.sanitizer
        if san is not None:
            from repro.analysis.sanitizer import pivot_region

            san.record_read(pivot_region(k), subs)
            # U(k, j) goes on to read the multipliers below the diagonal.
            san.record_read(k, subs if kind == "U" else subs[:w])

        # 1. Apply F(k)'s row renaming to column j (gather, then scatter —
        #    safe under permutation cycles). Ids absent from column j carry
        #    exact zeros, so dropping/injecting them is a no-op.
        moved = facts.moved
        if moved.size:
            src = rel[facts.moved_from]
            dst = rel[moved]
            have, put = src >= 0, dst >= 0
            vals = np.zeros((moved.size, panel_j.shape[1]), dtype=np.float64)
            vals[have] = panel_j[src[have]]
            panel_j[dst[put]] = vals[put]
            if san is not None:
                san.record_read(j, pivoted[moved][have])
                san.record_write(j, subs[moved][put])
            if self.metrics is not None:
                self.metrics.counter("pivot.renames_applied", unit="rows").inc(
                    int(moved.size)
                )

        # 2. TRSM: finalize the U block B̄_{k,j}. LazyS+ optimization (the
        #    paper's §2 note that "some of the zero blocks can be eliminated
        #    from the computation"): a block that is numerically zero after
        #    the renames solves to zero, so both the TRSM and the GEMM it
        #    would feed are skipped — bitwise identical, strictly less work.
        off = int(rel[0])
        block = panel_j[off : off + w, :]
        w_j = panel_j.shape[1]
        if san is not None:
            san.record_read(j, subs[:w])
        if not block.any():
            self.lazy_stats.skip_update(w, int(subs.size) - w, w_j)
            if self.metrics is not None:
                self.metrics.counter("update.skipped_zero_block", unit="updates").inc()
            return None
        u_kj = facts.linv @ block
        block[...] = u_kj
        if san is not None:
            san.record_write(j, subs[:w])
        if self.metrics is not None:
            self.metrics.counter("kernel.trsm.calls", unit="calls").inc()
            self.metrics.counter("kernel.trsm.flops", unit="flops").inc(
                trsm_flops(w, w_j)
            )
            self.metrics.histogram("kernel.trsm.width", unit="cols").observe(w_j)
        return panel_j, rel, u_kj, subs, m, facts

    def _push_gemm(
        self,
        j: int,
        panel_j: np.ndarray,
        subs: np.ndarray,
        rel: np.ndarray,
        m: np.ndarray,
        rows: np.ndarray,
        u_kj: np.ndarray,
    ) -> None:
        """``panel_j[rel[rows]] -= m[rows] @ u_kj`` over those of the active
        candidate positions ``rows`` that column ``j`` stores. Padded rows
        (all-zero multipliers) are not among ``rows``: they contribute
        nothing, and — critically for the threaded executor — writing
        their zero deltas would race with concurrent independent-subtree
        updates that own those rows for real."""
        n_active = int(rows.size)
        tgt = rel[rows]
        if tgt.min() < 0:
            keep = tgt >= 0
            rows, tgt = rows[keep], tgt[keep]
        if rows.size:
            panel_j[tgt] -= m[rows] @ u_kj
            if self.sanitizer is not None:
                self.sanitizer.record_read(j, subs[rows])
                self.sanitizer.record_write(j, subs[rows])
        if self.metrics is not None:
            w, w_j = u_kj.shape
            self.metrics.counter("kernel.gemm.calls", unit="calls").inc()
            self.metrics.counter("kernel.gemm.flops", unit="flops").inc(
                gemm_flops(n_active, w, w_j)
            )
            self.metrics.histogram("kernel.gemm.rows", unit="rows").observe(n_active)
            self.metrics.histogram("kernel.gemm.width", unit="cols").observe(w_j)

    def _apply_update(self, j: int, k: int) -> None:
        """``U(k, j)``: update column ``j`` by block column ``k``'s factored
        panel — renames, TRSM, then the GEMM into the rows below block
        ``k`` that column ``j`` materializes."""
        solved = self._rename_and_solve("U", k, j)
        if solved is None:
            return
        panel_j, rel, u_kj, subs, m, facts = solved
        w, w_j = u_kj.shape
        rows = facts.active
        self.lazy_stats.note_gemm_rows(int(subs.size) - w, int(rows.size), w, w_j)
        if rows.size:
            self._push_gemm(j, panel_j, subs, rel, m, rows, u_kj)

    # ------------------------------------------------------------------
    # 2-D per-block task bodies (repro.parallel.two_d)
    # ------------------------------------------------------------------
    def _block_slice(self, k: int, i: int) -> tuple[int, int]:
        """Rows of block ``i`` inside panel ``k``'s candidate sub-panel."""
        layout = self.data.layout
        lo = layout.block_offset(i, k) - layout.diag_offset(k)
        return lo, lo + layout.width(i)

    def _scale_lower(self, k: int, i: int) -> None:
        """``SL(k, i)``: lower block (i, k) is final.

        The panel kernel already scaled the whole candidate panel inside
        ``F(k)`` and recorded which of its rows carry nonzero multipliers
        (``panel_facts[k].active``, which every ``UP(k, i, ·)`` windows),
        so the task keeps its place in the 2-D graph and its read of the
        block but has no arithmetic left.
        """
        if self.check_dependencies and self.data.pivots[k][0] < 0:
            raise SchedulingError(f"SL({k},{i}) ran before F({k})")
        if self.sanitizer is not None:
            lo, hi = self._block_slice(k, i)
            self.sanitizer.record_read(k, self.data.sub_rows(k)[lo:hi])

    def _scale_upper(self, k: int, j: int) -> None:
        """``SU(k, j)``: renames + TRSM of block (k, j), leaving the
        per-block GEMMs of :meth:`_apply_update` to ``UP``.

        The rename scatter may touch *any* supported row of column ``j``
        (pivot swaps cross block rows), which is why the 2-D graph
        serializes a column's steps on its ``SU`` tasks.
        """
        solved = self._rename_and_solve("SU", k, j)
        if solved is not None:
            # A skip (LazyS+) means the whole update (k → j) is dead: the
            # UP(k, ·, j) tasks see the still-zero U block and return, so
            # the helper's one skip accounts for the 1-D-equivalent update.
            w, w_j = solved[2].shape
            self.lazy_stats.n_updates_run += 1
            self.lazy_stats.flops_spent += trsm_flops(w, w_j)

    def _block_update(self, k: int, i: int, j: int) -> None:
        """``UP(k, i, j)``: GEMM of block row ``i`` into column ``j``.

        Reads the finished ``U`` block (k, j) straight from column ``j``'s
        panel (``SU(k, j)`` wrote it; the step chain orders the read) and
        the immutable multipliers of block (i, k) from panel ``k``. Updates
        of one step into different block rows write disjoint rows — the
        concurrency the 2-D mapping exists to exploit.
        """
        if self.check_dependencies and ("SU", k, k, j) not in self.done:
            raise SchedulingError(f"UP({k},{i},{j}) ran before SU({k},{j})")
        data = self.data
        m = data.sub_panel(k)
        w = data.width(k)
        panel_j = data.panels[j]
        if panel_j is None:
            raise SchedulingError(
                f"UP({k},{i},{j}) ran on a process that does not own column {j}"
            )
        rel = data.layout.relative_rows(k, j)
        off = int(rel[0])
        u_kj = panel_j[off : off + w, :]
        subs = data.sub_rows(k)
        san = self.sanitizer
        if san is not None:
            san.record_read(j, subs[:w])
        if not u_kj.any():
            return  # SU(k, j) took the LazyS+ skip; nothing to push.
        lo, hi = self._block_slice(k, i)
        if san is not None:
            san.record_read(k, subs[lo:hi])
        active = self._facts(k).active
        a, b = np.searchsorted(active, (lo, hi))
        rows = active[a:b]
        n_active = int(rows.size)
        w_j = panel_j.shape[1]
        self.lazy_stats.flops_saved += 2 * (hi - lo - n_active) * w * w_j
        self.lazy_stats.flops_spent += 2 * n_active * w * w_j
        if n_active:
            self._push_gemm(j, panel_j, subs, rel, m, rows, u_kj)

    def recompose_orig_at(self) -> None:
        """Set ``orig_at`` from the store's pivot slots, composing the
        per-block renames in block order — what an engine that gathered
        its store from other processes does in place of ``F(k)``'s
        incremental update (execution-order independent: overlapping
        renames belong to comparable eforest nodes, see docs/parallel.md)."""
        data = self.data
        orig_at = np.arange(self.n, dtype=np.int64)
        for k, pivoted in enumerate(data.pivots):
            subs = data.sub_rows(k)
            moved = (pivoted != subs).nonzero()[0]
            if moved.size:
                orig_at[subs[moved]] = orig_at[pivoted[moved]]
        self.orig_at = orig_at

    def _require_column_updates_done(self, k: int) -> None:
        stored = None
        for i in self.bp.col_blocks(k):
            i = int(i)
            if i >= k or Task("U", i, k) in self.done:
                continue
            if ("SU", i, i, k) in self.done:
                # 2-D refinement of update (i -> k): the SU plus one UP
                # per stored lower block row must all have committed.
                if stored is None:
                    stored = set(int(b) for b in self.bp.col_blocks(k))
                for b in self.bp.col_blocks(i):
                    b = int(b)
                    if b > i and b in stored and ("UP", i, b, k) not in self.done:
                        raise SchedulingError(
                            f"F({k}) ran before UP({i},{b},{k})"
                        )
                continue
            raise SchedulingError(f"F({k}) ran before U({i},{k})")

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def extract(
        self,
        *,
        drop_tol: float = 0.0,
        retain_blocks: bool = False,
        solve_schedule=None,
    ) -> FactorResult:
        """The factors of the completed run as a :class:`FactorResult`.

        The scalar CSC factors are assembled lazily, on first access of
        ``result.l_factor``/``u_factor`` (entries with ``|v| <= drop_tol``
        in padded positions are dropped; 0.0 keeps everything nonzero).

        ``retain_blocks=True`` additionally hands the panels, as they
        stand, to a :class:`~repro.numeric.supersolve.BlockFactors` on the
        result, enabling the supernodal block solve path — views, not
        copies. ``solve_schedule`` is accepted for callers that stage the
        plan's static :class:`~repro.taskgraph.solve_graph.SolveSchedule`
        next to the factors; the block solve runs in fixed block order and
        does not read it.
        """
        data = self.data
        missing = sum(1 for p in data.pivots if not p.size or p[0] < 0)
        if missing:
            raise SchedulingError(f"{missing} block columns were never factored")
        # Each block's pivot renaming as (new id, old id) pairs of the rows
        # it moved: all that outlives the engine of the pivot bookkeeping.
        facts = [self._facts(k) for k in range(self.bp.n_blocks)]
        renames: "list[tuple[np.ndarray, np.ndarray] | None]" = [
            (data.sub_rows(k)[f.moved], data.pivots[k][f.moved])
            if f.moved.size
            else None
            for k, f in enumerate(facts)
        ]
        blocks = None
        if retain_blocks:
            from repro.numeric.supersolve import BlockFactors

            blocks = BlockFactors(data, renames, facts)
        return FactorResult(
            self.orig_at.copy(),
            blocks,
            # Not ``data``: the result would keep the pivot buffer alive.
            partial(_assemble_csc, data.layout, data.panels, renames, drop_tol),
        )


def _final_l_labels(
    layout: BlockLayout, renames: "list[tuple[np.ndarray, np.ndarray] | None]"
) -> "dict[int, np.ndarray]":
    """Final row label of every candidate-panel position, per block.

    ``Factor(k)``'s multipliers live at the slot labels current *at the
    time* of ``F(k)``; later factorizations rename some of those slots
    again (a pivot swap moves the whole row, multipliers included, just
    as dense ``getrf`` swaps already-computed L columns). Composing the
    renames in descending block order yields, for each block, the map
    from its panel positions to final row labels. Rename composition is
    well defined in block order because any two overlapping renames
    belong to comparable eforest nodes, whose F tasks every dependence
    graph orders.
    """
    cur = np.arange(layout.n, dtype=np.int64)
    labels: dict[int, np.ndarray] = {}
    for k in range(layout.n_blocks - 1, -1, -1):
        labels[k] = cur[layout.sub_rows(k)]
        rename = renames[k]
        if rename is not None:
            new_ids, old_ids = rename
            cur[old_ids] = cur[new_ids]
    return labels


def _assemble_csc(
    layout: BlockLayout,
    panels: "list[np.ndarray]",
    renames: "list[tuple[np.ndarray, np.ndarray] | None]",
    drop_tol: float,
) -> tuple[CSCMatrix, CSCMatrix]:
    """Scalar CSC ``(L, U)`` from factored panels and their pivot renames.

    Whole-block vectorized (one ``nonzero`` scan per block); the COO
    builder sorts by (column, row), so the result is independent of
    emission order.
    """
    n = layout.n
    l_labels = _final_l_labels(layout, renames)
    lb = COOBuilder(n, n)
    ub = COOBuilder(n, n)
    starts = layout.starts
    # Unit diagonal of L, all columns at once.
    diag = np.arange(n, dtype=np.int64)
    lb.extend(diag, diag, np.ones(n, dtype=np.float64))
    for k in range(layout.n_blocks):
        w = layout.width(k)
        gcol0 = int(starts[k])
        panel = panels[k][layout.diag_offset(k) :]
        # L: the strictly-below-diagonal part of the candidate panel.
        rr, cc = np.nonzero(np.abs(panel) > drop_tol)
        keep = rr > cc
        if np.any(keep):
            rk, ck = rr[keep], cc[keep]
            lb.extend(l_labels[k][rk], gcol0 + ck, panel[rk, ck])
        # U: the diagonal block's upper triangle (diagonal forced) ...
        nz = np.triu(np.abs(panel[:w]) > drop_tol)
        np.fill_diagonal(nz, True)
        rr, cc = np.nonzero(nz)
        ub.extend(gcol0 + rr, gcol0 + cc, panel[rr, cc])
        # ... plus the blocks above it in column k.
        for b, off, h in layout.upper_blocks(k):
            block = panels[k][off : off + h, :]
            rr, cc = np.nonzero(np.abs(block) > drop_tol)
            if rr.size:
                ub.extend(int(starts[b]) + rr, gcol0 + cc, block[rr, cc])
    return lb.to_csc(), ub.to_csc()

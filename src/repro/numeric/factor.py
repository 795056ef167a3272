"""Supernodal LU factorization with partial pivoting, in block steps or tasks.

:class:`LUFactorization` executes ``Factor``/``Update`` work against the
dense block storage. Every engine runs *block steps* — ``F(k)`` then every
``U(k, j)`` — and the sanitizer checks them; the tasks run one by one only
in sequential replays (an explicit order, a 2-D graph) and message
passing. Both run one body per target on the same operands, so they agree
bitwise, and any topological order of a valid dependence graph produces
the same factors (the property the task-graph tests assert).

Pivoting bookkeeping: ``Factor(k)`` swaps rows inside its candidate panel
and publishes the renaming ``pivots[k][p] → sub_rows(k)[p]`` of global row
ids in the panel store, beside the panel's values
(:class:`~repro.numeric.blockdata.BlockColumnData`). ``Update(k, j)``
*applies* that renaming to column ``j`` before its TRSM/GEMM — the
deferred-pivot discipline of S+ that makes the 1-D distributed
factorization possible, and the very reason Theorem 4's ancestor-ordering
of updates is required. The bodies take block indices only: where the
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
    trsm_flops,
    unit_lower_inverse,
    update_flops,
)
from repro.numeric.triangular import lower_unit_solve_csc, upper_solve_csc
from repro.sparse.coo import COOBuilder
from repro.sparse.csc import CSCMatrix
from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.tasks import Task
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
    moved: np.ndarray  # candidate positions whose row id F(k) renamed
    active: np.ndarray  # positions below the diagonal with a nonzero multiplier


def _panel_facts(
    subs: np.ndarray,
    pivoted: np.ndarray,
    m: np.ndarray,
    w: int,
    linv: "np.ndarray | None" = None,
) -> PanelFacts:
    if linv is None:
        linv = unit_lower_inverse(m[:w])
    moved = (pivoted != subs).nonzero()[0]
    # LazyS+: padded rows keep all-zero multipliers and push nothing.
    active = m[w:].any(axis=1).nonzero()[0] + w
    return PanelFacts(linv, moved, active)


def _stored(rows: np.ndarray, tgt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, tgt)`` narrowed to the positions the target column stores."""
    keep = tgt >= 0
    return (rows, tgt) if keep.all() else (rows[keep], tgt[keep])


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

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` via ``L U x = P b`` (vector or multi-RHS).

        Runs the supernodal panel solves when block factors were retained,
        and the scalar CSC substitutions of
        :mod:`repro.numeric.triangular` otherwise.
        """
        if self.blocks is not None:
            return self.blocks.solve(b)
        b = np.asarray(b, dtype=np.float64)
        pb = b[self.orig_at]
        y = lower_unit_solve_csc(self.l_factor, pb)
        return upper_solve_csc(self.u_factor, y)


class LUFactorization:
    """Executes one factorization over block storage, in steps or tasks.

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

    Notes
    -----
    ``lazy_stats`` accumulates the work skipped by the zero-block (LazyS+)
    shortcut and ``n_tasks`` the ``F``/``U`` tasks covered, one by one or in
    steps; each task or step adds its counts once, under a lock (exact under
    threads).
    """

    def __init__(
        self,
        a: CSCMatrix,
        bp: BlockPattern,
        *,
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
        self.done: set[Task] = set()  # tasks run one by one (not in steps)
        self.n_tasks = 0
        self.lazy_stats = LazyStats()
        self._tally_lock = threading.Lock()
        # Per block, on first use: what its updates (1-D and 2-D alike) and
        # the solves read of it besides the store (see _facts).
        self.panel_facts: dict[int, PanelFacts] = {}
        # Optional MetricsRegistry: per-kernel call counts, flop counters,
        # block-width histograms, pivot-deferral counters (names in
        # docs/observability.md); ``None`` costs one branch per site. Under
        # the threaded executor the updates race benignly.
        self.metrics = metrics
        # Optional repro.analysis.sanitizer.AccessSanitizer, attached by
        # run_engine: each step or task brackets itself, and the bodies
        # record the scalar rows they touch for online containment in the
        # static footprints.
        self.sanitizer: "AccessSanitizer | None" = None

    # ------------------------------------------------------------------
    # Execution units
    # ------------------------------------------------------------------
    def run_task(self, task: Task) -> None:
        if task in self.done:
            raise SchedulingError(f"task {task} executed twice")
        san = self.sanitizer
        if san is not None:
            san.begin(task)
        tally: "tuple[int, ...]" = ()
        if task.kind == "F":
            self._factor(task.k)
        elif task.kind in ("U", "SU"):
            # SU(k, j) is U(k, j) without its GEMM, which UP(k, ·, j) push.
            facts, rel = self._operands(task.kind, task.k, task.j)
            tally = self._updates(task.k, facts, [task.j], rel, gemm=task.kind == "U")
        elif task.kind == "SL":
            self._scale_lower(task.k, task.i)
        elif task.kind == "UP":
            tally = self._block_update(task.k, task.i, task.j)
        else:  # pragma: no cover - task constructors prevent this
            raise SchedulingError(f"unknown task kind {task.kind!r}")
        if san is not None:
            san.end(task)
        self.done.add(task)
        self.tally(1, *tally)

    def run_order(self, order: Iterable[Task]) -> None:
        for task in order:
            self.run_task(task)

    def factor_sequential(self) -> None:
        """Right-looking reference order: step ``k`` for ascending ``k``."""
        for k in range(self.bp.n_blocks):
            self.step(k)

    def tally(
        self, n_tasks: int, skipped: int = 0, run: int = 0, saved: int = 0, spent: int = 0
    ) -> None:
        """Add one unit's counts — a task's, a step's, or what a proc run's
        workers report — to ``n_tasks`` and ``lazy_stats``, atomically."""
        with self._tally_lock:
            self.n_tasks += n_tasks
            ls = self.lazy_stats
            ls.n_updates_skipped += skipped
            ls.n_updates_run += run
            ls.flops_saved += saved
            ls.flops_spent += spent

    def step(self, k: int) -> None:
        """Block step ``k``: ``F(k)``, then ``U(k, j)`` for every target in
        ascending ``j`` through :meth:`_updates` — the body a ``U(k, j)``
        task runs for its one target, hence the same bits. A sanitizer sees
        the step as unit ``k``."""
        san = self.sanitizer
        if san is not None:
            san.begin(k)
        facts = self._factor(k)
        targets, rel = self.data.layout.step_targets(k)
        tally = self._updates(k, facts, targets.tolist(), rel) if targets.size else ()
        if san is not None:
            san.end(k)
        self.tally(1 + targets.size, *tally)

    def _factor(self, k: int) -> PanelFacts:
        data = self.data
        pivoted = data.pivots[k]
        if pivoted.size and pivoted[0] >= 0:
            raise SchedulingError(f"F({k}) executed twice")
        panel = data.sub_panel(k)
        w = data.width(k)
        order, linv = lu_panel_inplace(panel, w)
        subs = data.sub_rows(k)
        subs.take(order, out=pivoted)
        self.panel_facts[k] = facts = _panel_facts(subs, pivoted, panel, w, linv)
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
            self.metrics.histogram("kernel.panel.rows", unit="rows").observe(panel.shape[0])
            if changed.size:
                # Deferred-pivot bookkeeping: rows renamed by F(k) whose
                # renaming every later U(k, j) must still apply.
                self.metrics.counter("pivot.rows_deferred", unit="rows").inc(changed.size)
                self.metrics.counter("pivot.panels_with_swaps", unit="panels").inc()
        return facts

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

    def _operands(self, kind: str, k: int, j: int) -> tuple[PanelFacts, np.ndarray]:
        """What ``U(k, j)`` and ``SU(k, j)`` hand to :meth:`_updates`: block
        ``k``'s facts, read from the store wherever the executor put its
        buffers, and update ``(k → j)``'s relative indices as one row."""
        data = self.data
        if data.panels[j] is None:
            raise SchedulingError(
                f"{kind}({k},{j}) ran on a process that does not own column {j}"
            )
        rel = data.layout.relative_rows(k, j)
        if self.sanitizer is not None:
            from repro.analysis.sanitizer import pivot_region

            subs = data.sub_rows(k)
            self.sanitizer.record_read(pivot_region(k), subs)
            # U(k, j) goes on to read the multipliers below the diagonal.
            self.sanitizer.record_read(k, subs if kind == "U" else subs[: data.width(k)])
        return self._facts(k), rel[None]

    def _updates(
        self, k: int, facts: PanelFacts, js: "list[int]", rel: np.ndarray, gemm: bool = True
    ) -> tuple[int, int, int, int]:
        """Update ``(k → j)`` for every target ``j`` of ``js`` (``rel``: their
        rows of the layout's relative indices) — the body of step ``k`` after
        ``F(k)``, of ``U(k, j)`` for its one target, and of ``SU(k, j)``
        (``gemm=False``). Returns the LazyS+ tally.

        Per target: ``F(k)``'s row renaming, gathered then scattered (every
        renamed id is a row of ``sub_rows(k)``; a row column ``j`` lacks
        carries exact zeros). Then LazyS+, the paper's §2 note that "some of
        the zero blocks can be eliminated": a ``U`` block ``(k, j)`` that is
        zero after the renames solves to zero, so its TRSM and GEMM are
        skipped — bitwise identical, strictly less work. Otherwise the TRSM
        is one GEMM with ``L⁻¹`` and the GEMM goes into the active rows
        column ``j`` stores. Across targets only exact work is shared, never
        a product.
        """
        data, san, metrics = self.data, self.sanitizer, self.metrics
        panels, subs, m = data.panels, data.sub_rows(k), data.sub_panels[k]
        linv, moved, active = facts.linv, facts.moved, facts.active
        w, n_act = linv.shape[0], active.size
        # Whether every target stores every candidate row (only row lists care).
        full = bool(rel.min() >= 0) if moved.size or (gemm and n_act) else True
        if moved.size:
            pivoted = data.pivots[k]
            src = rel.take(np.searchsorted(subs, pivoted[moved]), axis=1)
            dst = rel.take(moved, axis=1)
            for t, j in enumerate(js):
                if full:
                    panels[j][dst[t]] = panels[j].take(src[t], axis=0)
                else:
                    have, put = src[t] >= 0, dst[t] >= 0
                    vals = np.zeros((moved.size, panels[j].shape[1]))
                    vals[have] = panels[j][src[t][have]]
                    panels[j][dst[t][put]] = vals[put]
                if san is not None:
                    san.record_read(j, pivoted[moved][src[t] >= 0])
                    san.record_write(j, subs[moved][dst[t] >= 0])
            if metrics is not None:
                metrics.counter("pivot.renames_applied", unit="rows").inc(len(js) * moved.size)
        if gemm and n_act:
            tgt, m_act = rel.take(active, axis=1), m.take(active, axis=0)
        n_run = w_run = w_skipped = 0
        for t, (j, off) in enumerate(zip(js, rel[:, 0].tolist())):
            panel_j = panels[j]
            block, w_j = panel_j[off : off + w], panel_j.shape[1]
            if san is not None:
                san.record_read(j, subs[:w])
            if not np.count_nonzero(block):
                w_skipped += w_j
                if metrics is not None:
                    metrics.counter("update.skipped_zero_block", unit="updates").inc()
                continue
            u_kj = linv @ block
            block[...] = u_kj
            n_run += 1
            w_run += w_j
            if metrics is not None:
                metrics.counter("kernel.trsm.calls", unit="calls").inc()
                metrics.counter("kernel.trsm.flops", unit="flops").inc(trsm_flops(w, w_j))
                metrics.histogram("kernel.trsm.width", unit="cols").observe(w_j)
            if san is not None:
                san.record_write(j, subs[:w])
            if gemm and n_act:
                rows, tgt_t = (active, tgt[t]) if full else _stored(active, tgt[t])
                m_rows = m_act if rows.size == n_act else m.take(rows, axis=0)
                self._push_gemm(panel_j, m_rows, tgt_t, u_kj, n_act)
                if san is not None and rows.size:
                    san.record_read(j, subs[rows])
                    san.record_write(j, subs[rows])
        below = m.shape[0] - w
        saved = update_flops(w, below, w_skipped)
        if not gemm:
            return len(js) - n_run, n_run, saved, trsm_flops(w, w_run)
        saved += gemm_flops(below - n_act, w, w_run)
        return len(js) - n_run, n_run, saved, update_flops(w, n_act, w_run)

    def _push_gemm(self, panel_j, m_rows, tgt, u_kj, n_active: int) -> None:
        """``panel_j[tgt] -= m_rows @ u_kj``. Padded rows (all-zero
        multipliers) and rows column ``j`` does not store are not among
        ``tgt``: they contribute nothing, and — critically for the threaded
        executor — writing their zero deltas would race with concurrent
        independent-subtree updates that own those rows for real."""
        if tgt.size:
            rows = panel_j.take(tgt, axis=0)
            rows -= m_rows @ u_kj
            panel_j[tgt] = rows
        if self.metrics is not None:
            w, w_j = u_kj.shape
            self.metrics.counter("kernel.gemm.calls", unit="calls").inc()
            self.metrics.counter("kernel.gemm.flops", unit="flops").inc(
                gemm_flops(n_active, w, w_j)
            )
            self.metrics.histogram("kernel.gemm.rows", unit="rows").observe(n_active)
            self.metrics.histogram("kernel.gemm.width", unit="cols").observe(w_j)

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
        if self.sanitizer is not None:
            lo, hi = self._block_slice(k, i)
            self.sanitizer.record_read(k, self.data.sub_rows(k)[lo:hi])

    def _block_update(self, k: int, i: int, j: int) -> "tuple[int, ...]":
        """``UP(k, i, j)``: GEMM of block row ``i`` into column ``j``.

        Reads the finished ``U`` block (k, j) straight from column ``j``'s
        panel (``SU(k, j)`` wrote it; the step chain orders the read) and
        the immutable multipliers of block (i, k) from panel ``k``. Updates
        of one step into different block rows write disjoint rows — the
        concurrency the 2-D mapping exists to exploit.
        """
        data = self.data
        m = data.sub_panel(k)
        w = data.width(k)
        panel_j = data.panels[j]
        if panel_j is None:
            raise SchedulingError(
                f"UP({k},{i},{j}) ran on a process that does not own column {j}"
            )
        rel = data.layout.relative_rows(k, j)
        u_kj = panel_j[int(rel[0]) : int(rel[0]) + w, :]
        subs = data.sub_rows(k)
        san = self.sanitizer
        if san is not None:
            san.record_read(j, subs[:w])
        if not u_kj.any():
            return ()  # SU(k, j) took the LazyS+ skip; nothing to push.
        lo, hi = self._block_slice(k, i)
        if san is not None:
            san.record_read(k, subs[lo:hi])
        active = self._facts(k).active
        a, b = np.searchsorted(active, (lo, hi))
        n_active = int(b - a)
        w_j = panel_j.shape[1]
        if n_active:
            rows, tgt = _stored(active[a:b], rel.take(active[a:b]))
            self._push_gemm(panel_j, m.take(rows, axis=0), tgt, u_kj, n_active)
            if san is not None and rows.size:
                san.record_read(j, subs[rows])
                san.record_write(j, subs[rows])
        return (0, 0, gemm_flops(hi - lo - n_active, w, w_j), gemm_flops(n_active, w, w_j))

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
        copies. ``solve_schedule`` is accepted for the end-to-end
        benchmark's staged pass, the only caller that builds a
        :class:`~repro.taskgraph.solve_graph.SolveSchedule` and stages it
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

"""Supernodal block triangular solves over the factorization's own panels.

The scalar solves in :mod:`repro.numeric.triangular` walk the CSC factors
one column at a time — O(n) interpreter iterations of tiny ``np.outer``
work per solve. But the factorization already computed L and U in dense
supernode panels; scattering them to scalar CSC only to re-walk them
column-wise throws the block structure away exactly where the serving hot
path needs it. :class:`BlockFactors` solves against the panels where they
lie. Per supernode ``k`` it holds

* the two triangular inverses of the ``(w, w)`` diagonal block — ``L⁻¹``,
  which ``Factor(k)`` derived for its own updates, and ``U⁻¹``, built here
  for all blocks of one width at a time — so each per-block solve is one
  small GEMM;
* a *view* of the panel rows below the diagonal (block column ``k`` of L)
  and a view of the panel rows above it (block column ``k`` of U), with
  the static row ids of both, which the
  :class:`~repro.numeric.blockdata.BlockLayout` owns;
* the rows ``Factor(k)``'s pivoting renamed, as (new id, old id) pairs.

There is one copy of the factors: the buffer the engine eliminated in.

The solve runs in *column* form, and treats the right-hand side as the
factorization treated every block column right of ``k``. Forward, blocks
ascending: apply block ``k``'s renames to ``y``, then ``y_k = L_kk⁻¹ y_k``
and ``y[rows_k] -= below_k · y_k`` — the renames, TRSM and GEMM of
``Update(k, ·)``, so the deferred-pivot permutation is applied as it was
chosen and L needs no relabelling. Backward, blocks descending:
``x_k = U_kk⁻¹ y_k`` then ``y[rows_k] -= above_k · x_k``. Multi-RHS
right-hand sides ride through the same GEMMs as genuine matrix width,
which is what turns :class:`repro.serve.SolverService` batching into
BLAS-3 work.

The order is fixed, and needs no schedule: the rows below a diagonal
belong to strictly later blocks and the rows of U above it to strictly
earlier ones, so when block ``k`` is reached every contribution to
``y_k`` has been subtracted, whatever the pivots were.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.numeric.blockdata import BlockColumnData
from repro.numeric.kernels import upper_inverse
from repro.util.errors import ShapeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (factor)
    from repro.numeric.factor import PanelFacts


class BlockFactors:
    """Panel-form factors of ``P A = L U``, ready for block solves.

    Built by ``LUFactorization.extract(retain_blocks=True)`` as views on
    the engine's panel buffer, which they keep alive after the engine is
    dropped; nothing writes the panels after extraction, so instances are
    safe to share read-only across threads.
    """

    def __init__(
        self,
        data: BlockColumnData,
        renames: "list[tuple[np.ndarray, np.ndarray] | None]",
        facts: "list[PanelFacts]",
    ) -> None:
        """Wrap a completed factorization's storage.

        ``renames[k]`` is ``(new ids, old ids)`` of the rows ``F(k)``'s
        pivoting moved (``None``: no swap); ``facts[k]`` carries ``L⁻¹`` of
        block ``k``'s diagonal block and the candidate positions below it
        that hold a nonzero multiplier. ``U⁻¹`` is built here, which only
        the solves read: one batch of :func:`upper_inverse` per width.
        """
        layout = data.layout
        self.n = data.n
        self.n_blocks = data.n_blocks
        starts = layout.starts.tolist()
        widths = layout.widths.tolist()
        # U⁻¹: one upper_inverse batch per power-of-two width class, each
        # block padded with the identity (which its inverse leaves alone).
        classes: "dict[int, list[int]]" = {}
        for k, w in enumerate(widths):
            classes.setdefault(1 << (w - 1).bit_length(), []).append(k)
        uinv: "dict[int, np.ndarray]" = {}
        for cw, ks in classes.items():
            d = np.tile(np.eye(cw), (len(ks), 1, 1))
            for i, k in enumerate(ks):
                d[i, : widths[k], : widths[k]] = data.sub_panels[k][: widths[k]]
            for k, inv in zip(ks, upper_inverse(d)):
                uinv[k] = inv[: widths[k], : widths[k]].copy()
        # Per block: (lo, hi, rename, L⁻¹, L rows below, U⁻¹, U rows above).
        self._steps = []
        for k, w in enumerate(widths):
            f = facts[k]
            self._steps.append(
                (
                    starts[k],
                    starts[k + 1],
                    renames[k],
                    f.linv,
                    _nonzero_rows(
                        data.sub_panels[k][w:], layout.sub_rows(k)[w:], f.active - w
                    ),
                    uinv[k],
                    _nonzero_rows(
                        data.panels[k][: layout.diag_offset(k)], layout.upper_rows(k)
                    ),
                )
            )

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` via ``L U x = P b`` (vector or multi-RHS)."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ShapeError(
                f"rhs has shape {b.shape}, expected ({self.n},) or ({self.n}, k)"
            )
        y = np.array(b if b.ndim == 2 else b[:, None], dtype=np.float64)
        for lo, hi, rename, linv, below, _, _ in self._steps:
            if rename is not None:
                new_ids, old_ids = rename
                y[new_ids] = y[old_ids]
            y_k = linv @ y[lo:hi]
            y[lo:hi] = y_k
            if below is not None:
                part, at, ids = below
                y[ids] -= part[at] @ y_k
        for lo, hi, _, _, _, uinv, above in reversed(self._steps):
            x_k = uinv @ y[lo:hi]
            y[lo:hi] = x_k
            if above is not None:
                part, at, ids = above
                y[ids] -= part[at] @ x_k
        return y if b.ndim == 2 else y[:, 0]


def _nonzero_rows(
    part: np.ndarray, ids: np.ndarray, at: "np.ndarray | None" = None
) -> "tuple[np.ndarray, np.ndarray, np.ndarray] | None":
    """``(part, at, ids[at])`` for the rows ``at`` of the panel view
    ``part`` that are not entirely zero (found here unless the caller
    knows them), ``None`` if there is none.

    The static structure over-estimates what pivoting fills (LazyS+): most
    stored rows stay exactly zero. A solve step gathers the others, so it
    reads what the elimination wrote and not the padding around it.
    """
    if at is None:
        at = part.any(axis=1).nonzero()[0]
    return (part, at, ids[at]) if at.size else None

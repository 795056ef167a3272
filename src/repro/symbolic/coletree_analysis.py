"""SuperLU-style analysis via the column elimination tree (paper §3 foil).

SuperLU permutes columns by a postorder on the *column etree* — the
elimination tree of ``AᵀA`` — and derives structure from the Cholesky factor
of ``AᵀA``. The paper's §3 argues this "substantially overestimates the
structures of L and U, and implicitly the supernodes which will actually
occur in practice", and replaces it with the LU eforest of the exact static
fill ``Ā``.

This module implements the SuperLU-side analysis so the claim can be
measured: :func:`coletree_analysis` produces the column-etree postorder, the
``AᵀA``-Cholesky structure bound, and the supernode partition that bound
implies; :func:`compare_analyses` puts it side by side with the LU-eforest
pipeline on the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ordering.etree import column_etree, postorder_forest, relabel_forest
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import permute
from repro.symbolic.postorder import postorder_pipeline
from repro.symbolic.static_fill import (
    StaticFill,
    ata_cholesky_bound,
    static_symbolic_factorization,
)
from repro.symbolic.supernodes import SupernodePartition, amalgamate, supernode_partition


@dataclass
class ColetreeAnalysis:
    """Outcome of the SuperLU-style (column etree) structural analysis."""

    perm: np.ndarray  # column-etree postorder (applied symmetrically)
    bound_pattern: CSCMatrix  # AᵀA-Cholesky structure bound, postordered
    exact_fill: StaticFill  # the true static fill under the same postorder
    partition: SupernodePartition  # supernodes as the bound predicts them

    @property
    def overestimate(self) -> float:
        """``nnz(bound) / nnz(Ā)`` — §3's "substantially overestimates"."""
        return self.bound_pattern.nnz / max(1, self.exact_fill.nnz)


def coletree_analysis(a: CSCMatrix) -> ColetreeAnalysis:
    """Analyze ``a`` the SuperLU way: column-etree postorder + ``AᵀA`` bound.

    ``a`` must already have a zero-free diagonal and its fill-reducing
    ordering applied (as in the paper's pipeline, the comparison is about
    the *structure source*, not the ordering).
    """
    parent = column_etree(a)
    perm = postorder_forest(parent)
    work = permute(a, row_perm=perm, col_perm=perm)
    bound = ata_cholesky_bound(work)
    exact = static_symbolic_factorization(work)
    # Supernodes as the bound sees them: same partitioning rule, applied to
    # the (overestimated) structure. The bound is symmetric, so its
    # Definition-1 forest is the elimination tree of AᵀA: the column etree,
    # under the postorder's labels.
    bound_fill = StaticFill(
        pattern=bound, nnz_original=a.nnz, parent=relabel_forest(parent, perm)
    )
    part = amalgamate(bound_fill, supernode_partition(bound_fill))
    return ColetreeAnalysis(
        perm=perm, bound_pattern=bound, exact_fill=exact, partition=part
    )


@dataclass
class AnalysisComparison:
    """LU-eforest pipeline vs column-etree pipeline on one matrix."""

    name: str
    nnz_exact: int  # |Ā| under the eforest postorder
    nnz_bound: int  # |AᵀA-Cholesky| under the column-etree postorder
    overestimate: float
    supernodes_eforest: int
    supernodes_coletree: int


def compare_analyses(a: CSCMatrix, name: str = "") -> AnalysisComparison:
    """Run both analyses on the (pre-ordered) matrix ``a``."""
    fill = static_symbolic_factorization(a)
    po = postorder_pipeline(fill)
    part_ef = amalgamate(po.fill, supernode_partition(po.fill))
    col = coletree_analysis(a)
    return AnalysisComparison(
        name=name,
        nnz_exact=po.fill.nnz,
        nnz_bound=col.bound_pattern.nnz,
        overestimate=col.overestimate,
        supernodes_eforest=part_ef.n_supernodes,
        supernodes_coletree=col.partition.n_supernodes,
    )

"""Step (1) of the paper's pipeline: orderings.

* :mod:`repro.ordering.transversal` — Duff's maximum-transversal algorithm
  (the paper cites [3]) producing a row permutation with a zero-free
  diagonal, a precondition of the static symbolic factorization.
* :mod:`repro.ordering.mindeg` — minimum degree on the ``AᵀA`` pattern, the
  fill-reducing ordering the paper uses ("we use the minimum degree
  algorithm on AᵀA").
* :mod:`repro.ordering.amd` — approximate minimum degree (Amestoy-Davis-
  Duff) with quotient-graph element absorption, mass elimination, and
  supervariables; the fast production ordering the autotuner
  (:mod:`repro.tune`) searches over.
* :mod:`repro.ordering.dissect` — nested dissection from BFS level-set
  separators with greedy refinement (the SPRAL order→analyse shape,
  without METIS).
* :mod:`repro.ordering.rcm` — reverse Cuthill-McKee, an alternative ordering
  used by the ordering ablation benchmark.
* :mod:`repro.ordering.etree` — the column elimination tree (etree of
  ``AᵀA``) that SuperLU postorders, used here as the baseline against the LU
  eforest, plus generic forest utilities (postorder, depths, roots).

:data:`ORDERINGS` is the one catalog of fill-reducing orderings: every
reader of an ordering name (``SolverOptions``, ``build_plan``, the CLI,
the autotuner) reads it, so adding one is an edit of this table alone.
"""

import numpy as np

from repro.ordering.transversal import maximum_transversal, zero_free_diagonal_permutation
from repro.ordering.mindeg import minimum_degree, minimum_degree_ata
from repro.ordering.amd import approximate_minimum_degree, amd_ata
from repro.ordering.dissect import nested_dissection, nested_dissection_ata
from repro.ordering.rcm import reverse_cuthill_mckee
from repro.ordering.btf import (
    block_triangular_permutation,
    strongly_connected_components,
)
from repro.ordering.etree import (
    column_etree,
    postorder_forest,
    relabel_forest,
    forest_roots,
    forest_children,
    forest_children_arrays,
    is_forest_permutation_topological,
)
from repro.sparse.csc import CSCMatrix


def natural_order(a: CSCMatrix) -> np.ndarray:
    """The identity ordering."""
    return np.arange(a.n_cols, dtype=np.int64)


#: Ordering name → fill-reducing ordering. Each takes the (row-permuted)
#: pattern, then the request's ``ordering_params`` as its keyword-only
#: parameters, and returns an old-index → elimination-position
#: permutation applied symmetrically.
ORDERINGS = {
    "mindeg": minimum_degree_ata,
    "amd": amd_ata,
    "rcm": reverse_cuthill_mckee,
    "dissect": nested_dissection_ata,
    "natural": natural_order,
}

#: The ordering a request gets when it names none: approximate minimum
#: degree — close to exact ``mindeg`` in fill at a fraction of its time
#: (docs/ordering.md). ``SolverOptions``, recipe specs and the CLI's
#: ``--ordering`` all default to this one constant.
DEFAULT_ORDERING = "amd"

__all__ = [
    "ORDERINGS",
    "DEFAULT_ORDERING",
    "natural_order",
    "maximum_transversal",
    "zero_free_diagonal_permutation",
    "minimum_degree",
    "minimum_degree_ata",
    "approximate_minimum_degree",
    "amd_ata",
    "nested_dissection",
    "nested_dissection_ata",
    "reverse_cuthill_mckee",
    "block_triangular_permutation",
    "strongly_connected_components",
    "column_etree",
    "postorder_forest",
    "relabel_forest",
    "forest_roots",
    "forest_children",
    "forest_children_arrays",
    "is_forest_permutation_topological",
]

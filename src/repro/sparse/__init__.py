"""Sparse-matrix substrate.

The paper's pipeline consumes an unsymmetric sparse matrix in compressed
column form; this subpackage provides the containers (:class:`CSCMatrix`,
:class:`CSRMatrix`), an incremental COO builder, conversions (including
to/from SciPy for oracle testing), pattern algebra (notably the ``AᵀA``
pattern used by the fill-reducing ordering and the column elimination tree),
file I/O, and the synthetic analogs of the paper's benchmark matrices.
"""

from repro.sparse.coo import COOBuilder
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.convert import (
    csc_to_csr,
    csr_to_csc,
    csc_from_dense,
    csc_to_scipy,
    csc_from_scipy,
)
from repro.sparse.pattern import (
    ata_pattern,
    has_zero_free_diagonal,
    pattern_contains,
    pattern_equal,
)
from repro.sparse.ops import permute, matvec
from repro.sparse.io import (
    read_matrix_market,
    write_matrix_market,
    read_rutherford_boeing,
    write_rutherford_boeing,
)
from repro.sparse.stats import MatrixStats, matrix_stats
from repro.sparse.generators import (
    PAPER_MATRICES,
    paper_matrix,
    reservoir_matrix,
    fluid_flow_matrix,
    finite_element_matrix,
    random_sparse,
)

__all__ = [
    "COOBuilder",
    "CSCMatrix",
    "CSRMatrix",
    "csc_to_csr",
    "csr_to_csc",
    "csc_from_dense",
    "csc_to_scipy",
    "csc_from_scipy",
    "ata_pattern",
    "has_zero_free_diagonal",
    "pattern_contains",
    "pattern_equal",
    "permute",
    "matvec",
    "read_matrix_market",
    "write_matrix_market",
    "read_rutherford_boeing",
    "write_rutherford_boeing",
    "MatrixStats",
    "matrix_stats",
    "PAPER_MATRICES",
    "paper_matrix",
    "reservoir_matrix",
    "fluid_flow_matrix",
    "finite_element_matrix",
    "random_sparse",
]

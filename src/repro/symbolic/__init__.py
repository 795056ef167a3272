"""Symbolic analysis: the paper's core contribution lives here.

* :mod:`repro.symbolic.static_fill` — George-Ng static symbolic
  factorization producing ``Ā = L̄ + Ū − I`` (paper step (2)); contains the
  fill of the LU factors under *every* partial-pivoting row sequence.
* :mod:`repro.symbolic.eforest` — the LU elimination forest of ``Ā``
  (Definition 1) and its extended annotations (Figure 1).
* :mod:`repro.symbolic.characterization` — Theorems 1-2: row subtrees of
  ``L̄``, column subtrees of ``Ū``, and the compact eforest-based storage
  scheme they imply (§2).
* :mod:`repro.symbolic.postorder` — §3: postorder the eforest, permute
  symmetrically (Theorem 3 invariance), detect the block upper triangular
  decomposition.
* :mod:`repro.symbolic.supernodes` — §3: L/U supernode partitioning and
  amalgamation, and the submatrix block pattern ``B̄`` fed to the task
  graphs.
"""

from repro.symbolic.static_fill import (
    StaticFill,
    static_symbolic_factorization,
    static_symbolic_factorization_reference,
    simulate_elimination_fill,
    ata_cholesky_bound,
)
from repro.symbolic.eforest import (
    lu_elimination_forest_reference,
    ExtendedEForest,
    extended_eforest,
)
from repro.symbolic.characterization import (
    l_row_structure_from_forest,
    u_col_structure_from_forest,
    verify_theorem1,
    verify_theorem2,
    CompactFactorStorage,
)
from repro.symbolic.postorder import (
    PostorderResult,
    postorder_pipeline,
    paper_postorder_interchanges,
    block_upper_triangular_blocks,
    is_block_upper_triangular,
)
from repro.symbolic.supernodes import (
    SupernodePartition,
    BlockPattern,
    supernode_partition,
    amalgamate,
    amalgamate_chains,
    block_pattern,
)
from repro.symbolic.coletree_analysis import (
    ColetreeAnalysis,
    AnalysisComparison,
    coletree_analysis,
    compare_analyses,
)

__all__ = [
    "StaticFill",
    "static_symbolic_factorization",
    "static_symbolic_factorization_reference",
    "simulate_elimination_fill",
    "ata_cholesky_bound",
    "lu_elimination_forest_reference",
    "ExtendedEForest",
    "extended_eforest",
    "l_row_structure_from_forest",
    "u_col_structure_from_forest",
    "verify_theorem1",
    "verify_theorem2",
    "CompactFactorStorage",
    "PostorderResult",
    "postorder_pipeline",
    "paper_postorder_interchanges",
    "block_upper_triangular_blocks",
    "is_block_upper_triangular",
    "SupernodePartition",
    "BlockPattern",
    "supernode_partition",
    "amalgamate",
    "amalgamate_chains",
    "block_pattern",
    "ColetreeAnalysis",
    "AnalysisComparison",
    "coletree_analysis",
    "compare_analyses",
]

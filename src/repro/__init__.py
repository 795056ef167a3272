"""repro — Parallel sparse LU with postordering and static symbolic factorization.

A from-scratch reproduction of Cosnard & Grigori, *Using Postordering and
Static Symbolic Factorization for Parallel Sparse LU* (IPPS/IPDPS 2000):

* the George-Ng **static symbolic factorization** producing ``Ā``,
* the **LU elimination forest** and the Theorem 1-2 characterization of the
  ``L̄``/``Ū`` factors (including the compact storage scheme),
* the §3 **postordering** (block upper triangular form, larger supernodes),
* L/U **supernode partitioning** and amalgamation,
* the §4 **minimal task dependence graph** versus the S* baseline,
* a supernodal **numerical factorization** with partial pivoting, and
* a **parallel substrate** (machine-model event simulation, RAPID-style
  static scheduling, threaded execution) regenerating the paper's Tables 1-3
  and Figures 5-6.

Quickstart
----------
>>> import numpy as np
>>> from repro import paper_matrix
>>> from repro.api import lu
>>> a = paper_matrix("sherman3", scale=0.2)
>>> fact = lu(a)                  # build_plan, then refactorize_with_plan
>>> x = fact.solve(np.ones(a.n_cols))
>>> fact.solver.residual_norm(x, np.ones(a.n_cols)) < 1e-10
True
"""

from repro.sparse import (
    CSCMatrix,
    CSRMatrix,
    COOBuilder,
    paper_matrix,
    PAPER_MATRICES,
    read_matrix_market,
    write_matrix_market,
    read_rutherford_boeing,
)
from repro.ordering import (
    zero_free_diagonal_permutation,
    minimum_degree_ata,
    amd_ata,
    nested_dissection_ata,
    column_etree,
    postorder_forest,
)
from repro.symbolic import (
    static_symbolic_factorization,
    extended_eforest,
    postorder_pipeline,
    supernode_partition,
    amalgamate,
    block_pattern,
    CompactFactorStorage,
)
from repro.taskgraph import (
    TaskGraph,
    Task,
    build_sstar_graph,
    build_eforest_graph,
    block_eforest,
)
from repro.numeric import (
    SolverOptions,
    LUFactorization,
    FactorResult,
    scalar_lu,
    iterative_refinement,
    condest_1norm,
)
from repro.parallel import (
    MachineModel,
    ORIGIN2000,
    simulate_schedule,
    threaded_factorize,
    DynamicRuntime,
)
from repro.obs import (
    Tracer,
    MetricsRegistry,
    export_json,
    validate_document,
    render_trace,
)

# Serving layer last: it composes the numeric + obs layers above.
from repro.serve import (
    SolverService,
    PlanCache,
    SymbolicPlan,
    build_plan,
    fingerprint,
    refactorize_with_plan,
)

# Recipe autotuning composes the serving + parallel layers.
from repro.tune import (
    RecipeScore,
    TuneResult,
    autotune,
    evaluate_recipe,
)

__version__ = "1.0.0"

__all__ = [
    "CSCMatrix",
    "CSRMatrix",
    "COOBuilder",
    "paper_matrix",
    "PAPER_MATRICES",
    "read_matrix_market",
    "write_matrix_market",
    "read_rutherford_boeing",
    "zero_free_diagonal_permutation",
    "minimum_degree_ata",
    "amd_ata",
    "nested_dissection_ata",
    "column_etree",
    "postorder_forest",
    "static_symbolic_factorization",
    "extended_eforest",
    "postorder_pipeline",
    "supernode_partition",
    "amalgamate",
    "block_pattern",
    "CompactFactorStorage",
    "TaskGraph",
    "Task",
    "build_sstar_graph",
    "build_eforest_graph",
    "block_eforest",
    "SolverOptions",
    "LUFactorization",
    "FactorResult",
    "scalar_lu",
    "iterative_refinement",
    "condest_1norm",
    "MachineModel",
    "ORIGIN2000",
    "simulate_schedule",
    "threaded_factorize",
    "DynamicRuntime",
    "Tracer",
    "MetricsRegistry",
    "export_json",
    "validate_document",
    "render_trace",
    "SolverService",
    "PlanCache",
    "SymbolicPlan",
    "build_plan",
    "fingerprint",
    "refactorize_with_plan",
    "RecipeScore",
    "TuneResult",
    "autotune",
    "evaluate_recipe",
    "__version__",
]

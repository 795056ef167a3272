"""Numerical factorization (paper step (3)) and triangular solves (step (4)).

The factorization runs on the dense submatrix blocks ``B̄`` produced by the
supernode partition. Work is expressed as the Factor/Update tasks of
:mod:`repro.taskgraph`; :class:`LUFactorization` executes any topological
order of either dependence graph — sequentially, under the thread-pool
executor, or implicitly inside the machine simulator via the flop/byte cost
model in :mod:`repro.numeric.costs`.

Partial pivoting follows the S+ discipline: pivots are chosen among the
*candidate rows* of a block column (the rows of its stored diagonal-and-below
blocks). The static symbolic factorization made all candidate rows
structurally identical at elimination time, so these row exchanges never
create structure outside ``Ā``.
"""

from repro.numeric.kernels import (
    lu_panel_inplace,
    lu_panel_flops,
    update_flops,
)
from repro.numeric.blockdata import BlockColumnData
from repro.numeric.factor import LUFactorization, FactorResult, LazyStats
from repro.numeric.supersolve import BlockFactors
from repro.numeric.costs import CostModel
from repro.numeric.triangular import (
    lower_unit_solve_csc,
    upper_solve_csc,
    lower_transpose_unit_solve_csc,
    upper_transpose_solve_csc,
)
from repro.numeric.scaling import Equilibration, equilibrate
from repro.numeric.solver import SolverOptions
from repro.numeric.scalar_lu import ScalarLUResult, scalar_lu
from repro.numeric.memory import MemoryReport, memory_report
from repro.numeric.refine import (
    RefinementResult,
    backward_error,
    condest_1norm,
    iterative_refinement,
)

__all__ = [
    "lu_panel_inplace",
    "lu_panel_flops",
    "update_flops",
    "BlockColumnData",
    "LUFactorization",
    "FactorResult",
    "LazyStats",
    "BlockFactors",
    "CostModel",
    "lower_unit_solve_csc",
    "upper_solve_csc",
    "lower_transpose_unit_solve_csc",
    "upper_transpose_solve_csc",
    "Equilibration",
    "equilibrate",
    "SolverOptions",
    "ScalarLUResult",
    "scalar_lu",
    "MemoryReport",
    "memory_report",
    "RefinementResult",
    "backward_error",
    "condest_1norm",
    "iterative_refinement",
]

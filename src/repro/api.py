"""One-call convenience API.

For users who want the paper's machinery without driving the pipeline:

>>> import numpy as np
>>> from repro.api import lu, solve
>>> from repro.sparse import paper_matrix
>>> a = paper_matrix("orsreg1", scale=0.15)
>>> x = solve(a, np.ones(a.n_cols))
>>> fact = lu(a)
>>> x2 = fact.solve(np.ones(a.n_cols))
>>> bool(np.allclose(x, x2))
True

Repeated solves on a frozen sparsity pattern skip the symbolic analysis
entirely via the serving layer (docs/serving.md):

>>> plan = fact.plan              # freeze the static analysis
>>> fact2 = lu(a, plan=plan)      # warm start: numeric phase only
>>> fact3 = fact.refactor(a.data * 2.0)   # new values, same pattern
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.numeric.solver import SolverOptions
from repro.obs.trace import Tracer
from repro.serve.plan import build_plan
from repro.serve.refactor import NumericFactorization, refactorize_with_plan
from repro.sparse.csc import CSCMatrix
from repro.util.errors import DispatchError, ShapeError


@dataclass
class LUHandle:
    """A factorized matrix ready for repeated solves."""

    #: The factorization: its plan, matrix, factors and tracer. The name
    #: predates the plan/factorization split and is kept for callers that
    #: read ``lu(a).solver.result``.
    solver: NumericFactorization

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for one RHS ``(n,)`` or a block of them ``(n, k)``."""
        return self.solver.solve(b)

    def solve_refined(self, b: np.ndarray, *, max_iters: int = 5, tol: float = 1e-14):
        """Solve with iterative refinement; returns a ``RefinementResult``.

        Uses the factors for both the initial solve and the residual
        corrections (fixed-precision refinement, as SuperLU does).
        """
        from repro.numeric.refine import iterative_refinement

        fac = self.solver
        with fac.tracer.span("solve_refined") as s:
            rr = iterative_refinement(fac.a, fac.solve, b, max_iters=max_iters, tol=tol)
            s.set(iterations=rr.iterations, converged=rr.converged)
        return rr

    def refactor(self, values) -> "LUHandle":
        """Re-factor with ``values`` replacing the matrix's data array.

        ``values`` is either a flat array aligned with the stored pattern
        (``a.data`` order, length ``nnz``) or a full :class:`CSCMatrix`
        with the identical pattern (else
        :class:`~repro.util.errors.PlanMismatchError`). Only the numeric
        phase runs — the symbolic analysis of the original factorization
        is reused (Theorem 3 makes it a pure function of the pattern).
        """
        if isinstance(values, CSCMatrix):
            a_new = values
        else:
            values = np.asarray(values, dtype=np.float64)
            a_new = self.solver.a.with_values(values)
        self.solver = refactorize_with_plan(
            self.solver.plan, a_new, tracer=self.solver.tracer
        )
        return self

    @property
    def plan(self):
        """This factorization's symbolic analysis as a frozen, cacheable
        :class:`repro.serve.SymbolicPlan` (see docs/serving.md)."""
        return self.solver.plan

    @property
    def condition_estimate(self) -> float:
        return self.solver.condition_estimate()

    @property
    def stats(self):
        return self.solver.plan.stats()

    @property
    def trace(self):
        """The handle's :class:`repro.obs.Tracer`.

        ``trace.export()`` produces the schema-versioned telemetry JSON
        document; ``repro.obs.render_trace`` renders it. Detail metrics
        (per-kernel counters) are present when the handle was created with
        ``lu(a, trace=True)``.
        """
        return self.solver.tracer


def lu(
    a: CSCMatrix,
    *,
    trace: bool = False,
    plan=None,
    engine: "str | None" = None,
    n_workers: int = 4,
    **options,
) -> LUHandle:
    """Analyze and factorize ``a``; keyword args map to
    :class:`SolverOptions` (``ordering=``, ``postorder=``, ...).

    :func:`repro.serve.build_plan` then
    :func:`repro.serve.refactorize_with_plan`, both under one always-on
    tracer. ``trace=True`` turns on detail tracing (see
    docs/observability.md); the resulting telemetry is available as
    ``handle.trace``.

    ``engine=`` selects the numeric executor (``"sequential"``,
    ``"threaded"``, or ``"proc"``); it overrides ``$REPRO_ENGINE``, which
    overrides the sequential default (docs/parallel.md). ``n_workers``
    sizes the parallel engines' pools; all engines produce bitwise
    identical factors.

    ``plan=`` warm-starts from a cached :class:`repro.serve.SymbolicPlan`
    built for this pattern (else
    :class:`~repro.util.errors.PlanMismatchError`): the symbolic phase is
    skipped and the plan's options apply (so ``plan=`` and option keywords
    are mutually exclusive).
    """
    if plan is not None and options:
        raise DispatchError(
            "lu(plan=...) uses the plan's options; do not also pass "
            f"option keywords {sorted(options)}"
        )
    if not a.has_values:
        raise ShapeError("lu() requires matrix values")
    tracer = Tracer(detail=trace)
    check_pattern = plan is not None
    if plan is None:
        plan = build_plan(a, SolverOptions(**options), tracer=tracer)
    fac = refactorize_with_plan(
        plan,
        a,
        tracer=tracer,
        check_pattern=check_pattern,
        engine=engine,
        n_workers=n_workers,
    )
    return LUHandle(solver=fac)


def solve(a: CSCMatrix, b: np.ndarray, **options) -> np.ndarray:
    """Solve ``A x = b`` (one RHS or a block) in one call (factors not kept)."""
    return lu(a, **options).solve(b)

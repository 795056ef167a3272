"""The numeric phase: factorization and solves against a symbolic plan.

The only numeric path of the library. Given a :class:`SymbolicPlan` and a
matrix carrying values on the plan's pattern, :func:`refactorize_with_plan`
runs value permutation, panel scatter, supernodal elimination and factor
extraction, and returns a self-contained :class:`NumericFactorization`
whose :meth:`~NumericFactorization.solve` is the only permuted/equilibrated
solve. Every entry point lands here — ``lu(a)`` after building a plan,
``lu(a, plan=)``, ``LUHandle.refactor`` and ``SolverService`` with a plan
already in hand — so a cold request is *build the plan, then the warm
request*. No ordering, fill, postorder,
supernode, or task-graph work happens here; the ``factorize`` tracer span
contains no symbolic child span, which the test suite pins as the
subsystem's core guarantee.

Because the plan (including its :class:`~repro.numeric.blockdata.BlockLayout`)
is immutable, any number of factorizations may run concurrently against
the same plan; each allocates its own value panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.numeric.factor import FactorResult, LUFactorization
from repro.obs.trace import Tracer
from repro.serve.plan import SymbolicPlan
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import matvec, permute
from repro.util.errors import (
    DispatchError,
    NonFiniteInputError,
    PlanMismatchError,
    ShapeError,
)


def permuted_values(plan: SymbolicPlan, a: CSCMatrix, tracer: Optional[Tracer] = None):
    """``(a_work, equil)``: ``a`` equilibrated (when the plan's options ask
    for it; ``equil`` is ``None`` otherwise) and permuted into the plan's
    elimination order — the matrix the engines factor."""
    equil = None
    if plan.options.equilibrate:
        from repro.numeric.scaling import equilibrate

        tr = tracer if tracer is not None else Tracer(enabled=False)
        with tr.span("equilibrate"):
            equil = equilibrate(a)
            a = equil.apply(a)
    return permute(a, row_perm=plan.row_perm, col_perm=plan.col_perm), equil


@dataclass
class NumericFactorization:
    """Factors of one value assignment, bound to the plan that produced them.

    Self-contained for solving: carries the composed permutations and the
    equilibration (when the plan's options ask for it), so :meth:`solve`
    needs nothing but a right-hand side.
    """

    plan: SymbolicPlan
    a: CSCMatrix
    a_work: CSCMatrix  # ``a`` as factored: equilibrated and permuted
    result: FactorResult
    equil: object = None  # Equilibration | None
    tracer: Optional[Tracer] = None

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` for a vector ``(n,)`` or multi-RHS ``(n, k)``.

        Multi-RHS solves are blocked: one pass over each triangular factor
        covers all columns — the kernel the service's request batching
        relies on. Factors from :func:`refactorize_with_plan` keep their
        panels, so this runs the block solves
        (:mod:`repro.numeric.supersolve`); a result extracted without
        them runs the scalar CSC solves (:meth:`FactorResult.solve`).
        """
        n = self.plan.n
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ShapeError(f"rhs has shape {b.shape}, expected ({n},) or ({n}, k)")
        if not np.isfinite(b).all():
            raise NonFiniteInputError("right-hand sides must be finite (no NaN/Inf)")
        blocks = self.result.blocks
        impl_used = "block" if blocks is not None else "reference"
        n_rhs = 1 if b.ndim == 1 else int(b.shape[1])
        tr = self.tracer if self.tracer is not None else Tracer(enabled=False)
        with tr.span("solve", n=n, n_rhs=n_rhs, impl=impl_used):
            if tr.enabled:
                tr.metrics.histogram("solve.n_rhs", unit="cols").observe(n_rhs)
            if self.equil is not None:
                b = self.equil.scale_rhs(b)
            b_work = b[self.plan.row_perm_inv]
            with tr.span(f"solve.{impl_used}") as s:
                if blocks is not None:
                    s.set(n_blocks=blocks.n_blocks)
                x_work = self.result.solve(b_work)
            x = x_work[self.plan.col_perm]
            if self.equil is not None:
                x = self.equil.unscale_solution(x)
        return x

    def residual_norm(self, x: np.ndarray, b: np.ndarray) -> float:
        """``‖A x − b‖_∞ / ‖b‖_∞`` against the *original* (unscaled) system."""
        b = np.asarray(b, dtype=np.float64)
        r = matvec(self.a, x) - b
        denom = float(np.max(np.abs(b))) or 1.0
        return float(np.max(np.abs(r))) / denom

    def condition_estimate(self) -> float:
        """Hager-Higham 1-norm condition estimate from the factors, of
        ``a_work``: the permutations leave the conditioning as it is."""
        from repro.numeric.refine import condest_1norm

        res = self.result
        return condest_1norm(self.a_work, res.l_factor, res.u_factor, res.orig_at)


def refactorize_with_plan(
    plan: SymbolicPlan,
    a: CSCMatrix,
    *,
    tracer: Optional[Tracer] = None,
    check_pattern: bool = True,
    order=None,
    sanitizer=None,
    engine: Optional[str] = None,
    n_workers: int = 4,
) -> NumericFactorization:
    """Numerically factorize ``a`` using ``plan``'s static analysis.

    ``a`` must carry values on exactly the plan's pattern (verified
    entry-for-entry unless ``check_pattern=False``, for callers that
    already verified — e.g. a cache hit in the same call chain). Deferred
    pivoting still runs: the static structure of ``Ā`` covers every pivot
    choice the S+ discipline can make, so new values never need new
    symbolic work (the paper's Theorem 3 argument).

    ``engine``/``n_workers`` select the numeric executor with the usual
    precedence (argument > ``$REPRO_ENGINE`` > sequential,
    :mod:`repro.parallel.dispatch`); the parallel engines produce factors
    bitwise identical to the sequential order. Every plan runs its block
    steps under the engine's own placement. ``order`` instead
    replays an explicit topological order of ``plan.graph`` sequentially
    (:func:`repro.parallel.dispatch.replay_order`) — an order *is* a
    schedule, so it excludes ``engine=``.

    The factors keep their supernodal panel form, so the solve runs the
    block engine (:mod:`repro.numeric.supersolve`).

    ``sanitizer`` optionally attaches a caller-owned
    :class:`repro.analysis.sanitizer.AccessSanitizer` to the run (its
    findings stay on the object — no exception); without one,
    ``REPRO_SANITIZE=1`` builds a strict sanitizer from the plan's static
    fill that raises :class:`~repro.util.errors.SanitizerError` on any
    footprint escape. A sanitizer checks block steps against the block
    eforest, and a replayed order against ``plan.graph``.

    The plan's task graph is read — and, on its first use, built — only
    on the ``order`` path. Every engine runs block steps over the block
    eforest and leaves it unbuilt.

    With detail tracing on, the engine feeds per-kernel counters and
    histograms into ``tracer.metrics``.
    """
    from repro.parallel.dispatch import replay_order, resolve_engine, run_engine

    if not a.has_values:
        raise ShapeError("refactorize_with_plan() requires matrix values")
    if not np.isfinite(a.data).all():
        raise NonFiniteInputError("matrix values must be finite (no NaN/Inf)")
    if check_pattern and not plan.matches(a):
        raise PlanMismatchError(
            f"matrix pattern ({a.n_rows}x{a.n_cols}, nnz={a.nnz}) does not "
            f"match the plan's ({plan.fingerprint})"
        )
    if order is not None and engine is not None:
        raise DispatchError("pass either an explicit order or engine=, not both")
    tr = tracer if tracer is not None else Tracer(enabled=False)
    metrics = tr.metrics if tr.detail else None
    if order is None:
        choice = resolve_engine(engine)
    else:
        # Ahead of the span: a first use of the plan's graph builds it, and
        # that is symbolic work, not part of ``factorize``.
        graph = plan.graph
    with tr.span("factorize", n=plan.n, nnz=plan.nnz) as s:
        a_work, equil = permuted_values(plan, a, tr)
        eng = LUFactorization(a_work, plan.bp, metrics=metrics, layout=plan.layout)
        if order is not None:
            replay_order(eng, order, graph, fill=plan.fill, sanitizer=sanitizer)
        else:
            run_engine(
                eng,
                None,
                choice,
                n_workers=n_workers,
                metrics=metrics,
                tracer=tr,
                fill=plan.fill,
                sanitizer=sanitizer,
            )
        result = eng.extract(retain_blocks=True)
        ls = eng.lazy_stats
        s.set(
            n_tasks=eng.n_tasks,
            n_updates_run=ls.n_updates_run,
            n_updates_skipped=ls.n_updates_skipped,
            flops_spent=ls.flops_spent,
            flops_saved=ls.flops_saved,
        )
    return NumericFactorization(
        plan=plan, a=a, a_work=a_work, result=result, equil=equil, tracer=tracer
    )

"""High-level solver facade: the paper's full pipeline behind one API.

:class:`SparseLUSolver` chains the four steps of §1 — fill-reducing ordering,
static symbolic factorization, numerical factorization, triangular solves —
with the paper's §3 postordering and §4 task graph in between. It is the
entry point the examples and benchmarks use:

>>> from repro.sparse import paper_matrix
>>> from repro.numeric import SparseLUSolver
>>> a = paper_matrix("orsreg1", scale=0.3)
>>> solver = SparseLUSolver(a).analyze().factorize()
>>> import numpy as np
>>> x = solver.solve(np.ones(a.n_cols))

This module holds what the request path is configured by — the frozen
:class:`SolverOptions` and their defaults — and the facade. The symbolic
half runs in :func:`repro.serve.build_plan`, whose
:class:`repro.serve.SymbolicPlan` depends only on (pattern, options) by the
paper's static-analysis property; the numeric half is
:func:`repro.serve.refactorize_with_plan`.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.numeric.factor import FactorResult
from repro.obs.trace import Tracer
from repro.ordering import DEFAULT_ORDERING, ORDERINGS
from repro.sparse.csc import CSCMatrix
from repro.util.errors import DispatchError, ReproError, ShapeError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.symbolic.static_fill import StaticFill
    from repro.symbolic.supernodes import BlockPattern, SupernodePartition
    from repro.taskgraph.dag import TaskGraph

#: The amalgamation bounds a request gets when it names none: the point a
#: wall-clock sweep of the warm request picks on this class of host under
#: the constraint that a cold request's peak memory does not move
#: (``benchmarks/results/ablation_amalgamation.txt``). The paper-era
#: 0.25 / 48 minimise *simulated* T(P=8) and are what :mod:`repro.eval`
#: pins, so the paper's tables do not move. ``SolverOptions`` and
#: recipe specs both default to these two constants.
DEFAULT_MAX_PADDING = 0.6
DEFAULT_MAX_SUPERNODE = 32

#: The §4 task graphs ``SolverOptions.task_graph`` names: the paper's
#: eforest graph and the S* baseline.
TASK_GRAPHS: tuple[str, ...] = ("eforest", "sstar")


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the pipeline (paper defaults unless noted).

    Frozen: a plan shares the options it was built under, so no caller
    can rewrite a cached plan's identity in place. Derive variants with
    :func:`dataclasses.replace`.

    Attributes
    ----------
    ordering:
        Fill-reducing column ordering, a name in the catalog
        :data:`repro.ordering.ORDERINGS`: ``"amd"`` (approximate minimum
        degree on ``AᵀA``, Amestoy-Davis-Duff style — the default,
        :data:`DEFAULT_ORDERING`), ``"mindeg"`` (exact minimum degree on
        ``AᵀA``, the paper's choice; several times slower, kept as the
        fill oracle and pinned by :mod:`repro.eval` so the paper's tables
        do not move), ``"dissect"`` (BFS level-set nested dissection),
        ``"rcm"``, or ``"natural"``.
    ordering_params:
        Extra keyword arguments of the selected ordering, as a sorted
        tuple of ``(name, value)`` pairs so options stay hashable (e.g.
        ``(("leaf_size", 96),)`` for ``dissect``). Part of the symbolic
        cache key: two recipes differing only here produce distinct
        plans. Every key must be a keyword parameter of the ordering's
        function; :func:`repro.tune.parse_recipe` builds these from a
        recipe spec.
    postorder:
        Apply the §3 eforest postordering (the paper's contribution; turn
        off to reproduce the "without postordering" rows of Table 3).
    amalgamation:
        Merge small supernodes (§3). ``max_padding``/``max_supernode`` bound
        the introduced explicit zeros and the block width; their defaults
        (:data:`DEFAULT_MAX_PADDING`, :data:`DEFAULT_MAX_SUPERNODE`) are
        measured, the paper-era pair is ``max_padding=0.25,
        max_supernode=48``.
    task_graph:
        ``"eforest"`` (the paper's §4 graph) or ``"sstar"`` (the baseline),
        from :data:`TASK_GRAPHS`.
    equilibrate:
        Max-norm row/column scaling before the pipeline (SuperLU's
        ``equil``); improves pivoting on badly scaled physical systems.
    symbolic_params:
        Execution knob of the ``"chunked"`` static-fill kernel as a tuple
        of ``(name, value)`` pairs — ``"chunk"`` (column chunk size, a
        positive int) is the only key. It is deliberately *not* part of
        :meth:`symbolic_key`: every chunk size produces the
        same artifacts bit-for-bit, so keying on it would only fragment
        the plan cache. Ignored by the ``"fast"`` implementation.
    """

    ordering: str = DEFAULT_ORDERING
    ordering_params: tuple = ()
    postorder: bool = True
    amalgamation: bool = True
    max_padding: float = DEFAULT_MAX_PADDING
    max_supernode: int = DEFAULT_MAX_SUPERNODE
    task_graph: str = "eforest"
    equilibrate: bool = False
    symbolic_params: tuple = ()

    def __post_init__(self) -> None:
        # Every rejection is a DispatchError: a ReproError and a ValueError.
        if not isinstance(self.ordering, str) or self.ordering not in ORDERINGS:
            raise DispatchError(
                f"unknown ordering {self.ordering!r}; valid orderings: "
                + ", ".join(ORDERINGS)
            )
        if self.task_graph not in TASK_GRAPHS:
            raise DispatchError(
                f"unknown task graph {self.task_graph!r}; valid task graphs: "
                + ", ".join(TASK_GRAPHS)
            )
        if not (isinstance(self.max_padding, numbers.Real) and 0 <= self.max_padding < 1):
            raise DispatchError(f"max_padding must be in [0, 1), got {self.max_padding}")
        if not (isinstance(self.max_supernode, numbers.Real) and self.max_supernode >= 1):
            raise DispatchError(f"max_supernode must be >= 1, got {self.max_supernode}")
        params = tuple(sorted((str(k), v) for k, v in self.ordering_params))
        if params:  # a default request inspects no signature
            sig = inspect.signature(ORDERINGS[self.ordering])
            valid = [p.name for p in sig.parameters.values() if p.kind == p.KEYWORD_ONLY]
            for k, v in params:
                if k not in valid:
                    raise DispatchError(
                        f"unknown ordering parameter {k!r} for {self.ordering!r}; "
                        "valid parameters: " + (", ".join(valid) or "none")
                    )
                if not isinstance(v, (bool, int, float, str)):
                    raise DispatchError(
                        f"ordering_params values must be scalars, got {v!r}"
                    )
        object.__setattr__(self, "ordering_params", params)
        sym = tuple(sorted((str(k), v) for k, v in self.symbolic_params))
        for k, v in sym:
            if k != "chunk":
                raise DispatchError(
                    f"unknown symbolic_params key {k!r}; expected 'chunk'"
                )
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise DispatchError(
                    f"symbolic_params[{k!r}] must be a positive int, got {v!r}"
                )
        object.__setattr__(self, "symbolic_params", sym)

    def ordering_kwargs(self) -> dict:
        """The ``ordering_params`` pairs as a keyword dict."""
        return dict(self.ordering_params)

    def symbolic_kwargs(self) -> dict:
        """The ``symbolic_params`` pairs as a keyword dict."""
        return dict(self.symbolic_params)

    def symbolic_key(self) -> tuple:
        """Hashable tuple of every option the symbolic phase consumes.

        Two matrices with equal patterns and equal symbolic keys produce
        identical :class:`repro.serve.SymbolicPlan` data — the cache key
        contract of :class:`repro.serve.PlanCache`. ``equilibrate`` is included even
        though it only scales values, so a cached plan also pins down the
        numeric pre-processing it was built to pair with.
        """
        return (
            self.ordering,
            self.ordering_params,
            self.postorder,
            self.amalgamation,
            float(self.max_padding),
            int(self.max_supernode),
            self.task_graph,
            self.equilibrate,
        )


@dataclass
class AnalysisStats:
    """Symbolic-phase measurements (the raw material of Tables 1 and 3)."""

    n: int
    nnz: int
    nnz_filled: int
    fill_ratio: float
    n_supernodes_raw: int
    n_supernodes: int
    mean_supernode_size: float
    n_btf_blocks: int
    n_tasks: int
    n_edges: int


class SparseLUSolver:
    """One-stop solver for ``A x = b`` by the paper's parallel sparse LU.

    Call :meth:`analyze` (symbolic pipeline), then :meth:`factorize`
    (numeric), then :meth:`solve`. A facade over the one request path of
    the library: it holds the :class:`repro.serve.SymbolicPlan` that
    :meth:`analyze` builds (or :meth:`adopt_plan` is handed) and the
    :class:`repro.serve.NumericFactorization` that
    :func:`repro.serve.refactorize_with_plan` makes of it. The plan's
    artefacts (static fill, partition, block pattern, task graph) stay
    readable as attributes for the benchmarks and the parallel executors.
    """

    def __init__(
        self,
        a: CSCMatrix,
        options: Optional[SolverOptions] = None,
        *,
        trace: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not a.is_square:
            raise ShapeError("solver requires a square matrix")
        if not a.has_values:
            raise ShapeError("solver requires matrix values")
        self.a = a
        self.options = options or SolverOptions()
        # Observability (docs/observability.md). The tracer always records
        # the coarse stage spans (~10 per solve); ``trace=True`` additionally
        # turns on fine-grained detail: per-kernel counters/histograms in
        # the numeric engine.
        self.tracer = tracer if tracer is not None else Tracer(detail=bool(trace))
        self._plan = None  # SymbolicPlan, from analyze() / adopt_plan()
        self._fac = None  # NumericFactorization, from factorize() / refactorize()
        # (a_work, equil) for callers that read them after analyze() and
        # drive an engine themselves; the factorization carries its own.
        self._values = None

    def _require_plan(self):
        if self._plan is None:
            raise ReproError("call analyze() first")
        return self._plan

    def _require_factors(self):
        if self._fac is None:
            raise ReproError("call factorize() first")
        return self._fac

    # ---- the plan's artefacts (None before analyze()) -------------------
    @property
    def row_perm(self) -> Optional[np.ndarray]:
        return self._plan.row_perm if self._plan is not None else None

    @property
    def col_perm(self) -> Optional[np.ndarray]:
        return self._plan.col_perm if self._plan is not None else None

    @property
    def fill(self) -> Optional[StaticFill]:
        return self._plan.fill if self._plan is not None else None

    @property
    def partition(self) -> Optional[SupernodePartition]:
        return self._plan.partition if self._plan is not None else None

    @property
    def bp(self) -> Optional[BlockPattern]:
        return self._plan.bp if self._plan is not None else None

    @property
    def graph(self) -> Optional[TaskGraph]:
        return self._plan.graph if self._plan is not None else None

    @property
    def n_btf_blocks(self) -> int:
        return self._plan.n_btf_blocks if self._plan is not None else 0

    # ---- the numeric state ----------------------------------------------
    def _current_values(self):
        if self._fac is not None:
            return self._fac.a_work, self._fac.equil
        if self._plan is None:
            return None, None
        if self._values is None:
            from repro.serve.refactor import permuted_values

            self._values = permuted_values(self._plan, self.a)
        return self._values

    @property
    def a_work(self) -> Optional[CSCMatrix]:
        """The matrix the engines factor: ``a`` equilibrated (when the
        options ask for it) and permuted by the plan."""
        return self._current_values()[0]

    @property
    def equil(self):
        """The :class:`~repro.numeric.scaling.Equilibration` applied to
        ``a``, or ``None`` without ``options.equilibrate``."""
        return self._current_values()[1]

    @property
    def result(self) -> Optional[FactorResult]:
        return self._fac.result if self._fac is not None else None

    @result.setter
    def result(self, result: FactorResult) -> None:
        """Adopt factors of ``a_work`` computed outside :meth:`factorize`
        (callers that drive an executor themselves), so :meth:`solve` works."""
        from repro.serve.refactor import NumericFactorization

        a_work, equil = self._current_values()
        self._fac = NumericFactorization(
            self._require_plan(), self.a, a_work, result, equil, self.tracer
        )

    # ------------------------------------------------------------------
    def analyze(self) -> "SparseLUSolver":
        """Steps (1)-(2) plus §3 postordering/supernodes
        (:func:`repro.serve.build_plan` on this matrix's pattern); the §4
        graph is built when :attr:`graph` is first read.

        Every stage runs inside a tracer span nested under ``analyze``
        (hierarchy documented in docs/observability.md); the spans carry
        the symbolic statistics as attributes.
        """
        from repro.serve.plan import build_plan

        self._plan = build_plan(self.a, self.options, tracer=self.tracer)
        self._fac = self._values = None
        return self

    def adopt_plan(self, plan) -> "SparseLUSolver":
        """Adopt a prebuilt :class:`repro.serve.SymbolicPlan` instead of
        running :meth:`analyze`.

        The plan's pattern must equal this matrix's pattern (verified
        entry-for-entry, not just by fingerprint). The solver takes over
        the plan's options, so numeric pre-processing (equilibration)
        matches what the plan was built for. No span is opened — this is
        the warm path of the serving subsystem.
        """
        from repro.util.errors import PlanMismatchError

        if not plan.matches(self.a):
            raise PlanMismatchError(
                "plan was built for a different sparsity pattern "
                f"({plan.fingerprint} vs this {self.a.n_rows}x{self.a.n_cols} "
                f"matrix with nnz={self.a.nnz})"
            )
        self.options = plan.options
        self._plan = plan
        self._fac = self._values = None
        return self

    def plan(self):
        """This solver's symbolic analysis — the frozen, shareable
        :class:`repro.serve.SymbolicPlan` it holds (requires
        :meth:`analyze` or :meth:`adopt_plan`)."""
        return self._require_plan()

    def stats(self) -> AnalysisStats:
        from repro.symbolic.supernodes import supernode_partition

        plan = self._require_plan()
        return AnalysisStats(
            n=plan.fill.n,
            nnz=self.a.nnz,
            nnz_filled=plan.fill.nnz,
            fill_ratio=plan.fill.fill_ratio,
            n_supernodes_raw=supernode_partition(plan.fill).n_supernodes,
            n_supernodes=plan.partition.n_supernodes,
            mean_supernode_size=plan.partition.mean_size(),
            n_btf_blocks=plan.n_btf_blocks,
            n_tasks=plan.graph.n_tasks,
            n_edges=plan.graph.n_edges,
        )

    # ------------------------------------------------------------------
    def _factorize(self, a: CSCMatrix, **kwargs) -> "SparseLUSolver":
        from repro.serve.refactor import refactorize_with_plan

        self._fac = refactorize_with_plan(
            self._require_plan(), a, tracer=self.tracer, check_pattern=False, **kwargs
        )
        self.a = a
        self._values = None
        return self

    def factorize(
        self,
        order=None,
        *,
        engine: Optional[str] = None,
        n_workers: int = 4,
        sanitizer=None,
    ) -> "SparseLUSolver":
        """Numerical factorization (step (3)):
        :func:`repro.serve.refactorize_with_plan` against the held plan,
        which documents the arguments.

        ``order`` may be any topological order of the task graph; ``None``
        uses the execution engine instead — ``engine`` selects
        ``"sequential"`` (default), ``"threaded"``, or ``"proc"``, with
        ``n_workers`` threads/processes.

        With detail tracing on, the numeric engine feeds per-kernel
        counters/histograms into ``tracer.metrics``.
        """
        self._factorize(
            self.a,
            order=order,
            engine=engine,
            n_workers=n_workers,
            sanitizer=sanitizer,
        )
        return self

    def refactorize(
        self,
        a_new: CSCMatrix,
        order=None,
        *,
        engine: Optional[str] = None,
        n_workers: int = 4,
    ) -> "SparseLUSolver":
        """Numeric factorization of *new values* on the same pattern.

        The static symbolic analysis depends only on the pattern, so a
        sequence of systems with a frozen sparsity structure — Newton steps
        of a reservoir simulation, time steps of a transient solve — pays
        for ``analyze()`` once and calls this per step. ``a_new`` must have
        exactly the pattern of the original matrix (values free, pivoting
        handled anew); no symbolic or structural work runs at all. The
        other arguments are :meth:`factorize`'s.
        """
        if not self._require_plan().matches(a_new):
            raise ShapeError(
                "refactorize() requires the original sparsity pattern; run a "
                "fresh SparseLUSolver for a different structure"
            )
        return self._factorize(
            a_new,
            order=order,
            engine=engine,
            n_workers=n_workers,
        )

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` using the computed factors (step (4)):
        :meth:`repro.serve.NumericFactorization.solve`.

        ``b`` may be a vector of shape ``(n,)`` or a matrix of ``k``
        right-hand sides of shape ``(n, k)``.
        """
        return self._require_factors().solve(b)

    def solve_refined(self, b: np.ndarray, *, max_iters: int = 5, tol: float = 1e-14):
        """Solve with iterative refinement; returns a ``RefinementResult``.

        Uses the already-computed factors for both the initial solve and the
        residual corrections (fixed-precision refinement, as SuperLU does).
        """
        from repro.numeric.refine import iterative_refinement

        fac = self._require_factors()
        with self.tracer.span("solve_refined") as s:
            rr = iterative_refinement(
                self.a, fac.solve, b, max_iters=max_iters, tol=tol
            )
            s.set(iterations=rr.iterations, converged=rr.converged)
        return rr

    def condition_estimate(self) -> float:
        """Hager-Higham 1-norm condition estimate from the factors."""
        from repro.numeric.refine import condest_1norm

        fac = self._require_factors()
        # Fold the symbolic permutations into a factor-level solve: the
        # estimator works on A_work, whose conditioning equals A's.
        res = fac.result
        return condest_1norm(fac.a_work, res.l_factor, res.u_factor, res.orig_at)

    def residual_norm(self, x: np.ndarray, b: np.ndarray) -> float:
        """``‖A x − b‖_∞ / ‖b‖_∞`` — the acceptance metric of the tests:
        :meth:`repro.serve.NumericFactorization.residual_norm`."""
        return self._require_factors().residual_norm(x, b)

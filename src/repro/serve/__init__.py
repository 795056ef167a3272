"""Serving subsystem: plan caching, refactorization, batched solving.

The paper's static symbolic factorization depends only on the sparsity
pattern (and, by Theorem 3, is invariant under the postordering), so the
expensive analysis — fill, eforest, postorder, supernodes, task graph —
is computed once per pattern and reused across every numeric
factorization that follows. This package turns that property into a
serving layer:

* :func:`fingerprint` / :class:`PatternFingerprint` — canonical identity
  of a CSC sparsity pattern;
* :class:`SymbolicPlan` / :func:`build_plan` — the frozen, thread-safe
  product of one symbolic analysis;
* :class:`PlanCache` — bounded LRU over plans, instrumented via
  :mod:`repro.obs`;
* :func:`refactorize_with_plan` / :class:`NumericFactorization` — the
  numeric phase and the solves, shared by every entry point (a cold
  request is ``build_plan`` followed by this);
* :class:`SolverService` — worker pool with bounded-queue backpressure,
  per-request deadlines, and same-matrix multi-RHS batching.

See ``docs/serving.md`` for the workflow and guarantees.
"""

from repro.serve.cache import PlanCache
from repro.serve.fingerprint import PatternFingerprint, fingerprint, values_digest
from repro.serve.plan import SymbolicPlan, build_plan
from repro.serve.refactor import NumericFactorization, refactorize_with_plan
from repro.serve.service import PendingResult, SolverService
from repro.util.errors import (
    DeadlineExceededError,
    NonFiniteInputError,
    PlanMismatchError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
)

__all__ = [
    "PatternFingerprint",
    "fingerprint",
    "values_digest",
    "SymbolicPlan",
    "build_plan",
    "PlanCache",
    "NumericFactorization",
    "refactorize_with_plan",
    "SolverService",
    "PendingResult",
    "ServeError",
    "PlanMismatchError",
    "ServiceOverloadedError",
    "DeadlineExceededError",
    "NonFiniteInputError",
    "ServiceClosedError",
]

"""What a request is configured by: :class:`SolverOptions` and its defaults.

A request runs the four steps of §1 — fill-reducing ordering, static
symbolic factorization, numerical factorization, triangular solves — with
the paper's §3 postordering and §4 task graph in between, in two halves.
The symbolic half is :func:`repro.serve.build_plan`, whose
:class:`repro.serve.SymbolicPlan` depends only on (pattern, options) by the
paper's static-analysis property; the numeric half is
:func:`repro.serve.refactorize_with_plan`. :func:`repro.api.lu` runs both:

>>> import numpy as np
>>> from repro.api import lu
>>> from repro.sparse import paper_matrix
>>> a = paper_matrix("orsreg1", scale=0.3)
>>> fact = lu(a, ordering="amd")  # keywords are SolverOptions fields
>>> x = fact.solve(np.ones(a.n_cols))
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass

from repro.ordering import DEFAULT_ORDERING, ORDERINGS
from repro.util.errors import DispatchError

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

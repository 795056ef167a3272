"""Implementation selection for the symbolic kernels.

The static fill has one George-Ng row-merge kernel
(:func:`repro.symbolic.chunked.row_merge`), run in one of two modes:

* ``"fast"`` — the whole matrix as one column chunk: the lowest
  wall-clock time;
* ``"chunked"`` — the large-n mode: the same merge assembled over column
  chunks (``chunk=``, default sized from ``n`` and ``nnz``), so peak
  working memory stays bounded by one chunk's output plus the merge
  frontier instead of the total fill. Bit-exact with ``"fast"``.

The eforest and postorder stages have one kernel each and run it under
either name.

Selection order: an explicit ``impl=`` argument wins, then the
``REPRO_SYMBOLIC`` environment variable, then the default (``"fast"``).
Both produce identical :class:`~repro.symbolic.static_fill.StaticFill`
patterns.

The per-element Python data-structure kernels
(:func:`~repro.symbolic.static_fill.static_symbolic_factorization_reference`,
:func:`~repro.symbolic.eforest.lu_elimination_forest_reference`) are not
selectable: they are the readable oracles that
``tests/symbolic/test_symbolic_impls.py`` and ``bench_symbolic`` call
directly to pin the array kernels.

Unknown names raise :class:`repro.util.errors.DispatchError` (a
``ValueError`` subclass) naming the valid set and the source of the bad
value, so a typo'd environment variable fails at resolution time instead
of surfacing deep inside the pipeline.
"""

from __future__ import annotations

from repro.util.dispatch import resolve_choice

#: Environment variable consulted when no explicit ``impl`` is passed.
ENV_VAR = "REPRO_SYMBOLIC"

#: Recognized implementation names.
IMPLEMENTATIONS = ("fast", "chunked")

#: Used when neither the argument nor the environment selects one.
DEFAULT_IMPL = "fast"


def resolve_impl(impl: str | None = None) -> str:
    """The symbolic implementation to use: ``impl`` > ``$REPRO_SYMBOLIC`` >
    ``"fast"`` (:func:`repro.util.resolve_choice`)."""
    return resolve_choice(impl, ENV_VAR, IMPLEMENTATIONS, DEFAULT_IMPL, "symbolic impl")

"""Implementation selection for the symbolic kernels.

The symbolic pipeline ships two bit-exact implementations of its
kernels (static fill, eforest parents, postorder):

* ``"fast"`` — flat NumPy array kernels (sorted-array row merge with a
  union-find representative-row scheme, vectorized parent extraction,
  iterative postorder) that cut the cold-path plan-build latency;
* ``"chunked"`` — the large-n production path: the same George-Ng merge
  streamed over column chunks so peak working memory stays bounded by
  the chunk output plus the merge frontier instead of the total fill
  (:mod:`repro.symbolic.chunked`). Bit-exact with ``"fast"``. Only the
  static fill has a dedicated chunked kernel; the eforest/postorder
  stages reuse the ``"fast"`` array kernels under this name.

Selection order: an explicit ``impl=`` argument wins, then the
``REPRO_SYMBOLIC`` environment variable, then the default (``"fast"``).
Both produce identical :class:`~repro.symbolic.static_fill.StaticFill`
patterns, eforest parent arrays, and postorder permutations.

The per-element Python data-structure kernels
(:func:`~repro.symbolic.static_fill.static_symbolic_factorization_reference`,
:func:`~repro.symbolic.eforest.lu_elimination_forest_reference`) are not
selectable: they are the readable oracles that
``tests/symbolic/test_symbolic_impls.py`` and ``bench_symbolic`` call
directly to pin ``"fast"``.

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

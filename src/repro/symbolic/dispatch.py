"""The symbolic implementation name, kept for the benchmark harness.

The static fill has one kernel, the George-Ng row merge of
:func:`repro.symbolic.static_fill.row_merge`, and the eforest and
postorder stages have one each. The staged pass of
``benchmarks/e2e/traced.py`` still resolves a name here and passes it as
``impl=`` to :func:`~repro.symbolic.static_fill.static_symbolic_factorization`
and :func:`~repro.symbolic.postorder.postorder_pipeline`, so the one name
stays accepted (as :func:`repro.numeric.solve_dispatch.resolve_impl` does
for the solve). The per-element reference kernels are oracles that the
tests and ``bench_symbolic`` call directly; no name selects them.
"""

from __future__ import annotations

from repro.util.errors import DispatchError


def resolve_impl(impl: str | None = None) -> str:
    """The symbolic implementation: always ``"fast"``. Any other name
    raises :class:`~repro.util.errors.DispatchError` (a ``ValueError``)."""
    if impl not in (None, "fast"):
        raise DispatchError(
            f"unknown symbolic impl {impl!r} (from the impl argument); "
            "valid symbolic impls: fast"
        )
    return "fast"

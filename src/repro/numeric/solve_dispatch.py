"""Reference/block implementation selection for the triangular solves.

The solve phase (paper step (4)) ships two implementations:

* ``"reference"`` — the scalar CSC substitution loops of
  :mod:`repro.numeric.triangular`, kept as the readable oracle the
  property tests compare against (and bit-for-bit the pre-supersolve
  behavior);
* ``"block"`` — the supernodal panel engine of
  :mod:`repro.numeric.supersolve`: one dense TRSM + GEMM pair per
  supernode over the retained block factors, level-scheduled by the
  solve dependence graph.

Selection order: an explicit ``impl=`` argument wins, then the
``REPRO_SOLVE`` environment variable, then the default (``"block"``).
The block path agrees with the reference to <= 1e-12 relative error
(``tests/numeric/test_supersolve.py`` pins the bound); selecting
``"reference"`` restores the scalar path exactly. Unknown names raise
:class:`repro.util.errors.DispatchError` at resolution time.
"""

from __future__ import annotations

from repro.util.dispatch import resolve_choice

#: Environment variable consulted when no explicit ``impl`` is passed.
ENV_VAR = "REPRO_SOLVE"

#: Recognized implementation names.
IMPLEMENTATIONS = ("block", "reference")

#: Used when neither the argument nor the environment selects one.
DEFAULT_IMPL = "block"


def resolve_impl(impl: str | None = None) -> str:
    """The solve implementation to use: ``impl`` > ``$REPRO_SOLVE`` >
    ``"block"`` (:func:`repro.util.resolve_choice`)."""
    return resolve_choice(impl, ENV_VAR, IMPLEMENTATIONS, DEFAULT_IMPL, "solve impl")

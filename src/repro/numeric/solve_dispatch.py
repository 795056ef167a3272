"""The solve implementation a request runs.

The solve phase (paper step (4)) has one request-path implementation,
the supernodal panel engine of :mod:`repro.numeric.supersolve`: one
dense TRSM + GEMM pair per supernode over the retained block factors.
The scalar CSC substitutions of :mod:`repro.numeric.triangular` are its
oracle; they run only for factors extracted without blocks
(``LUFactorization.extract(retain_blocks=False)``) and inside
:func:`repro.numeric.refine.condest_1norm`, which needs the transpose
solves.
"""

from __future__ import annotations


def resolve_impl() -> str:
    """The solve implementation of a request: always ``"block"``."""
    return "block"

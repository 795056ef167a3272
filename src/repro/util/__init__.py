"""Shared utilities: typed errors, validation, timing, table rendering, RNG.

These helpers are deliberately dependency-light; every other subpackage of
:mod:`repro` may import from here, but :mod:`repro.util` imports nothing from
the rest of the library.
"""

from repro.util.errors import (
    ReproError,
    ShapeError,
    PatternError,
    SingularMatrixError,
    StructurallySingularError,
    SchedulingError,
    FormatError,
)
from repro.util.timer import Timer
from repro.util.tables import format_table
from repro.util.rng import make_rng

__all__ = [
    "ReproError",
    "ShapeError",
    "PatternError",
    "SingularMatrixError",
    "StructurallySingularError",
    "SchedulingError",
    "FormatError",
    "Timer",
    "format_table",
    "make_rng",
]

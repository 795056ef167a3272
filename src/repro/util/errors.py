"""Typed exception hierarchy for the repro library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors (``TypeError`` and friends propagate as-is).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError, ValueError):
    """An array or matrix has an incompatible or non-square shape."""


class PatternError(ReproError, ValueError):
    """A sparsity pattern is malformed (unsorted, duplicated, out of range)."""


class SingularMatrixError(ReproError, ArithmeticError):
    """Numerical singularity: a zero (or below-threshold) pivot was met."""


class StructurallySingularError(ReproError, ValueError):
    """The matrix has no zero-free diagonal under any row permutation."""


class SchedulingError(ReproError, ValueError):
    """A task graph or schedule is invalid (cyclic, unmapped task, ...)."""


class DispatchError(ReproError, ValueError):
    """An implementation selector named an unknown implementation.

    Raised by the dispatch layers (``repro.parallel.dispatch`` and
    friends) when an explicit ``engine=`` / ``impl=`` argument or a
    selector environment variable (``REPRO_ENGINE``) does not name a known
    implementation. The message always lists the valid names and which
    source supplied the bad one. Subclasses :class:`ValueError` so pre-existing ``except
    ValueError`` call sites keep working.

    ``SolverOptions`` raises it for every option it rejects, from an
    unknown ordering or ``ordering_params`` key to an out-of-range bound,
    and so do the request path's other argument checks: conflicting
    ``lu`` / ``refactorize_with_plan`` arguments, out-of-range
    ``SolverService`` / ``PlanCache`` sizes, and an engine that cannot
    run the graph it was given."""


class FormatError(ReproError, ValueError):
    """A matrix file is malformed or uses an unsupported format variant."""


class AnalysisError(ReproError, ValueError):
    """Static analysis found a race, deadlock, or broken invariant."""


class SchemaVersionError(AnalysisError):
    """An analysis document declares a schema version this validator does
    not know. Raised (not returned as an error string) so stale validators
    fail loudly on documents from a newer library instead of silently
    passing a layout they cannot check."""


class SanitizerError(AnalysisError):
    """The runtime access sanitizer observed a panel/pivot access outside
    the task's static footprint, or an access whose source task was not
    ordered after all its predecessors — a soundness bug in either the
    engine or the footprint model."""


class EngineError(ReproError, RuntimeError):
    """A parallel numeric engine failed to execute (dead worker, closed
    pool, unusable start method) — as opposed to a numerical failure such
    as :class:`SingularMatrixError`, which propagates with its own type."""


class ServeError(ReproError):
    """Base class for errors raised by the :mod:`repro.serve` subsystem."""


class PlanMismatchError(ServeError, ValueError):
    """A cached symbolic plan was applied to a different sparsity pattern."""


class ServiceOverloadedError(ServeError, RuntimeError):
    """The solver service queue is full; the request was rejected (backpressure)."""


class DeadlineExceededError(ServeError, TimeoutError):
    """The request's deadline elapsed before a worker picked it up."""


class NonFiniteInputError(ServeError, ValueError):
    """A request's matrix values or right-hand side contain NaN or Inf."""


class ServiceClosedError(ServeError, RuntimeError):
    """The solver service has been closed and accepts no new requests."""

"""Structural fingerprints of CSC sparsity patterns.

The serving layer keys everything on the sparsity pattern — the paper's
static-analysis property means the symbolic plan is a pure function of it.
A :class:`PatternFingerprint` condenses (shape, indptr, indices) into a
fixed-size digest that is cheap to compare and hash, with enough header
redundancy (dims + nnz) that accidental collisions are implausible; the
cache still verifies candidate hits entry-for-entry before trusting them
(see :meth:`repro.serve.SymbolicPlan.matches`), so even an adversarial
collision degrades to a miss, never a wrong answer.

:class:`CSCMatrix` guarantees canonical dtypes (``int64`` indptr, ``int32``
indices) and sorted, duplicate-free columns, so the raw bytes of the two
index arrays are a canonical encoding of the pattern and can be digested
directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.util.errors import ShapeError

#: Digest size in bytes; 128-bit blake2b keeps keys short while making
#: accidental collisions (~2^-64 at billions of patterns) a non-issue.
_DIGEST_SIZE = 16


@dataclass(frozen=True)
class PatternFingerprint:
    """Hashable identity of one sparsity pattern.

    Equality compares the full tuple (dims, nnz, digest); two patterns with
    equal fingerprints are byte-identical with overwhelming probability,
    but the serving layer never relies on that alone for correctness.
    """

    n_rows: int
    n_cols: int
    nnz: int
    digest: str

    @property
    def key(self) -> tuple:
        """The dict key used by caches and the service's batcher."""
        return (self.n_rows, self.n_cols, self.nnz, self.digest)

    def __str__(self) -> str:
        return f"{self.n_rows}x{self.n_cols}/nnz={self.nnz}/{self.digest[:12]}"


def values_digest(a: CSCMatrix) -> str:
    """Digest of the matrix *values* (used to group batchable requests).

    Requires values; pattern-only matrices have no numeric identity.
    """
    if not a.has_values:
        raise ShapeError("values_digest() needs a matrix with values")
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(np.ascontiguousarray(a.data, dtype=np.float64).tobytes())
    return h.hexdigest()


def fingerprint(a: CSCMatrix) -> PatternFingerprint:
    """Fingerprint the sparsity pattern of ``a`` (values ignored).

    Deterministic across processes and platforms of equal endianness: the
    digest covers a fixed-width header (dims, nnz) followed by the raw
    bytes of the canonical ``indptr``/``indices`` arrays.
    """
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    header = np.asarray([a.n_rows, a.n_cols, a.nnz], dtype=np.int64)
    h.update(header.tobytes())
    h.update(np.ascontiguousarray(a.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(a.indices, dtype=np.int32).tobytes())
    return PatternFingerprint(
        n_rows=a.n_rows, n_cols=a.n_cols, nnz=a.nnz, digest=h.hexdigest()
    )

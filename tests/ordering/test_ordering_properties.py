"""Property tests over every fill-reducing ordering the solver accepts.

Two invariants, each across the full ordering catalog and the seven
Table-1 analogs: the ordering stage returns a valid permutation, and the
end-to-end pipeline still factorizes to a tiny residual — orderings may
move fill around, never break correctness.
"""

import numpy as np
import pytest

from repro.ordering import ORDERINGS
from repro.sparse.generators import PAPER_MATRICES, paper_matrix
from tests.conftest import solve_pipeline

SCALE = 0.1  # small analogs: the invariants are scale-free


def ordering_permutation(a, ordering):
    from repro.ordering.amd import amd_ata
    from repro.ordering.dissect import nested_dissection_ata
    from repro.ordering.mindeg import minimum_degree_ata
    from repro.ordering.rcm import reverse_cuthill_mckee

    if ordering == "mindeg":
        return minimum_degree_ata(a)
    if ordering == "amd":
        return amd_ata(a)
    if ordering == "rcm":
        return reverse_cuthill_mckee(a)
    if ordering == "dissect":
        return nested_dissection_ata(a)
    return np.arange(a.n_cols, dtype=np.int64)


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("name", sorted(PAPER_MATRICES))
def test_valid_permutation(name, ordering):
    a = paper_matrix(name, scale=SCALE)
    p = ordering_permutation(a, ordering)
    assert sorted(np.asarray(p).tolist()) == list(range(a.n_cols))


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("name", sorted(PAPER_MATRICES))
def test_pipeline_factorizes(name, ordering):
    a = paper_matrix(name, scale=SCALE)
    fact = solve_pipeline(a, ordering=ordering)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(a.n_rows)
    x = fact.solve(b)
    assert fact.residual_norm(x, b) <= 1e-10, (name, ordering)

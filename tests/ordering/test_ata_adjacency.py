"""The one construction of ``AᵀA``: neighbour sets and their CSC rendering.

The minimum-degree orderings eliminate on :func:`ata_adjacency`'s sets
directly; the CSC entry points (``approximate_minimum_degree``,
``minimum_degree``) build the sets from a symmetric pattern instead. Both
routes must order every pattern identically, including the degenerate
shapes: empty rows, empty columns, a dense row, n = 0 and n = 1.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ordering.amd import amd_ata, approximate_minimum_degree
from repro.ordering.mindeg import minimum_degree, minimum_degree_ata
from repro.sparse.convert import csc_from_dense
from repro.sparse.pattern import ata_adjacency, ata_pattern


@st.composite
def square_patterns(draw, max_n=14):
    """Random square patterns, some with an empty row, an empty column or
    a dense row (no zero-free diagonal is promised)."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    density = draw(st.floats(min_value=0.0, max_value=0.5))
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density).astype(float)
    if n:
        if draw(st.booleans()):
            dense[draw(st.integers(0, n - 1)), :] = 1.0
        if draw(st.booleans()):
            dense[draw(st.integers(0, n - 1)), :] = 0.0
        if draw(st.booleans()):
            dense[:, draw(st.integers(0, n - 1))] = 0.0
    return csc_from_dense(dense)


@given(square_patterns())
@settings(max_examples=120, deadline=None)
def test_amd_on_sets_matches_amd_on_csc(a):
    for aggressive in (True, False):
        assert np.array_equal(
            amd_ata(a, aggressive=aggressive),
            approximate_minimum_degree(ata_pattern(a), aggressive=aggressive),
        )


@given(square_patterns())
@settings(max_examples=80, deadline=None)
def test_mindeg_on_sets_matches_mindeg_on_csc(a):
    assert np.array_equal(minimum_degree_ata(a), minimum_degree(ata_pattern(a)))


@given(square_patterns())
@settings(max_examples=120, deadline=None)
def test_ata_pattern_is_adjacency_plus_diagonal(a):
    # (AᵀA)_jj is structurally nonzero exactly when column j is nonempty.
    adj = ata_adjacency(a)
    b = ata_pattern(a)
    assert len(adj) == b.n_cols == a.n_cols
    for j, s in enumerate(adj):
        assert j not in s
        diagonal = {j} if a.col_rows(j).size else set()
        assert b.col_rows(j).tolist() == sorted(s | diagonal)

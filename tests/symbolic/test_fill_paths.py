"""The static fill against an oracle that shares no code with ``src/``.

Rose–Tarjan (and GSoFa's statement of it, PAPERS.md ``2007.00840``):
without pivoting, entry ``(i, j)`` of ``L + U`` is nonzero exactly when
the directed graph of ``A`` has a path from ``i`` to ``j`` whose
intermediate vertices are all numbered below ``min(i, j)``. George–Ng's
static structure covers every row interchange partial pivoting can make,
the identity included, so it must contain that no-pivot fill. The same
patterns pin the eforest the merge emits to Definition 1 read off the
finished pattern (``lu_elimination_forest_reference``).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sparse.convert import csc_from_dense
from repro.symbolic.eforest import lu_elimination_forest_reference
from repro.symbolic.postorder import postorder_pipeline
from repro.symbolic.static_fill import static_symbolic_factorization


def no_pivot_fill(mask):
    """``{(i, j)}`` of the no-pivot LU of a pattern, by plain path search."""
    n = len(mask)
    succ = [[k for k in range(n) if mask[i][k] and k != i] for i in range(n)]

    def reaches(i, j):
        stack, seen = [i], {i}
        while stack:
            for w in succ[stack.pop()]:
                if w == j:
                    return True
                if w < min(i, j) and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    return {(i, j) for i in range(n) for j in range(n) if i == j or reaches(i, j)}


@st.composite
def zero_free_patterns(draw):
    n = draw(st.integers(1, 9))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return [[cells[i * n + j] or i == j for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(zero_free_patterns())
def test_static_fill_contains_the_no_pivot_fill(mask):
    fill = static_symbolic_factorization(csc_from_dense(np.array(mask, dtype=float)))
    assert all(fill.pattern.has_entry(i, j) for i, j in no_pivot_fill(mask))


@settings(max_examples=60, deadline=None)
@given(zero_free_patterns())
def test_merge_parent_is_definition_1_before_and_after_postorder(mask):
    # The merge emits the eforest and the postorder relabels it; both must
    # equal the forest Definition 1 reads off the finished pattern.
    fill = static_symbolic_factorization(csc_from_dense(np.array(mask, dtype=float)))
    assert np.array_equal(fill.parent, lu_elimination_forest_reference(fill))
    po = postorder_pipeline(fill)
    assert np.array_equal(po.fill.parent, lu_elimination_forest_reference(po.fill))

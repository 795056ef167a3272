"""A plan is plain data: it pickles, and an unpickled plan factors the same.

The end-to-end benchmark's three cold classes at their sizes; the factors
from a plan that crossed ``pickle`` must be bitwise equal to the factors
from the plan itself.
"""

import pickle

import numpy as np
import pytest

from repro.serve import build_plan, refactorize_with_plan
from repro.sparse.generators import paper_matrix

CLASSES = [("sherman3", 0.30), ("lnsp3937", 0.40), ("goodwin", 0.15)]


def assert_same_factors(want, got):
    for name in ("l_factor", "u_factor"):
        w, g = getattr(want, name), getattr(got, name)
        assert np.array_equal(w.indptr, g.indptr), name
        assert np.array_equal(w.indices, g.indices), name
        assert np.array_equal(w.data, g.data), name
    assert np.array_equal(want.orig_at, got.orig_at)


@pytest.mark.parametrize("name, scale", CLASSES)
def test_round_trip_factors_bitwise_equal(monkeypatch, name, scale):
    monkeypatch.delenv("REPRO_ANALYZE", raising=False)
    a = paper_matrix(name, scale=scale)
    plan = build_plan(a)
    back = pickle.loads(pickle.dumps(plan))
    assert back == plan and hash(back) == hash(plan)
    assert back.matches(a)
    assert "graph" not in vars(back)  # nothing derived was built to pickle it
    assert_same_factors(
        refactorize_with_plan(plan, a).result,
        refactorize_with_plan(back, a).result,
    )


def test_pickles_after_the_graph_is_read():
    a = paper_matrix("sherman3", scale=0.1)
    plan = build_plan(a)
    graph = plan.graph
    back = pickle.loads(pickle.dumps(plan))
    assert back == plan
    assert set(back.graph.edges()) == set(graph.edges())
    assert_same_factors(
        refactorize_with_plan(plan, a).result,
        refactorize_with_plan(back, a).result,
    )

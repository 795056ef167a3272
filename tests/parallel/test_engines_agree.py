"""One set of bits, at the default options, whatever ran the tasks.

The small random inputs of the per-engine suites amalgamate into a handful
of supernodes at the default bounds; here the inputs are paper analogs
whose panels are wide enough that the recursive panel LU recurses, a
reading process re-derives ``L⁻¹`` from a published panel, and a gathered
engine re-derives both inverses for the block solve — the three places
where engines could drift apart.
"""

import numpy as np
import pytest

from repro.numeric.factor import LUFactorization
from repro.numeric.kernels import _BASE_WIDTH
from repro.parallel.dispatch import run_engine
from repro.parallel.mapping import cyclic_mapping
from repro.parallel.message_passing import message_passing_factorize
from repro.parallel.procengine import proc_factorize
from repro.parallel.threads import threaded_factorize
from repro.parallel.two_d import build_2d_graph, canonical_2d_order
from repro.sparse.generators import paper_matrix
from tests import conftest


def assert_bitwise(res, ref):
    for got, want in ((res.l_factor, ref.l_factor), (res.u_factor, ref.u_factor)):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
    assert np.array_equal(res.orig_at, ref.orig_at)


@pytest.fixture(scope="module", params=[("sherman3", 0.1), ("goodwin", 0.05)])
def analyzed(request):
    """``(plan, a_work)`` of one analog."""
    name, scale = request.param
    plan, a_work = conftest.analyzed(paper_matrix(name, scale=scale))
    assert plan.layout.widths.max() > 2 * _BASE_WIDTH  # the recursion recurses
    return plan, a_work


def fresh(analyzed):
    plan, a_work = analyzed
    return LUFactorization(a_work, plan.bp, layout=plan.layout)


def test_1d_graph_bitwise_across_engines(analyzed):
    plan, a_work = analyzed
    rhs = np.random.default_rng(0).standard_normal((plan.n, 3))
    seq = fresh(analyzed)
    seq.factor_sequential()
    ref = seq.extract(retain_blocks=True)
    x_ref = ref.solve(rhs)

    thr = fresh(analyzed)
    threaded_factorize(thr, n_threads=4)
    prc = fresh(analyzed)
    proc_factorize(prc, 2)
    assert not prc.panel_facts  # gathered: the parent factored nothing itself
    for eng in (thr, prc):
        res = eng.extract(retain_blocks=True)
        assert_bitwise(res, ref)
        assert np.array_equal(res.solve(rhs), x_ref)

    owner = cyclic_mapping(plan.bp.n_blocks, 3)
    mp = message_passing_factorize(a_work, plan.bp, plan.graph, owner)
    assert_bitwise(mp.result, ref)

    # The invariant, one level down: whatever ran the tasks, and wherever
    # it kept the buffers meanwhile, the panel store ends up the same bytes.
    for data in (thr.data, prc.data, mp.data):
        assert data.values.tobytes() == seq.data.values.tobytes()
        assert data.pivot_ids.tobytes() == seq.data.pivot_ids.tobytes()


def test_2d_graph_bitwise_across_engines(analyzed):
    g2 = build_2d_graph(analyzed[0].bp)
    seq = fresh(analyzed)
    seq.run_order(canonical_2d_order(g2))
    ref = seq.extract()

    # The 2-D graph executes as a sequential replay only (the parallel
    # engines run block steps): through the dispatcher, the same bits.
    rep = fresh(analyzed)
    run_engine(rep, g2, "sequential")
    assert_bitwise(rep.extract(), ref)

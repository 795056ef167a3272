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
from repro.numeric.solver import SolverOptions, SparseLUSolver
from repro.parallel.mapping import cyclic_mapping
from repro.parallel.message_passing import message_passing_factorize
from repro.parallel.procengine import proc_factorize
from repro.parallel.threads import threaded_factorize
from repro.parallel.two_d import build_2d_graph, canonical_2d_order
from repro.sparse.generators import paper_matrix


def assert_bitwise(res, ref):
    for got, want in ((res.l_factor, ref.l_factor), (res.u_factor, ref.u_factor)):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
    assert np.array_equal(res.orig_at, ref.orig_at)


@pytest.fixture(scope="module", params=[("sherman3", 0.1), ("goodwin", 0.05)])
def analyzed(request):
    name, scale = request.param
    s = SparseLUSolver(paper_matrix(name, scale=scale), SolverOptions()).analyze()
    assert s.plan().layout.widths.max() > 2 * _BASE_WIDTH  # the recursion recurses
    return s


def fresh(s):
    return LUFactorization(s.a_work, s.bp, layout=s.plan().layout)


def test_1d_graph_bitwise_across_engines(analyzed):
    s = analyzed
    rhs = np.random.default_rng(0).standard_normal((s.a.n_cols, 3))
    seq = fresh(s)
    seq.factor_sequential()
    ref = seq.extract(retain_blocks=True)
    x_ref = ref.solve(rhs)

    thr = fresh(s)
    threaded_factorize(thr, s.graph, n_threads=4)
    prc = fresh(s)
    proc_factorize(prc, s.graph, 2)
    assert not prc.panel_facts  # gathered: the parent factored nothing itself
    for eng in (thr, prc):
        res = eng.extract(retain_blocks=True)
        assert_bitwise(res, ref)
        assert np.array_equal(res.solve(rhs), x_ref)

    owner = cyclic_mapping(s.bp.n_blocks, 3)
    mp = message_passing_factorize(s.a_work, s.bp, s.graph, owner)
    assert_bitwise(mp.result, ref)

    # The invariant, one level down: whatever ran the tasks, and wherever
    # it kept the buffers meanwhile, the panel store ends up the same bytes.
    for data in (thr.data, prc.data, mp.data):
        assert data.values.tobytes() == seq.data.values.tobytes()
        assert data.pivot_ids.tobytes() == seq.data.pivot_ids.tobytes()


def test_2d_graph_bitwise_across_engines(analyzed):
    s = analyzed
    g2 = build_2d_graph(s.bp)
    seq = fresh(s)
    seq.run_order(canonical_2d_order(g2))
    ref = seq.extract()

    thr = fresh(s)
    threaded_factorize(thr, g2, n_threads=4)
    assert_bitwise(thr.extract(), ref)
    prc = fresh(s)
    proc_factorize(prc, g2, 2)
    assert_bitwise(prc.extract(), ref)

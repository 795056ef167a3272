"""The warm request does only what it needs: nothing pattern-derived is
recomputed and nothing the block solve never reads is built.

A warm ``refactorize_with_plan`` + ``solve`` on a planned pattern must not
search block boundaries (``BlockLayout.positions`` — relative indices are
layout arrays), must not assemble scalar CSC factors (no ``COOBuilder``),
must not build a solve schedule and must not copy the factors out of the
panel buffer. The scalar factors still appear on first access, bitwise
equal to the eager assembly they replaced, and everything that reads them
keeps working.
"""

import hashlib
import sys
import threading
import time

import numpy as np

import repro.numeric.factor as factor_mod
import repro.taskgraph.solve_graph as solve_graph_mod
from repro.eval.pipeline import PAPER_AMALGAMATION
from repro.numeric.blockdata import BlockLayout
from repro.numeric.refine import condest_1norm
from repro.numeric.solver import SolverOptions
from repro.serve import build_plan, refactorize_with_plan
from repro.sparse.coo import COOBuilder
from repro.sparse.generators import paper_matrix
from tests.conftest import scalar_solve

# sha256 over the integer structure of sherman3@0.15's factors (L and U
# indptr/indices, then orig_at) at the parent of the lazy-extraction
# change. The values are compared against the in-test eager assembly
# below instead: their last bits depend on the BLAS kernels of the host.
SHERMAN3_STRUCTURE_DIGEST = (
    "5608ac541b720ea05068e90b29f08701f33132a3acaa25dab9c9adddcaf9195e"
)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _warm_request(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    a = paper_matrix("sherman3", scale=0.15)
    # Exact mindeg and the paper-era amalgamation bounds: the options the
    # stored structure digest was taken under.
    plan = build_plan(a, SolverOptions(ordering="mindeg", **PAPER_AMALGAMATION))
    rng = np.random.default_rng(0)
    a = a.with_values(a.data * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, a.nnz)))
    return plan, a, rng.standard_normal(a.n_cols)


def eager_scalar_factors(layout, panels, l_labels):
    """The eager CSC assembly ``extract()`` ran before it became lazy."""
    n = layout.n
    lb, ub = COOBuilder(n, n), COOBuilder(n, n)
    starts = layout.starts
    diag = np.arange(n, dtype=np.int64)
    lb.extend(diag, diag, np.ones(n))
    for k in range(layout.n_blocks):
        gcol0 = int(starts[k])
        panel = panels[k][layout.diag_offset(k) :]
        rr, cc = np.nonzero(np.abs(panel) > 0.0)
        keep = rr > cc
        if np.any(keep):
            rk, ck = rr[keep], cc[keep]
            lb.extend(l_labels[k][rk], gcol0 + ck, panel[rk, ck])
        for bi, b in enumerate(layout.col_blocks[k]):
            b = int(b)
            if b > k:
                continue
            off = int(layout.col_offsets[k][bi])
            block = panels[k][off : off + int(starts[b + 1] - starts[b]), :]
            if b < k:
                rr, cc = np.nonzero(np.abs(block) > 0.0)
            else:
                nz = np.triu(np.abs(block) > 0.0)
                np.fill_diagonal(nz, True)
                rr, cc = np.nonzero(nz)
            if rr.size:
                ub.extend(int(starts[b]) + rr, gcol0 + cc, block[rr, cc])
    return lb.to_csc(), ub.to_csc()


def test_warm_request_skips_positions_csc_and_schedule(monkeypatch):
    plan, a, b = _warm_request(monkeypatch)
    calls = [
        _count_calls(monkeypatch, BlockLayout, "positions"),
        _count_calls(monkeypatch, COOBuilder, "__init__"),
        _count_calls(monkeypatch, solve_graph_mod, "build_solve_graph"),
    ]
    # Capture what the eager assembly would have seen.
    seen = {}
    original = factor_mod._assemble_csc

    def capturing(layout, panels, renames, drop_tol):
        l_labels = factor_mod._final_l_labels(layout, renames)
        seen["eager"] = eager_scalar_factors(layout, panels, l_labels)
        return original(layout, panels, renames, drop_tol)

    monkeypatch.setattr(factor_mod, "_assemble_csc", capturing)

    fac = refactorize_with_plan(plan, a)
    x = fac.solve(b)
    assert calls == [[], [], []] and not seen
    assert fac.residual_norm(x, b) < 1e-10

    # First access builds the scalar factors — bitwise what extract()
    # used to build eagerly — and the second reuses them.
    res = fac.result
    l, u = res.l_factor, res.u_factor
    assert res.l_factor is l and res.u_factor is u
    for got, want in zip((l, u), seen["eager"]):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
    h = hashlib.sha256()
    for arr in (l.indptr, l.indices, u.indptr, u.indices, res.orig_at):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    assert h.hexdigest() == SHERMAN3_STRUCTURE_DIGEST

    # Everything that reads the scalar factors still works from them.
    assert np.allclose(scalar_solve(fac, b), x, rtol=1e-9, atol=1e-12)
    assert condest_1norm(fac.a_work, l, u, res.orig_at) >= 1.0


def test_concurrent_readers_share_one_build(monkeypatch):
    plan, a, _ = _warm_request(monkeypatch)
    builds = []
    original = factor_mod._assemble_csc

    def slow_build(*args):
        builds.append(threading.get_ident())
        time.sleep(0.05)  # hold the window open for the other readers
        return original(*args)

    monkeypatch.setattr(factor_mod, "_assemble_csc", slow_build)
    res = refactorize_with_plan(plan, a).result
    n_readers = 8
    barrier = threading.Barrier(n_readers)
    got = [None] * n_readers

    def reader(i):
        barrier.wait(timeout=10)
        if i % 2:
            got[i] = (res.l_factor, res.u_factor)
        else:  # half the readers ask for U first
            u = res.u_factor
            got[i] = (res.l_factor, u)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(n_readers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1
    for l, u in got:
        assert l is got[0][0] and u is got[0][1]
    assert np.array_equal(got[0][0].data, res.l_factor.data)


def test_factorization_holds_one_copy_of_its_factors(monkeypatch):
    """What a warm factorization keeps alive is its panel buffer plus
    small change — diagonal-block inverses (11 % of the buffer at the
    default bounds), nonzero-row indices, renamed ids, per-block Python
    objects — never a second, solve-form copy (the gather-form copies this
    replaced brought it to ~2.5x the buffer). Measured on the benchmark's
    warm matrix: 1.25x."""
    import gc
    import tracemalloc

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    a = paper_matrix("sherman3", scale=0.5)
    plan = build_plan(a)
    b = np.ones(a.n_cols)
    refactorize_with_plan(plan, a).solve(b)  # first touches, lazy imports
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fac = refactorize_with_plan(plan, a)
        fac.solve(b)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    layout = plan.layout
    buffer = 8 * int((layout.widths * layout.panel_heights).sum())
    assert buffer < held < 1.3 * buffer, (held, buffer)
    blocks = fac.result.blocks
    owned = sum(
        arr.nbytes
        for step in blocks._steps
        for arr in (step[3], step[5])  # the two inverses: all the floats it owns
    )
    assert owned < 0.25 * buffer

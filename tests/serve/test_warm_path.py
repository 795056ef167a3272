"""The warm request does only what it needs: nothing pattern-derived is
recomputed and nothing the block solve never reads is built.

A warm ``refactorize_with_plan`` + ``solve`` on a planned pattern must not
search block boundaries (``BlockLayout.positions`` — relative indices are
layout arrays), must not assemble scalar CSC factors (no ``COOBuilder``)
and must not derive a solve schedule (``schedule_from_structure``). The
scalar factors still appear on first access, bitwise equal to the eager
assembly they replaced, and everything that reads them keeps working.
"""

import hashlib
import sys
import threading
import time

import numpy as np

import repro.numeric.factor as factor_mod
import repro.numeric.supersolve as supersolve_mod
from repro.numeric.blockdata import BlockLayout
from repro.numeric.refine import condest_1norm
from repro.numeric.solver import SolverOptions
from repro.serve import build_plan, refactorize_with_plan
from repro.sparse.coo import COOBuilder
from repro.sparse.generators import paper_matrix

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
    monkeypatch.delenv("REPRO_SOLVE", raising=False)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    a = paper_matrix("sherman3", scale=0.15)
    # Exact mindeg: the ordering the stored structure digest was taken under.
    plan = build_plan(a, SolverOptions(ordering="mindeg"))
    rng = np.random.default_rng(0)
    a = a.with_values(a.data * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, a.nnz)))
    return plan, a, rng.standard_normal(a.n_cols)


def eager_scalar_factors(data, l_labels):
    """The eager CSC assembly ``extract()`` ran before it became lazy."""
    n = data.n
    layout = data.layout
    lb, ub = COOBuilder(n, n), COOBuilder(n, n)
    starts = layout.starts
    diag = np.arange(n, dtype=np.int64)
    lb.extend(diag, diag, np.ones(n))
    for k in range(data.n_blocks):
        gcol0 = int(starts[k])
        panel = data.sub_panel(k)
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
            block = data.panels[k][off : off + int(starts[b + 1] - starts[b]), :]
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
        _count_calls(monkeypatch, supersolve_mod, "schedule_from_structure"),
    ]
    # Capture what the eager assembly would have seen.
    seen = {}
    original = factor_mod._assemble_csc

    def capturing(data, l_labels, drop_tol):
        seen["eager"] = eager_scalar_factors(data, l_labels)
        return original(data, l_labels, drop_tol)

    monkeypatch.setattr(factor_mod, "_assemble_csc", capturing)

    fac = refactorize_with_plan(plan, a)
    x = fac.solve(b)
    assert calls == [[], [], []] and not seen
    # Pivoting left the static pattern here, so the static schedule does
    # not apply — and still none was derived.
    assert not fac.result.blocks.static_covered
    assert fac.result.blocks.known_schedule is None
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
    assert np.allclose(fac.solve(b, impl="reference"), x, rtol=1e-9, atol=1e-12)
    xt = res.solve_transpose(np.ones(a.n_cols))
    assert np.all(np.isfinite(xt))
    sign, logdet = res.slogdet()
    assert sign in (-1.0, 1.0) and np.isfinite(logdet)
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

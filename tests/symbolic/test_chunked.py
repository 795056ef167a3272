"""Property tests pinning the chunked symbolic kernel to ``fast``.

The ``"chunked"`` implementation streams the George-Ng row merge over
contiguous column chunks, which is not allowed to change a single output
bit. This suite checks bit-exactness against ``fast`` across the seven
paper analogs, synthetic banded/arrow/grid/random patterns, and
degenerate chunk sizes (1, n, n+7); that the chunk knob never alters the
pattern and is the kernel's only knob; the chunk resolution (argument,
else auto-heuristic) with its typed errors; the ``SolverOptions`` plumbing
(including the symbolic-key exclusion); the emitted spans and the
``symbolic.peak_bytes`` gauge; and a zero-findings static-analysis run
on a plan built entirely under ``REPRO_SYMBOLIC=chunked``.
"""

import numpy as np
import pytest

from repro.analysis import analyze_plan
from repro.numeric.solver import SolverOptions
from repro.obs.trace import Tracer
from repro.ordering.transversal import zero_free_diagonal_permutation
from repro.serve import SolverService
from repro.serve.plan import build_plan
from repro.sparse.generators import (
    PAPER_MATRICES,
    arrow_pattern,
    banded_pattern,
    grid_pattern,
    paper_matrix,
    random_sparse,
)
from repro.sparse.ops import permute
from repro.sparse.pattern import pattern_equal
from repro.symbolic.chunked import (
    MIN_AUTO_CHUNK,
    auto_chunk_size,
    resolve_chunk,
    static_symbolic_factorization_chunked,
)
from repro.symbolic.static_fill import (
    static_symbolic_factorization,
    static_symbolic_factorization_fast,
)
from repro.util.errors import DispatchError


def prepared(a):
    """Pattern with a zero-free diagonal, as the pipeline feeds the kernel."""
    return permute(a.pattern_only(), row_perm=zero_free_diagonal_permutation(a))


def assert_same_fill(fast, chunked):
    assert pattern_equal(fast.pattern, chunked.pattern)
    assert np.array_equal(fast.pattern.indptr, chunked.pattern.indptr)
    assert np.array_equal(fast.pattern.indices, chunked.pattern.indices)
    assert fast.pattern.indices.dtype == chunked.pattern.indices.dtype
    assert fast.nnz_original == chunked.nnz_original


PAPER_NAMES = sorted(PAPER_MATRICES)


class TestPaperAnalogEquality:
    @pytest.mark.parametrize("name", PAPER_NAMES)
    def test_chunked_matches_fast(self, name):
        work = prepared(paper_matrix(name, scale=0.1))
        fast = static_symbolic_factorization_fast(work)
        chunked = static_symbolic_factorization_chunked(work)
        assert_same_fill(fast, chunked)

    def test_degenerate_chunk_sizes(self):
        # One representative analog under chunk = 1 (a chunk per column),
        # n (a single chunk), and n + 7 (chunk larger than the matrix).
        work = prepared(paper_matrix("orsreg1", scale=0.1))
        n = work.n_cols
        fast = static_symbolic_factorization_fast(work)
        for chunk in (1, n, n + 7):
            chunked = static_symbolic_factorization_chunked(work, chunk=chunk)
            assert_same_fill(fast, chunked)


class TestSyntheticEquality:
    @pytest.mark.parametrize(
        "pattern",
        [
            banded_pattern(4000, band=4, keep=0.6, seed=1),
            arrow_pattern(1500, band=1),
            grid_pattern(120, 8, tiles=4),
            prepared(random_sparse(300, density=0.02, seed=7)),
        ],
        ids=["banded", "arrow", "grid", "random"],
    )
    def test_chunked_matches_fast(self, pattern):
        fast = static_symbolic_factorization_fast(pattern)
        chunked = static_symbolic_factorization_chunked(pattern)
        assert_same_fill(fast, chunked)

    def test_chunk_size_never_changes_output(self):
        # Satellite regression: the chunk knob is an execution detail.
        work = banded_pattern(600, band=3, keep=0.5, seed=2)
        n = work.n_cols
        baseline = static_symbolic_factorization_chunked(work)
        for chunk in (1, 17, 64, n, n + 7):
            other = static_symbolic_factorization_chunked(work, chunk=chunk)
            assert_same_fill(baseline, other)

    def test_empty_matrix(self):
        from repro.sparse.csc import CSCMatrix, INDEX_DTYPE

        empty = CSCMatrix(
            0,
            0,
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=INDEX_DTYPE),
            None,
            check=False,
        )
        fill = static_symbolic_factorization_chunked(empty)
        assert fill.pattern.n_cols == 0
        assert fill.pattern.indices.size == 0

    def test_missing_diagonal_raises_like_fast(self):
        from repro.sparse.csc import CSCMatrix, INDEX_DTYPE
        from repro.util.errors import PatternError

        # 2x2 with an empty second column: no (1,1) entry.
        bad = CSCMatrix(
            2,
            2,
            np.array([0, 1, 1], dtype=np.int64),
            np.array([0], dtype=INDEX_DTYPE),
            None,
            check=False,
        )
        with pytest.raises(PatternError) as exc_fast:
            static_symbolic_factorization_fast(bad)
        with pytest.raises(PatternError) as exc_chunked:
            static_symbolic_factorization_chunked(bad)
        assert str(exc_fast.value) == str(exc_chunked.value)


class TestKnobResolution:
    def test_auto_chunk_size_clamps(self):
        assert auto_chunk_size(10, 50) == 10  # never above n
        assert auto_chunk_size(10**7, 10**9) >= MIN_AUTO_CHUNK
        # Denser patterns get smaller chunks for the same target.
        sparse = auto_chunk_size(10**6, 3 * 10**6)
        dense = auto_chunk_size(10**6, 3 * 10**8)
        assert dense <= sparse

    def test_defaults(self):
        assert resolve_chunk(None, 1000, 5000) == auto_chunk_size(1000, 5000)
        assert resolve_chunk(7, 1000, 5000) == 7

    def test_non_positive_values_raise(self):
        with pytest.raises(DispatchError, match="chunk argument"):
            resolve_chunk(0, 10, 10)
        with pytest.raises(DispatchError, match="chunk argument"):
            static_symbolic_factorization_chunked(
                banded_pattern(50, band=2, keep=1.0, seed=0), chunk=-3
            )

    def test_workers_knob_is_gone(self):
        work = prepared(random_sparse(60, density=0.1, seed=3))
        with pytest.raises(TypeError):
            static_symbolic_factorization(work, impl="chunked", workers=2)
        with pytest.raises(TypeError):
            static_symbolic_factorization_chunked(work, workers=2)

    def test_dispatch_error_is_value_error(self):
        # Old call sites catch ValueError; the typed error must satisfy them.
        assert issubclass(DispatchError, ValueError)

    def test_env_knobs_flow_through_dispatcher(self, monkeypatch):
        # $REPRO_SYMBOLIC picks the kernel, the dispatcher hands it chunk=.
        monkeypatch.setenv("REPRO_SYMBOLIC", "chunked")
        work = prepared(random_sparse(60, density=0.1, seed=3))
        tr = Tracer()
        fill = static_symbolic_factorization(work, chunk=13, tracer=tr)
        assert tr.find("symbolic.row_merge").attrs["chunk"] == 13
        oracle = static_symbolic_factorization_fast(work)
        assert_same_fill(oracle, fill)


class TestObservability:
    def test_chunk_spans_and_gauge(self):
        work = banded_pattern(500, band=2, keep=0.7, seed=4)
        tr = Tracer()
        static_symbolic_factorization_chunked(work, chunk=100, tracer=tr)
        merge = tr.find("symbolic.row_merge")
        assert merge is not None
        assert merge.attrs["impl"] == "chunked"
        assert merge.attrs["chunk"] == 100
        chunks = [s for s in tr.walk() if s.name == "symbolic.chunk"]
        assert len(chunks) == merge.attrs["n_chunks"] == 5
        assert [s.attrs["index"] for s in chunks] == list(range(5))
        assert all(s.attrs["entries"] > 0 for s in chunks)
        assemble = tr.find("symbolic.assemble")
        assert assemble.attrs["peak_bytes"] > 0
        gauge = tr.metrics.get("symbolic.peak_bytes")
        assert gauge is not None
        assert gauge.value == float(assemble.attrs["peak_bytes"])


class TestSolverPlumbing:
    def test_symbolic_params_validation(self):
        assert SolverOptions().symbolic_kwargs() == {}
        opts = SolverOptions(symbolic_params=(("chunk", 128),))
        assert opts.symbolic_params == (("chunk", 128),)
        assert opts.symbolic_kwargs() == {"chunk": 128}
        # chunk is the only key; the error names it.
        with pytest.raises(ValueError, match="expected 'chunk'"):
            SolverOptions(symbolic_params=(("workers", 2),))
        with pytest.raises(ValueError, match="positive int"):
            SolverOptions(symbolic_params=(("chunk", 0),))
        with pytest.raises(ValueError, match="positive int"):
            SolverOptions(symbolic_params=(("chunk", True),))

    def test_symbolic_params_not_in_key(self):
        plain = SolverOptions()
        knobbed = SolverOptions(symbolic_params=(("chunk", 64),))
        assert plain.symbolic_key() == knobbed.symbolic_key()

    def test_pipeline_passes_knobs_to_chunked(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYMBOLIC", "chunked")
        a = prepared(random_sparse(80, density=0.1, seed=5))
        opts = SolverOptions(symbolic_params=(("chunk", 11),))
        tr = Tracer()
        plan = build_plan(a, opts, tracer=tr)
        assert tr.find("static_fill").attrs["impl"] == "chunked"
        assert tr.find("symbolic.row_merge").attrs["chunk"] == 11
        monkeypatch.setenv("REPRO_SYMBOLIC", "fast")
        baseline = build_plan(a, SolverOptions())
        assert pattern_equal(plan.fill.pattern, baseline.fill.pattern)
        assert np.array_equal(plan.row_perm, baseline.row_perm)
        assert np.array_equal(plan.col_perm, baseline.col_perm)

    def test_service_cold_build_keeps_symbolic_params(self, monkeypatch):
        # symbolic_params is outside the batch key, so a cold build must
        # read it off the request's options, not rebuild them from the key.
        monkeypatch.setenv("REPRO_SYMBOLIC", "chunked")
        a = paper_matrix("sherman3", scale=0.1)
        opts = SolverOptions(symbolic_params=(("chunk", 11),))
        tr = Tracer()
        with SolverService(n_workers=0, options=opts, tracer=tr) as svc:
            svc.solve(a, np.ones(a.n_cols))
        assert tr.find("symbolic.row_merge").attrs["chunk"] == 11


class TestAnalyzerCleanliness:
    def test_chunked_plan_has_zero_findings(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYMBOLIC", "chunked")
        a = paper_matrix("sherman5", scale=0.1)
        plan = build_plan(a)
        report = analyze_plan(plan, name="chunked")
        assert report.ok
        assert report.n_findings == 0

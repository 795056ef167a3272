"""Symbolic-kernel benchmark: reference vs. fast vs. chunked.

Runs the symbolic pipeline (static fill + eforest + postorder) through
the ``"fast"`` and ``"chunked"`` implementations (see
:mod:`repro.symbolic.dispatch`) and through the reference kernels, called
directly as the oracle, on the same preprocessed sherman3-class patterns
at three sizes, cross-checking that
the outputs agree entry-for-entry, and emits the timings as the
``bench_symbolic`` paired artifact (``results/bench_symbolic.{txt,json}``).
The ordering and transversal stages are shared, untimed preparation: they
are identical in all paths and would only dilute the comparison.

Two assertions pin the classic acceptance bars: the fast path must be
>= 3x faster than the reference at paper scale, and the path-compressed
``column_etree`` walk must beat the uncompressed walk on the arrow
(chain-etree) pattern where the latter is quadratic.

A second test runs the large-n tier (banded/arrow/grid patterns around
n = 2x10^5), recording wall time *and* allocator-level peak memory
(``tracemalloc``) per implementation plus the chunked kernel's own
``symbolic.peak_bytes`` model gauge, and pins the chunked kernel's bar:
peak memory <= ``MAX_PEAK_FRACTION`` of fast at the largest benched size.
"""

import time
import tracemalloc
from typing import Sequence

import numpy as np
from bench_proc import available_cpus

from repro.obs.trace import Tracer
from repro.ordering.etree import column_etree, postorder_forest
from repro.ordering.mindeg import minimum_degree_ata
from repro.ordering.transversal import zero_free_diagonal_permutation
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import (
    arrow_pattern,
    banded_pattern,
    grid_pattern,
    paper_matrix,
)
from repro.sparse.ops import permute
from repro.sparse.pattern import pattern_equal
from repro.symbolic.eforest import lu_elimination_forest_reference
from repro.symbolic.postorder import postorder_pipeline
from repro.symbolic.static_fill import (
    static_symbolic_factorization,
    static_symbolic_factorization_reference,
)
from repro.util.tables import format_table

#: fast-over-reference bar at the largest benched size. It is pinned at
#: paper scale (``REPRO_BENCH_SCALE=1.0``: sherman3 n = 5005, 4.3x
#: measured); below that the array kernels' fixed costs eat into it
#: (2.8x at n = 500), so smaller runs record the ratio and check equality
#: only.
MIN_SPEEDUP = 3.0
BAR_SCALE = 1.0

#: Large-n tier bar: chunked peak memory <= this fraction of fast's peak
#: at the largest benched size.
MAX_PEAK_FRACTION = 0.5

#: Best-of-5 per (scale, impl): one noisy repeat cannot move the minimum,
#: which keeps the >= 3x bar stable under background machine load.
REPEATS = 5
ETREE_N = 1500
MATRIX = "sherman3"

#: The large-n families at the CI smoke size (n ≈ 2×10⁵ at the top), each
#: zero-free-diagonal by construction. The grid is ``nx × 16``, 8 tiles.
LARGE_N_PATTERNS = (
    ("banded", lambda: banded_pattern(200_000, band=4, keep=0.6, seed=1)),
    ("arrow", lambda: arrow_pattern(60_000)),
    ("grid", lambda: grid_pattern(3_750, 16, tiles=8)),
)


def _prepare(matrix: str, scale: float) -> CSCMatrix:
    """Generator matrix after the shared (untimed) preprocessing stages."""
    a = paper_matrix(matrix, scale=scale)
    work = permute(a.pattern_only(), row_perm=zero_free_diagonal_permutation(a))
    q = minimum_degree_ata(work)
    return permute(work, row_perm=q, col_perm=q)


def _pipeline(impl: str):
    """Static fill + eforest + postorder through a selectable ``impl``;
    returns ``(fill, parent, perm, postordered pattern)``."""

    def run(work: CSCMatrix) -> tuple:
        fill = static_symbolic_factorization(work, impl=impl)
        po = postorder_pipeline(fill, impl=impl)
        return fill, po.parent_before, po.perm, po.fill.pattern

    return run


def _reference_pipeline(work: CSCMatrix) -> tuple:
    """The same stages through the reference kernels (the oracle)."""
    fill = static_symbolic_factorization_reference(work)
    parent = lu_elimination_forest_reference(fill)
    perm = postorder_forest(parent)
    return fill, parent, perm, permute(fill.pattern, row_perm=perm, col_perm=perm)


def _time_pipeline(work: CSCMatrix, run, repeats: int) -> tuple[float, tuple]:
    """Best-of-``repeats`` wall time of ``run(work)``."""
    best = float("inf")
    outcome = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        outcome = run(work)
        best = min(best, time.perf_counter() - t0)
    return best, outcome


def etree_compression_bench(n: int, repeats: int) -> dict:
    """Time ``column_etree`` compressed vs uncompressed on the arrow pattern."""
    a = arrow_pattern(n)
    best = {True: float("inf"), False: float("inf")}
    trees = {}
    for compress in (True, False):
        for _ in range(repeats):
            t0 = time.perf_counter()
            trees[compress] = column_etree(a, compress=compress)
            best[compress] = min(best[compress], time.perf_counter() - t0)
    if not np.array_equal(trees[True], trees[False]):
        raise AssertionError("compressed and uncompressed column etrees differ")
    return {
        "n": n,
        "compressed_s": best[True],
        "uncompressed_s": best[False],
        "speedup": best[False] / best[True] if best[True] > 0 else 0.0,
    }


def run_symbolic_benchmark(scales: Sequence[float]) -> dict:
    """Reference/fast/chunked timings (artifact ``data``).

    Each scale runs all three implementations on the identical preprocessed
    pattern (best-of-``REPEATS`` wall time) and cross-checks that the
    static-fill patterns, eforest parent arrays, and postorder permutations
    match exactly — the benchmark doubles as an end-to-end equality check
    on real generator matrices.
    """
    scales = sorted(float(s) for s in scales)
    rows = []
    # Untimed warm-up so first-touch allocator costs stay out of the
    # smallest scale's timings.
    _time_pipeline(_prepare(MATRIX, min(scales) / 2), _pipeline("fast"), 1)
    for scale in scales:
        work = _prepare(MATRIX, scale)
        ref_s, ref = _time_pipeline(work, _reference_pipeline, REPEATS)
        fast_s, fast = _time_pipeline(work, _pipeline("fast"), REPEATS)
        chunked_s, chunked = _time_pipeline(work, _pipeline("chunked"), REPEATS)
        ref_fill, ref_parent, ref_perm, ref_post = ref
        fast_fill, fast_parent, fast_perm, fast_post = fast
        chunked_fill, chunked_perm = chunked[0], chunked[2]
        for what, same in (
            (
                "static fill patterns differ",
                pattern_equal(ref_fill.pattern, fast_fill.pattern),
            ),
            (
                "chunked static fill differs from fast",
                pattern_equal(fast_fill.pattern, chunked_fill.pattern),
            ),
            (
                "eforest parent arrays differ",
                np.array_equal(ref_parent, fast_parent),
            ),
            (
                "postorder permutations differ",
                np.array_equal(ref_perm, fast_perm),
            ),
            (
                "postordered static fill patterns differ",
                pattern_equal(ref_post, fast_post),
            ),
            (
                "chunked postorder permutation differs",
                np.array_equal(fast_perm, chunked_perm),
            ),
        ):
            if not same:
                raise AssertionError(f"{what} at scale {scale}")
        rows.append(
            {
                "scale": scale,
                "n": work.n_cols,
                "nnz": work.nnz,
                "nnz_filled": fast_fill.nnz,
                "reference_s": ref_s,
                "fast_s": fast_s,
                "chunked_s": chunked_s,
                "speedup": ref_s / fast_s if fast_s > 0 else 0.0,
            }
        )
    etree = etree_compression_bench(ETREE_N, REPEATS - 1)
    largest = rows[-1]
    return {
        "matrix": MATRIX,
        "repeats": REPEATS,
        "pipeline": rows,
        "largest": {"scale": largest["scale"], "speedup": largest["speedup"]},
        "min_speedup_required": MIN_SPEEDUP,
        "etree": etree,
        "patterns_equal": True,
    }


def summary_rows(data: dict) -> list:
    """``(quantity, value)`` rows for the rendered table."""
    out = []
    for row in data["pipeline"]:
        out.append(
            (
                f"{data['matrix']} scale {row['scale']:g} (n={row['n']})",
                f"ref {row['reference_s'] * 1e3:.1f} ms / "
                f"fast {row['fast_s'] * 1e3:.1f} ms / "
                f"chunked {row['chunked_s'] * 1e3:.1f} ms = "
                f"{row['speedup']:.2f}x",
            )
        )
    out.append(
        (
            "largest-size speedup (required)",
            f"{data['largest']['speedup']:.2f}x "
            f"(>= {data['min_speedup_required']:g}x from scale {BAR_SCALE:g})",
        )
    )
    etree = data["etree"]
    out.append(
        (
            f"column_etree arrow n={etree['n']}",
            f"uncompressed {etree['uncompressed_s'] * 1e3:.1f} ms / "
            f"compressed {etree['compressed_s'] * 1e3:.1f} ms = "
            f"{etree['speedup']:.2f}x",
        )
    )
    out.append(("implementations agree", str(data["patterns_equal"]).lower()))
    return out


# ---------------------------------------------------------------------------
# Large-n tier (chunked-vs-fast time and peak memory)
# ---------------------------------------------------------------------------

def _timed_fill(work: CSCMatrix, impl: str):
    t0 = time.perf_counter()
    fill = static_symbolic_factorization(work, impl=impl)
    return time.perf_counter() - t0, fill


def _traced_peak(work: CSCMatrix, impl: str, tracer=None) -> int:
    """Allocator-level peak bytes of one static fill, via ``tracemalloc``.

    Run as a separate untimed pass: tracing slows the merge loop several
    fold, so the timing columns never run under it. NumPy ≥ 1.22 reports
    its buffer allocations to tracemalloc, so array peaks are included.
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        static_symbolic_factorization(work, impl=impl, tracer=tracer)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return int(peak)


def run_large_n_benchmark() -> dict:
    """Fast-vs-chunked scaling tier (artifact ``data``).

    For every pattern of :data:`LARGE_N_PATTERNS`: time the fast and
    chunked static fill, cross-check the patterns entry-for-entry, and
    record each implementation's ``tracemalloc`` peak plus the chunked
    kernel's ``symbolic.peak_bytes`` model gauge.
    """
    rows = []
    for name, build in LARGE_N_PATTERNS:
        work = build()
        fast_s, fast_fill = _timed_fill(work, "fast")
        chunked_s, chunked_fill = _timed_fill(work, "chunked")
        if not pattern_equal(fast_fill.pattern, chunked_fill.pattern):
            raise AssertionError(f"chunked static fill differs from fast on {name}")
        fast_peak = _traced_peak(work, "fast")
        gauge_tr = Tracer()
        chunked_peak = _traced_peak(work, "chunked", tracer=gauge_tr)
        gauge = gauge_tr.metrics.get("symbolic.peak_bytes")
        rows.append(
            {
                "pattern": name,
                "n": work.n_cols,
                "nnz": work.nnz,
                "nnz_filled": fast_fill.nnz,
                "fast_s": fast_s,
                "chunked_s": chunked_s,
                "equal": True,
                "fast_peak_bytes": fast_peak,
                "chunked_peak_bytes": chunked_peak,
                "peak_ratio": chunked_peak / fast_peak if fast_peak > 0 else 0.0,
                "model_peak_bytes": int(gauge.value) if gauge is not None else 0,
            }
        )
    largest = max(rows, key=lambda r: r["n"])
    return {
        "tier": "quick",
        "chunk": "auto",
        "patterns": rows,
        "largest": {
            "pattern": largest["pattern"],
            "n": largest["n"],
            "peak_ratio": largest["peak_ratio"],
        },
        "max_peak_fraction": MAX_PEAK_FRACTION,
        "cpu_count": available_cpus(),
        "memory_measured": True,
        "patterns_equal": True,
    }


def large_summary_rows(data: dict) -> list:
    """``(quantity, value)`` rows for the large-n table."""
    out = []
    for row in data["patterns"]:
        out.append(
            (
                f"{row['pattern']} (n={row['n']})",
                f"fast {row['fast_s']:.2f} s / chunked {row['chunked_s']:.2f} s",
            )
        )
        out.append(
            (
                f"{row['pattern']} peak memory",
                f"fast {row['fast_peak_bytes'] / 1e6:.1f} MB / "
                f"chunked {row['chunked_peak_bytes'] / 1e6:.1f} MB = "
                f"{row['peak_ratio']:.3f}x",
            )
        )
    largest = data["largest"]
    out.append(
        (
            f"largest-size peak fraction ({largest['pattern']})",
            f"{largest['peak_ratio']:.3f} "
            f"(<= {data['max_peak_fraction']:g} required)",
        )
    )
    out.append(("implementations agree", str(data["patterns_equal"]).lower()))
    return out


def test_bench_symbolic_reference_vs_fast(bench_config, emit):
    scales = tuple(bench_config.scale * f for f in (0.25, 0.5, 1.0))
    data = run_symbolic_benchmark(scales)
    text = format_table(
        ["quantity", "value"],
        summary_rows(data),
        title=f"symbolic kernels: {data['matrix']} @ scales {list(scales)}",
    )
    emit("bench_symbolic", text, data)

    # All implementations produced identical patterns, parents, and
    # permutations at every scale (run_symbolic_benchmark raises otherwise).
    assert data["patterns_equal"]
    # The array kernels pay the acceptance bar at paper scale...
    if data["largest"]["scale"] >= BAR_SCALE:
        assert data["largest"]["speedup"] >= MIN_SPEEDUP, data["largest"]
    # ...and ancestor compression beats the uncompressed walk where the
    # uncompressed walk is quadratic (before/after micro-assert).
    assert data["etree"]["speedup"] > 1.0, data["etree"]


def test_bench_symbolic_large_n(emit):
    data = run_large_n_benchmark()
    text = format_table(
        ["quantity", "value"],
        large_summary_rows(data),
        title="symbolic large-n tier: fast vs chunked",
    )
    emit("bench_symbolic_large_n", text, data)

    # Chunked produced the same fill pattern as fast on every family
    # (run_large_n_benchmark raises otherwise).
    assert data["patterns_equal"]
    # The streaming kernel pays the memory bar at the largest size.
    largest = data["largest"]
    assert largest["peak_ratio"] <= MAX_PEAK_FRACTION, largest

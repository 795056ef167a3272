"""Symbolic-kernel benchmark: reference vs. fast, and the large-n pipeline.

Runs the symbolic pipeline (static fill + eforest + postorder) through
the array kernels (the row merge of
:func:`repro.symbolic.static_fill.row_merge`) and through the reference
kernels, called directly as the oracle, on the same preprocessed
sherman3-class patterns at three sizes, cross-checking that the outputs
agree entry-for-entry, and emits the timings as the ``bench_symbolic``
paired artifact (``results/bench_symbolic.{txt,json}``).
The ordering and transversal stages are shared, untimed preparation: they
are identical in all paths and would only dilute the comparison.

Two assertions pin the classic acceptance bars: the fast path must be
>= 3x faster than the reference at paper scale, and the path-compressed
``column_etree`` walk must beat the uncompressed walk on the arrow
(chain-etree) pattern where the latter is quadratic.

A second test runs the large-n tier (banded/arrow/grid patterns around
n = 2x10^5) through the pipeline from the static fill to the block
pattern, recording per stage — static fill, postorder, supernodes +
amalgamate (default bounds), block pattern — its wall time and its
allocator-level peak memory (``tracemalloc``), plus the pipeline's peak
and the fill's own ``symbolic.peak_bytes`` model gauge. It gates nothing
on time; on memory it asserts that the grid's supernodes stage peaks
below its static fill stage (``tracemalloc`` peaks do not depend on
timing).
"""

import time
import tracemalloc
from typing import Sequence

import numpy as np
from bench_proc import available_cpus

from repro.numeric.solver import DEFAULT_MAX_PADDING, DEFAULT_MAX_SUPERNODE
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
from repro.symbolic.supernodes import amalgamate, block_pattern, supernode_partition
from repro.util.tables import format_table

#: fast-over-reference bar at the largest benched size. It is pinned at
#: paper scale (``REPRO_BENCH_SCALE=1.0``: sherman3 n = 5005, 4.3x
#: measured); below that the array kernels' fixed costs eat into it
#: (2.8x at n = 500), so smaller runs record the ratio and check equality
#: only.
MIN_SPEEDUP = 3.0
BAR_SCALE = 1.0

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


def _pipeline(work: CSCMatrix) -> tuple:
    """Static fill (which emits the eforest) + postorder through the array
    kernels; returns ``(fill, parent, perm, postordered pattern)``."""
    fill = static_symbolic_factorization(work)
    po = postorder_pipeline(fill)
    return fill, fill.parent, po.perm, po.fill.pattern


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
    """Reference/fast timings (artifact ``data``).

    Each scale runs both implementations on the identical preprocessed
    pattern (best-of-``REPEATS`` wall time) and cross-checks that the
    static-fill patterns, eforest parent arrays, and postorder permutations
    match exactly — the benchmark doubles as an end-to-end equality check
    on real generator matrices.
    """
    scales = sorted(float(s) for s in scales)
    rows = []
    # Untimed warm-up so first-touch allocator costs stay out of the
    # smallest scale's timings.
    _time_pipeline(_prepare(MATRIX, min(scales) / 2), _pipeline, 1)
    for scale in scales:
        work = _prepare(MATRIX, scale)
        ref_s, ref = _time_pipeline(work, _reference_pipeline, REPEATS)
        fast_s, fast = _time_pipeline(work, _pipeline, REPEATS)
        ref_fill, ref_parent, ref_perm, ref_post = ref
        fast_fill, fast_parent, fast_perm, fast_post = fast
        for what, same in (
            (
                "static fill patterns differ",
                pattern_equal(ref_fill.pattern, fast_fill.pattern),
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
                f"fast {row['fast_s'] * 1e3:.1f} ms = "
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
# Large-n tier (per-stage time and peak memory of the symbolic pipeline)
# ---------------------------------------------------------------------------

#: The stages from the static fill to the block pattern, in pipeline order.
LARGE_N_STAGES = ("static_fill", "postorder", "supernodes", "block_pattern")


def _large_n_pipeline(work: CSCMatrix, tracer=None):
    """Yield ``(stage, result)`` through :data:`LARGE_N_STAGES`, as
    :func:`repro.serve.build_plan` runs them after the ordering."""
    fill = static_symbolic_factorization(work, tracer=tracer)
    yield "static_fill", fill
    fill = postorder_pipeline(fill).fill
    yield "postorder", fill
    part = amalgamate(
        fill,
        supernode_partition(fill),
        max_padding=DEFAULT_MAX_PADDING,
        max_size=DEFAULT_MAX_SUPERNODE,
    )
    yield "supernodes", part
    yield "block_pattern", block_pattern(fill, part)


def _timed_stages(work: CSCMatrix) -> tuple[dict, list]:
    """Wall seconds per stage, and the stage results."""
    seconds, results = {}, []
    t0 = time.perf_counter()
    for stage, result in _large_n_pipeline(work):
        t1 = time.perf_counter()
        seconds[stage] = t1 - t0
        results.append(result)
        t0 = time.perf_counter()
    return seconds, results


def _traced_stages(work: CSCMatrix, tracer=None) -> tuple[dict, int]:
    """Allocator-level peak bytes per stage and over the whole pipeline,
    via ``tracemalloc``, each above the bytes live when it started.

    Run as a separate untimed pass: tracing slows the merge loop several
    fold, so the timing columns never run under it. NumPy >= 1.22 reports
    its buffer allocations to tracemalloc, so array peaks are included.
    """
    peaks = {}
    pipeline_peak = 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        start = base
        tracemalloc.reset_peak()
        for stage, result in _large_n_pipeline(work, tracer=tracer):
            peak = tracemalloc.get_traced_memory()[1]
            peaks[stage] = int(peak - start)
            pipeline_peak = max(pipeline_peak, int(peak - base))
            del result
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
    finally:
        tracemalloc.stop()
    return peaks, pipeline_peak


def run_large_n_benchmark() -> dict:
    """Per-stage pipeline tier (artifact ``data``).

    For every pattern of :data:`LARGE_N_PATTERNS`: time each stage of
    :data:`LARGE_N_STAGES`, check Theorem 3 (the postorder keeps the
    fill's nnz), and record each stage's ``tracemalloc`` peak, the
    pipeline's peak and the static fill's ``symbolic.peak_bytes`` model
    gauge.
    """
    rows = []
    for name, build in LARGE_N_PATTERNS:
        work = build()
        seconds, (fill, post, part, bp) = _timed_stages(work)
        if post.nnz != fill.nnz:
            raise AssertionError(f"postorder changed the fill's nnz on {name}")
        gauge_tr = Tracer(detail=True)
        peaks, pipeline_peak = _traced_stages(work, tracer=gauge_tr)
        gauge = gauge_tr.metrics.get("symbolic.peak_bytes")
        rows.append(
            {
                "pattern": name,
                "n": work.n_cols,
                "nnz": work.nnz,
                "nnz_filled": fill.nnz,
                "n_supernodes": part.n_supernodes,
                "n_blocks": bp.n_blocks,
                "stage_s": seconds,
                "pipeline_s": sum(seconds.values()),
                "stage_peak_bytes": peaks,
                "pipeline_peak_bytes": pipeline_peak,
                "model_peak_bytes": int(gauge.value) if gauge is not None else 0,
            }
        )
    return {
        "tier": "quick",
        "stages": list(LARGE_N_STAGES),
        "max_padding": DEFAULT_MAX_PADDING,
        "max_supernode": DEFAULT_MAX_SUPERNODE,
        "patterns": rows,
        "cpu_count": available_cpus(),
        "memory_measured": True,
    }


def large_summary_rows(data: dict) -> list:
    """``(quantity, value)`` rows for the large-n table."""
    out = []
    for row in data["patterns"]:
        label = f"{row['pattern']} (n={row['n']})"
        for stage in data["stages"]:
            out.append(
                (
                    f"{label} {stage}",
                    f"{row['stage_s'][stage]:.2f} s / "
                    f"peak {row['stage_peak_bytes'][stage] / 1e6:.1f} MB",
                )
            )
        out.append(
            (
                f"{label} pipeline",
                f"{row['pipeline_s']:.2f} s / "
                f"peak {row['pipeline_peak_bytes'] / 1e6:.1f} MB "
                f"(fill model {row['model_peak_bytes'] / 1e6:.1f} MB)",
            )
        )
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
        title="symbolic large-n tier: per-stage time and peak memory",
    )
    emit("bench_symbolic_large_n", text, data)

    # Every stage ran on every family, and the postorder kept the fill's
    # nnz (run_large_n_benchmark raises otherwise).
    for row in data["patterns"]:
        assert list(row["stage_s"]) == data["stages"], row["pattern"]
        assert row["pipeline_peak_bytes"] > 0, row["pattern"]
    # Amalgamation's transient arrays stay below the fill it partitions.
    grid = next(r for r in data["patterns"] if r["pattern"] == "grid")
    peaks = grid["stage_peak_bytes"]
    assert peaks["supernodes"] < peaks["static_fill"], peaks

"""Serving-layer benchmark: cold vs. warm request streams.

Replays the same synthetic stream of ``solve(A, b)`` requests
(sherman3-class patterns, several requests each) twice against one
:class:`~repro.serve.cache.PlanCache`:

* **cold** — the cache starts empty, so every distinct pattern pays the
  full symbolic analysis inside its first batch;
* **warm** — the cache is already populated, so requests run the numeric
  phase only.

It emits throughput, latency percentiles, and cache statistics as the
``bench_serve`` paired artifact (``results/bench_serve.{txt,json}``).

The warm/cold throughput ratio quantifies the paper's core claim in
serving terms: the static symbolic factorization is a reusable, pattern-
pure asset — it measures exactly the symbolic work a server amortizes
away. The assertion pins the acceptance bar (warm >= 1.5x cold from
matrix scale 0.15 up, which the default ``REPRO_BENCH_SCALE`` reaches).
"""

import time

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import PlanCache
from repro.serve.plan import build_plan
from repro.serve.refactor import refactorize_with_plan
from repro.serve.service import SolverService
from repro.sparse.generators import paper_matrix
from repro.sparse.ops import matvec
from repro.util.tables import format_table

#: The bar was 2x when the cold path ran the reference symbolic kernels;
#: the fast array kernels (see docs/symbolic.md) cut the cold cost itself,
#: which shrinks the warm advantage. It is pinned from ``BAR_SCALE`` (the
#: matrix scale it was set at) up: at smoke sizes the symbolic
#: phase is too small a share of a cold request for plan reuse to show,
#: so those runs record the ratio and check residuals and hit rate only.
MIN_WARM_OVER_COLD = 1.5
BAR_SCALE = 0.15
N_PATTERNS = 6
REQUESTS_PER_PATTERN = 2
N_WORKERS = 2
REPEATS = 2
MATRIX = "sherman3"


def _percentiles(latencies: list[float]) -> dict:
    arr = np.asarray(latencies, dtype=np.float64)
    return {
        "p50_s": float(np.percentile(arr, 50)),
        "p95_s": float(np.percentile(arr, 95)),
        "mean_s": float(arr.mean()),
        "max_s": float(arr.max()),
    }


def _replay(service: SolverService, stream: list, label: str) -> dict:
    """Submit every (a, b) of ``stream``, wait for all, measure."""
    t0 = time.monotonic()
    submitted = []
    for a, b in stream:
        t_submit = time.monotonic()
        submitted.append((service.submit(a, b), t_submit))
    xs = [p.result(timeout=600.0) for p, _ in submitted]
    wall = time.monotonic() - t0
    latencies = [p.completed_at - t_submit for p, t_submit in submitted]
    # Spot-check correctness: every answer must actually solve its system.
    worst = 0.0
    for (a, b), x in zip(stream, xs):
        r = float(np.max(np.abs(matvec(a, x) - b))) / (
            float(np.max(np.abs(b))) or 1.0
        )
        worst = max(worst, r)
    return {
        "stream": label,
        "n_requests": len(stream),
        "wall_s": wall,
        "throughput_rps": len(stream) / wall if wall > 0 else 0.0,
        "worst_residual": worst,
        **_percentiles(latencies),
    }


def build_request_stream(scale: float, *, seed: int = 0) -> list:
    """``N_PATTERNS`` distinct sherman3-class patterns, each asked
    ``REQUESTS_PER_PATTERN`` times (same values, distinct RHS).

    Same-pattern requests share values, so the service's batcher can merge
    them — the realistic shape of a simulator resolving one Jacobian for
    several load vectors.
    """
    rng = np.random.default_rng(seed)
    stream = []
    for i in range(N_PATTERNS):
        a = paper_matrix(MATRIX, scale=scale * (1.0 + 0.2 * i))
        for _ in range(REQUESTS_PER_PATTERN):
            stream.append((a, rng.standard_normal(a.n_cols)))
    return stream


def run_serve_benchmark(scale: float) -> dict:
    """Cold-then-warm replay (artifact ``data``).

    The two passes share one plan cache (and one metrics registry): the
    cold passes populate it, the warm passes hit it. Each pass gets a
    fresh :class:`SolverService` so queue state never leaks between
    streams. Every stream is replayed ``REPEATS`` times — the cache is
    cleared before each cold replay — and the fastest replay of each kind
    is reported (the usual minimum-wall noise-robust estimator).
    """
    metrics = MetricsRegistry()
    stream = build_request_stream(scale)
    cache = PlanCache(max_entries=max(2 * N_PATTERNS, 8), metrics=metrics)

    # Untimed warm-up: one full cold+warm round on a small matrix, through
    # a throwaway plan, so allocator/BLAS first-touch costs don't land in
    # the cold stream of the measured run.
    warmup_a = paper_matrix(MATRIX, scale=min(scale, 0.06))
    warmup_plan = build_plan(warmup_a)
    for _ in range(2):
        refactorize_with_plan(warmup_plan, warmup_a).solve(
            np.ones((warmup_a.n_cols, 2))
        )

    cold_runs = []
    for _ in range(REPEATS):
        cache.clear()  # every cold replay starts genuinely cold
        with SolverService(
            n_workers=N_WORKERS, cache=cache, metrics=metrics
        ) as svc:
            cold_runs.append(_replay(svc, stream, "cold"))
    cold = min(cold_runs, key=lambda r: r["wall_s"])
    cold_cache = cache.stats()
    warm_runs = []
    for _ in range(REPEATS):
        with SolverService(
            n_workers=N_WORKERS, cache=cache, metrics=metrics
        ) as svc:
            warm_runs.append(_replay(svc, stream, "warm"))
            service_stats = svc.stats()
    warm = min(warm_runs, key=lambda r: r["wall_s"])
    warm_cache = cache.stats()

    warm_hits = warm_cache["hits"] - cold_cache["hits"]
    warm_total = (
        warm_cache["hits"]
        + warm_cache["misses"]
        - cold_cache["hits"]
        - cold_cache["misses"]
    )
    ratio = (
        warm["throughput_rps"] / cold["throughput_rps"]
        if cold["throughput_rps"] > 0
        else 0.0
    )
    return {
        "matrix": MATRIX,
        "scale": scale,
        "n_patterns": N_PATTERNS,
        "requests_per_pattern": REQUESTS_PER_PATTERN,
        "n_workers": N_WORKERS,
        "cold": cold,
        "warm": warm,
        "warm_over_cold_throughput": ratio,
        "cache_cold": cold_cache,
        "cache_warm": warm_cache,
        "warm_hit_rate": warm_hits / warm_total if warm_total else 0.0,
        "service": {
            k: service_stats[k]
            for k in ("batches", "completed", "mean_batch_size")
        },
    }


def summary_rows(data: dict) -> list:
    """``(quantity, value)`` rows for the rendered table."""
    cold, warm = data["cold"], data["warm"]
    return [
        ("patterns x requests",
         f"{data['n_patterns']} x {data['requests_per_pattern']}"),
        ("workers", data["n_workers"]),
        ("cold throughput (req/s)", round(cold["throughput_rps"], 2)),
        ("warm throughput (req/s)", round(warm["throughput_rps"], 2)),
        ("warm / cold", round(data["warm_over_cold_throughput"], 2)),
        ("cold p50 / p95 (ms)",
         f"{cold['p50_s'] * 1e3:.1f} / {cold['p95_s'] * 1e3:.1f}"),
        ("warm p50 / p95 (ms)",
         f"{warm['p50_s'] * 1e3:.1f} / {warm['p95_s'] * 1e3:.1f}"),
        ("warm-stream cache hit rate", round(data["warm_hit_rate"], 3)),
        ("mean batch size", round(data["service"]["mean_batch_size"], 2)),
        ("worst residual", f"{max(cold['worst_residual'], warm['worst_residual']):.2e}"),
    ]


def test_bench_serve_cold_vs_warm(bench_config, emit):
    scale = bench_config.scale * 0.5
    data = run_serve_benchmark(scale)
    text = format_table(
        ["quantity", "value"],
        summary_rows(data),
        title=f"cold vs warm serving: {data['matrix']} @ scale {scale:g}",
    )
    emit("bench_serve", text, data)

    # Every answer in both streams actually solved its system.
    assert data["cold"]["worst_residual"] < 1e-8
    assert data["warm"]["worst_residual"] < 1e-8
    # The warm stream ran entirely out of the plan cache...
    assert data["warm_hit_rate"] == 1.0
    # ...and skipping the symbolic phase paid the acceptance bar.
    if scale >= BAR_SCALE:
        assert data["warm_over_cold_throughput"] >= MIN_WARM_OVER_COLD, data

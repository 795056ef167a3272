"""Drivers behind ``repro tune`` and ``repro ordering-bench``.

Both are symbolic-only (no numeric factorization): they exercise the
ordering implementations, the recipe evaluator, and the autotuner, and
return plain dicts ready to be wrapped in the ``repro.bench`` artifact
schema (:func:`repro.obs.export.bench_document`).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.numeric.solver import ORDERINGS
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.parallel.machine import MachineModel, ORIGIN2000
from repro.serve.cache import PlanCache
from repro.sparse.generators import paper_matrix
from repro.tune.autotune import autotune
from repro.tune.cost import evaluate_recipe
from repro.tune.recipe import OrderingRecipe


def run_tune(
    matrix: str = "sherman3",
    *,
    scale: float = 0.35,
    n_procs: int = 8,
    objective: str = "time",
    quick: bool = False,
    machine: MachineModel = ORIGIN2000,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> dict:
    """Autotune one analog and prove the per-pattern recipe amortization.

    Runs the search once cold, then a second time against the same cache
    — the second call must be a recipe hit that skips the search, which
    is the economics the subsystem exists for. Both outcomes land in the
    returned dict (``second_call.recipe_hit``).
    """
    a = paper_matrix(matrix, scale=scale)
    reg = metrics if metrics is not None else MetricsRegistry()
    tr = tracer if tracer is not None else Tracer(enabled=False)
    cache = PlanCache(metrics=reg)
    result = autotune(
        a,
        objective=objective,
        n_procs=n_procs,
        machine=machine,
        cache=cache,
        quick=quick,
        tracer=tr,
        metrics=reg,
    )
    again = autotune(
        a,
        objective=objective,
        n_procs=n_procs,
        machine=machine,
        cache=cache,
        quick=quick,
        tracer=tr,
        metrics=reg,
    )
    stats = cache.stats()
    return {
        "matrix": matrix,
        "scale": float(scale),
        "n": a.n_cols,
        "nnz": a.nnz,
        "n_procs": n_procs,
        "objective": objective,
        "quick": bool(quick),
        "winner": result.score.as_dict(),
        "recipe": result.recipe.spec(),
        "candidates": [s.as_dict() for s in result.scores],
        "searched": result.searched,
        "search_seconds": float(result.search_seconds),
        "second_call": {
            "searched": again.searched,
            "recipe_hit": (not again.searched)
            and again.recipe.key == result.recipe.key,
            "seconds": float(again.search_seconds),
        },
        "cache": {
            "recipe_hits": stats["recipe_hits"],
            "recipe_misses": stats["recipe_misses"],
            "recipes": stats["recipes"],
        },
    }


def tune_summary_rows(data: dict) -> list[tuple]:
    """``(quantity, value)`` rows for the CLI table."""
    rows: list[tuple] = [
        ("matrix", f"{data['matrix']} (n={data['n']}, nnz={data['nnz']})"),
        ("objective", f"{data['objective']} @ P={data['n_procs']}"),
        ("candidates scored", len(data["candidates"])),
        ("winning recipe", data["recipe"]),
        ("predicted T(P)", round(data["winner"]["predicted_time"], 4)),
        ("fill ratio", round(data["winner"]["fill_ratio"], 3)),
        ("supernodes", data["winner"]["n_supernodes"]),
        ("flops", data["winner"]["flops"]),
        ("search seconds", round(data["search_seconds"], 3)),
        ("second call recipe hit", data["second_call"]["recipe_hit"]),
    ]
    return rows


def candidate_rows(data: dict) -> list[tuple]:
    """Per-candidate table rows (best first)."""
    return [
        (
            s["recipe"],
            round(s["fill_ratio"], 3),
            s["n_supernodes"],
            s["flops"],
            round(s["predicted_time"], 4),
        )
        for s in data["candidates"]
    ]


def run_ordering_benchmark(
    matrices: Sequence[str] = ("sherman3", "sherman5", "lnsp3937"),
    *,
    scale: float = 0.35,
    n_procs: int = 8,
    orderings: Sequence[str] = ORDERINGS,
    machine: MachineModel = ORIGIN2000,
) -> dict:
    """Score every ordering on every matrix (the extended ablation).

    One :func:`evaluate_recipe` call per (matrix, ordering) at the
    default amalgamation, plus the ordering's own wall time (the
    pipeline's ``ordering`` span) — AMD's raison d'être is matching exact
    minimum degree's fill at a fraction of its ordering cost, so the
    bench reports both.
    """
    rows: list[dict] = []
    for name in matrices:
        a = paper_matrix(name, scale=scale)
        for ordering in orderings:
            tr = Tracer()
            t0 = time.perf_counter()
            score = evaluate_recipe(
                a,
                OrderingRecipe(ordering=ordering),
                n_procs=n_procs,
                machine=machine,
                tracer=tr,
            )
            rows.append(
                {
                    "matrix": name,
                    "ordering": ordering,
                    "n": a.n_cols,
                    "fill_ratio": float(score.fill_ratio),
                    "n_supernodes": score.n_supernodes,
                    "flops": int(score.flops),
                    "predicted_time": float(score.predicted_time),
                    "ordering_seconds": tr.stage_seconds()["ordering"],
                    "pipeline_seconds": time.perf_counter() - t0,
                }
            )
    agreement = {}
    for name in matrices:
        by = {r["ordering"]: r for r in rows if r["matrix"] == name}
        if "amd" in by and "mindeg" in by:
            agreement[name] = float(
                by["amd"]["fill_ratio"] / by["mindeg"]["fill_ratio"]
            )
    return {
        "scale": float(scale),
        "n_procs": n_procs,
        "matrices": list(matrices),
        "orderings": list(orderings),
        "rows": rows,
        "amd_over_mindeg_fill": agreement,
    }


def ordering_rows(data: dict) -> list[tuple]:
    """Table rows of :func:`run_ordering_benchmark` output."""
    return [
        (
            r["matrix"],
            r["ordering"],
            round(r["fill_ratio"], 4),
            r["n_supernodes"],
            r["flops"],
            round(r["predicted_time"], 4),
            round(r["ordering_seconds"], 4),
            round(r["pipeline_seconds"], 3),
        )
        for r in data["rows"]
    ]

"""One run of one workload, in a process of its own.

Started by ``run.py`` with a clean environment. Prints two JSON lines: an
``info`` line (input hash, sample statistics, diagnostics, provenance) and,
last, the result line with exactly ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
#: Set-up runs this many times; ``setup_s`` is the median.
SETUP_REPS = 3


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def sample_stats(samples: list) -> dict:
    """Median, quartiles, count, and the highest percentile that still has
    ten samples beyond it (none below 20 samples)."""
    n = len(samples)
    q1, q2, q3 = statistics.quantiles(samples, n=4) if n > 1 else samples * 3
    out = {"n": n, "p25": q1, "p50": q2, "p75": q3}
    if n >= 20:
        out["tail_pct"] = 100.0 * (1.0 - 10.0 / n)
        out["tail"] = float(np.percentile(samples, out["tail_pct"]))
    return out


def run_untraced(wl, seconds: float):
    setup_times = []
    try:
        for _ in range(SETUP_REPS):
            wl.teardown()
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        wl.check_invariants()
        # A full collection now, not at some point of the timed window: on
        # a multi-core host the first one is also when the kernel stops
        # keeping the engine's worker threads on one core, after which the
        # threaded engine runs at a different, steady speed.
        gc.collect()
        hasher = hashlib.sha256()
        measured = wl.measure(seconds, hasher)
    finally:
        wl.teardown()
    values = {
        "setup_s": statistics.median(setup_times),
        "request_p50_s": statistics.median(measured.op_latencies),
        "request_p90_s": float(np.percentile(measured.request_latencies, 90)),
        "request_rps": len(measured.request_latencies) / measured.window_s,
        "resolve_s": statistics.median(measured.resolve_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "input_sha256": hasher.hexdigest(),
        "request_s": sample_stats(measured.request_latencies),
        "setup_s": setup_times,
        "window_s": measured.window_s,
        "detail": measured.detail,
    }
    attempted = len(measured.request_latencies) + len(measured.resolve_times)
    return values, attempted, measured.failed, info


def run_traced(wl, declared: list):
    import traced

    metrics, skipped, rec, attempted, failed = traced.run_traced(wl, declared)
    OUT_DIR.mkdir(exist_ok=True)
    rec.write(
        OUT_DIR / f"trace_{wl.name}.json",
        workload=wl.name,
        seed=wl.seed,
        metrics=metrics,
        skipped_probes=skipped,
    )
    return metrics, attempted, failed, {"skipped_probes": skipped}


def provenance() -> dict:
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass  # older NumPy: no structured build info
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    t_wall = time.perf_counter()
    from workloads import WORKLOADS

    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload](args.seed, args.quick)
    if args.trace:
        values, attempted, failed, info = run_traced(wl, list(units))
    else:
        values, attempted, failed, info = run_untraced(wl, args.seconds)
    if set(values) != set(units):
        raise RuntimeError(
            "measured and declared metrics differ: "
            f"{sorted(set(values) ^ set(units))}"
        )
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        wall_s=time.perf_counter() - t_wall,
        **provenance(),
    )
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

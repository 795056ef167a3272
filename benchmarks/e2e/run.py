"""End-to-end benchmark of the sparse-LU request paths.

    python3 benchmarks/e2e/run.py                      # every workload, both runs
    python3 benchmarks/e2e/run.py --repeat-check       # two sets against the bounds
    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

Every run of a workload happens in a fresh subprocess (``worker.py``) with
BLAS pinned to one thread and the ``REPRO_*`` switches cleared. With
``--workload`` the last line printed is the worker's result object;
without it, every declared metric of every workload is printed by name
with its unit. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, quick: bool):
    """One worker run: ``(exit code, stdout)``; stderr passes through."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )  # fmt: skip
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker killed after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def run_parsed(workload: str, args, trace: int):
    """``(info, result)`` of one worker run; raises when the worker failed."""
    code, out = run_worker(workload, args.seed, args.seconds, trace, args.quick)
    lines = out.strip().splitlines()
    if code != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} (trace {trace}): worker exited with {code}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def print_set(spec: dict, args, traces=(0, 1)) -> dict:
    """Run every workload once per entry of ``traces`` and print each metric."""
    results = {}
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in traces:
            info, result = run_parsed(wl, args, trace)
            results[wl, trace] = result
            print(
                f"\n== {wl}  trace={trace}  seed={args.seed}  "
                f"attempted={result['attempted']}  failed={result['failed']}  "
                f"wall={info['wall_s']:.1f}s"
            )
            if not trace:
                stats = info["request_s"]
                tail = (
                    f"  p{stats['tail_pct']:.0f}={stats['tail']:.4g}"
                    if "tail" in stats
                    else ""
                )
                print(
                    f"   inputs sha256 {info['input_sha256']}\n"
                    f"   request_s: n={stats['n']}  p25={stats['p25']:.4g}  "
                    f"p50={stats['p50']:.4g}  p75={stats['p75']:.4g}{tail}"
                )
                for name, value in info["detail"].items():
                    print(f"   ({name} = {value})")
            for name, probe_error in info.get("skipped_probes", {}).items():
                print(f"   skipped probe {name}: {probe_error.splitlines()[-1]}")
            for name, m in result["metrics"].items():
                value = "null" if m["value"] is None else f"{m['value']:.6g}"
                print(f"   {name:32s} {value:>14s} {m['unit']}")
    print(
        f"\nhost: nproc={info['nproc']} python={info['python']} "
        f"numpy={info['numpy']} blas={info['blas']} commit={git_commit()}"
    )
    return results


def repeat_check(spec: dict, args) -> int:
    """Two untraced sets back to back; each metric's change next to its bound."""
    first, second = (print_set(spec, args, traces=(0,)) for _ in range(2))
    worst = 0
    rows = []
    print(
        f"\n{'workload':19s} {'metric':15s} {'first':>11s} {'second':>11s} "
        f"{'worse by':>10s} {'bound':>7s}"
    )
    for (wl, _), result in first.items():
        for m in spec["end_to_end"]:
            a = result["metrics"][m["name"]]["value"]
            b = second[wl, 0]["metrics"][m["name"]]["value"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            over = worse > m["bound"]
            worst |= over
            rows.append(
                {"workload": wl, "metric": m["name"], "first": a, "second": b,
                 "worse_by": worse, "bound": m["bound"]}
            )  # fmt: skip
            print(
                f"{wl:19s} {m['name']:15s} {a:11.5g} {b:11.5g} {worse:+10.3f} "
                f"{m['bound']:7.2f}{'  OVER' if over else ''}"
            )
    out = HERE / "out" / "repeat_check.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(
        json.dumps({"seed": args.seed, "seconds": args.seconds, "rows": rows}, indent=1)
        + "\n"
    )
    print(f"\nwrote {out.relative_to(ROOT)}")
    return int(worst)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny sizes (smoke test)")
    ap.add_argument("--repeat-check", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    if args.workload:
        code, out = run_worker(
            args.workload, args.seed, args.seconds, args.trace, args.quick
        )
        sys.stdout.write(out)
        return code
    if args.repeat_check:
        code = repeat_check(spec, args)
    else:
        code = int(any(r["failed"] for r in print_set(spec, args).values()))
    print(f"total wall time {time.perf_counter() - t0:.1f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())

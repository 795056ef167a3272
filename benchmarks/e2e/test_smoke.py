"""Smoke test of the end-to-end benchmark at ``--quick`` sizes.

    PYTHONPATH=src python3 -m pytest benchmarks/e2e -q

Not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(workload: str, trace: int, seed: int = 0):
    """``(info, result)`` of one quick run through ``run.py``."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--quick", "--workload", workload,
            "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
        ],  # fmt: skip
        capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return info["info"], result


def test_declared_names_are_well_formed_and_unique():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    info, result = run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert re.fullmatch(r"[0-9a-f]{64}", info["input_sha256"])


def test_inputs_and_exact_counts_are_a_function_of_the_seed():
    hashes = [run("cold_sweep", 0, seed)[0]["input_sha256"] for seed in (0, 0, 1)]
    assert hashes[0] == hashes[1] != hashes[2]
    first, again = (run("cold_sweep", trace=1)[1]["metrics"] for _ in range(2))
    for name in ("symbolic.nnz_filled", "taskgraph.n_tasks", "numeric.flops_spent"):
        assert first[name]["value"] == again[name]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    info, result = run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert info["skipped_probes"] == {}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] is not None for m in result["metrics"].values())
    trace = json.loads((HERE / "out" / f"trace_{workload}.json").read_text())
    assert {s["name"] for s in trace["spans"]} >= {"request", "numeric.engine"}


def test_a_broken_probe_nulls_only_its_own_metrics(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(HERE.parents[1] / "src"))
    import traced
    import workloads

    def broken(*args, **kwargs):
        raise AttributeError("renamed by a later refactor")

    monkeypatch.setattr(traced, "probe_amd", broken)
    declared = [m["name"] for m in SPEC["per_layer"]]
    wl = workloads.WarmRefactor(seed=0, quick=True)
    metrics, skipped, _, attempted, failed = traced.run_traced(wl, declared)
    assert list(skipped) == ["audit.amd"]
    assert metrics["ordering.amd_s"] is None and metrics["ordering.order_s"] > 0
    assert (attempted, failed) == (wl.trace_ops, 0)

"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper and prints it
(run with ``-s`` to see the tables inline; they are also written to
``benchmarks/results/``). ``REPRO_BENCH_SCALE`` controls matrix size
(default 0.35; 1.0 reproduces the published orders).

Each emitted table is paired with a machine-readable JSON artifact
(``results/<name>.json``, schema ``repro.bench`` v1 — see
docs/observability.md) so downstream tooling can diff runs without
scraping the rendered text. ``emit`` is the one place such an artifact
is built, schema-validated and written: a bench whose payload does not
validate fails instead of leaving a bad file behind.

Also loaded by ``pytest benchmarks/e2e``: keep the imports light and add
no required option here.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.eval.config import BenchConfig
from repro.obs.export import bench_document, validate_bench_document, write_json

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_config() -> BenchConfig:
    return BenchConfig()


@pytest.fixture(scope="session")
def emit():
    """Print a regenerated table; validate and persist it (txt + JSON)."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str, data: dict | None = None) -> None:
        print("\n" + text)
        doc = bench_document(
            name,
            text=text,
            data=data,
            meta={"scale_env": os.environ.get("REPRO_BENCH_SCALE", "")},
        )
        errors = validate_bench_document(doc)
        if errors:
            raise ValueError(
                f"{name}: not a valid repro.bench artifact: " + "; ".join(errors)
            )
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        write_json(RESULTS_DIR / f"{name}.json", doc)

    return _emit

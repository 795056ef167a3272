"""Telemetry document schema: round-trip on `repro trace`'s document,
validator error detection, and the Chrome-trace dump of a span tree."""

import contextlib
import copy
import io
import json

import pytest

from repro.api import lu
from repro.cli import main
from repro.obs.export import (
    BENCH_SCHEMA,
    SCHEMA,
    SCHEMA_VERSION,
    bench_document,
    chrome_trace_events,
    export_json,
    validate_document,
)
from repro.obs.trace import Tracer
from repro.sparse.generators import paper_matrix


@pytest.fixture(scope="module")
def traced_doc(tmp_path_factory):
    """The document ``repro trace`` writes: a detail-traced request plus
    the simulated schedule that carries the ``engine.*`` metrics."""
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    argv = ["trace", "sherman3", "--scale", "0.2", "--json", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return json.loads(path.read_text())


class TestRealRun:
    def test_document_is_schema_valid(self, traced_doc):
        assert validate_document(traced_doc) == []

    def test_json_round_trip_stays_valid(self, traced_doc):
        rehydrated = json.loads(json.dumps(traced_doc))
        assert validate_document(rehydrated) == []
        assert rehydrated["schema"] == SCHEMA
        assert rehydrated["schema_version"] == SCHEMA_VERSION

    def test_expected_spans_present(self, traced_doc):
        roots = [s["name"] for s in traced_doc["spans"]]
        for name in ("analyze", "factorize", "solve"):
            assert name in roots
        analyze = traced_doc["spans"][roots.index("analyze")]
        children = [c["name"] for c in analyze["children"]]
        for stage in ("transversal", "ordering", "static_fill", "supernodes"):
            assert stage in children

    def test_detail_metrics_present(self, traced_doc):
        counters = {c["name"] for c in traced_doc["metrics"]["counters"]}
        assert {"kernel.factor.flops", "kernel.trsm.flops", "kernel.gemm.flops"} <= counters
        assert {"engine.tasks", "engine.messages", "engine.busy_seconds"} <= counters
        hists = {h["name"] for h in traced_doc["metrics"]["histograms"]}
        assert "kernel.panel.width" in hists

    def test_lu_trace_simulates_nothing(self):
        a = paper_matrix("sherman3", scale=0.2)
        doc = lu(a, trace=True).trace.export()
        roots = {s["name"] for s in doc["spans"]}
        assert {"analyze", "factorize"} <= roots
        assert not roots & {"task_graph", "simulate_schedule"}
        counters = {c["name"] for c in doc["metrics"]["counters"]}
        assert "kernel.gemm.flops" in counters
        assert not any(name.startswith("engine.") for name in counters)


class TestValidatorRejects:
    def test_wrong_schema_name(self, traced_doc):
        doc = copy.deepcopy(traced_doc)
        doc["schema"] = "something.else"
        assert any("$.schema" in e for e in validate_document(doc))

    def test_future_schema_version(self, traced_doc):
        doc = copy.deepcopy(traced_doc)
        doc["schema_version"] = SCHEMA_VERSION + 1
        assert any("schema_version" in e for e in validate_document(doc))

    def test_non_scalar_meta(self, traced_doc):
        doc = copy.deepcopy(traced_doc)
        doc["meta"]["nested"] = {"not": "scalar"}
        assert any("$.meta" in e for e in validate_document(doc))

    def test_child_outside_parent_interval(self, traced_doc):
        doc = copy.deepcopy(traced_doc)
        parent = doc["spans"][0]
        parent["children"][0]["start_s"] = parent["start_s"] + parent["duration_s"] + 1.0
        assert any("outside its parent" in e for e in validate_document(doc))

    def test_histogram_count_identity(self, traced_doc):
        doc = copy.deepcopy(traced_doc)
        h = doc["metrics"]["histograms"][0]
        h["count"] += 1
        assert any("sum(counts)" in e for e in validate_document(doc))

    def test_negative_counter(self, traced_doc):
        doc = copy.deepcopy(traced_doc)
        doc["metrics"]["counters"][0]["value"] = -3
        assert any("below minimum" in e for e in validate_document(doc))

    def test_missing_span_keys(self):
        doc = export_json(Tracer())
        doc["spans"] = [{"name": "x"}]
        assert any("missing keys" in e for e in validate_document(doc))

    def test_nan_meta_is_allowed(self):
        # Python's json emits NaN literals; the validator follows suit.
        doc = export_json(Tracer())
        doc["meta"]["residual"] = float("nan")
        assert validate_document(doc) == []


class TestChromeTrace:
    def test_events_from_tracer(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        events = chrome_trace_events(tr)
        assert [e["name"] for e in events] == ["outer", "inner"]
        for e in events:
            assert e["ph"] == "X"
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0
        json.dumps(events)  # must serialize


class TestBenchDocument:
    def test_wrapper_shape(self):
        doc = bench_document("table1", text="a table", data={"rows": [1, 2]})
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["schema_version"] == 1
        assert doc["name"] == "table1"
        assert doc["text"] == "a table"
        assert doc["data"] == {"rows": [1, 2]}
        json.dumps(doc)

"""repro.obs — zero-dependency observability for the LU pipeline.

Structured tracing (nested wall-clock spans), a metrics registry
(counters / gauges / histograms), and exporters: a schema-versioned JSON
telemetry document, an ASCII tree view (``repro trace``), and Chrome-trace
event dumps for both real runs and simulated schedules.

The stable span hierarchy, metric names, and the JSON schema are documented
in ``docs/observability.md``. Entry points:

>>> from repro.api import lu
>>> from repro.sparse import paper_matrix
>>> handle = lu(paper_matrix("sherman3", scale=0.2), trace=True)
>>> doc = handle.trace.export()
>>> from repro.obs import validate_document
>>> validate_document(doc)
[]
"""

from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NULL_SPAN, Span, Tracer
from repro.obs.export import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    SCHEMA,
    SCHEMA_VERSION,
    bench_document,
    chrome_trace_events,
    export_json,
    validate_document,
    validate_bench_document,
    write_json,
)
from repro.obs.render import render_metrics, render_span_tree, render_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BOUNDS",
    "Span",
    "Tracer",
    "NULL_SPAN",
    "SCHEMA",
    "SCHEMA_VERSION",
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "export_json",
    "bench_document",
    "validate_document",
    "validate_bench_document",
    "chrome_trace_events",
    "write_json",
    "render_trace",
    "render_span_tree",
    "render_metrics",
]

"""Telemetry exporters: versioned JSON documents and Chrome-trace dumps.

The JSON document is the repo's stable machine-readable result format (the
shape future ``BENCH_*.json`` entries use). The schema is deliberately
simple enough to validate with a hand-rolled structural checker —
:func:`validate_document` — so no external jsonschema dependency is needed;
``docs/observability.md`` is the human-readable schema reference and any
change to the layout MUST bump :data:`SCHEMA_VERSION` there and here.

Document layout (``repro.telemetry`` version 1)::

    {
      "schema": "repro.telemetry",
      "schema_version": 1,
      "meta": {<free-form scalars: matrix, scale, options, ...>},
      "spans": [
        {"name": str, "start_s": float, "duration_s": float,
         "attrs": {str: scalar}, "children": [<span>...]},
        ...
      ],
      "metrics": {
        "counters":   [{"name", "unit", "value"}, ...],
        "gauges":     [{"name", "unit", "value"}, ...],
        "histograms": [{"name", "unit", "bounds", "counts",
                        "count", "total", "min", "max"}, ...]
      }
    }

``start_s`` is relative to the tracer's creation, so documents from
different runs are comparable without wall-clock anchoring; a child span
always nests inside its parent's ``[start_s, start_s + duration_s]``
interval (validated, with float tolerance).

Chrome-trace export (:func:`chrome_trace_events`) produces the
``chrome://tracing`` / Perfetto "complete event" (``ph: "X"``) array form
of a traced run.
"""

from __future__ import annotations

import json
from typing import Optional

#: Name + version stamped into every telemetry document.
SCHEMA = "repro.telemetry"
SCHEMA_VERSION = 1

#: Name + version of the benchmark-artifact wrapper documents.
BENCH_SCHEMA = "repro.bench"
BENCH_SCHEMA_VERSION = 1

_SCALARS = (str, int, float, bool, type(None))
_EPS = 1e-6


def _span_dict(span, origin: float) -> dict:
    return {
        "name": span.name,
        "start_s": span.start - origin,
        "duration_s": span.duration,
        "attrs": {k: v for k, v in span.attrs.items()},
        "children": [_span_dict(c, origin) for c in span.children],
    }


def export_json(tracer, *, meta: Optional[dict] = None) -> dict:
    """Serialize ``tracer`` (spans + metrics) as a telemetry document."""
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "meta": dict(meta or {}),
        "spans": [_span_dict(r, tracer.origin) for r in tracer.roots],
        "metrics": tracer.metrics.as_dict(),
    }


def bench_document(
    name: str, *, text: str = "", data: Optional[object] = None, meta: Optional[dict] = None
) -> dict:
    """Wrap one benchmark result as a versioned JSON artifact.

    ``text`` is the rendered ASCII table (the historical ``.txt`` content);
    ``data`` carries the machine-readable payload — rows, series, or a
    metrics/telemetry sub-document.
    """
    return {
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "meta": dict(meta or {}),
        "text": text,
        "data": data,
    }


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def _err(errors: list[str], path: str, msg: str) -> None:
    errors.append(f"{path}: {msg}")


def _check_scalar_map(obj, path: str, errors: list[str]) -> None:
    if not isinstance(obj, dict):
        _err(errors, path, f"expected object, got {type(obj).__name__}")
        return
    for k, v in obj.items():
        if not isinstance(k, str):
            _err(errors, path, f"non-string key {k!r}")
        if not isinstance(v, _SCALARS):
            _err(errors, f"{path}.{k}", f"non-scalar value of type {type(v).__name__}")


def _check_number(obj, path: str, errors: list[str], *, minimum=None) -> bool:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _err(errors, path, f"expected number, got {type(obj).__name__}")
        return False
    if minimum is not None and obj < minimum:
        _err(errors, path, f"value {obj} below minimum {minimum}")
        return False
    return True


def _check_span(span, path: str, errors: list[str], bounds=None) -> None:
    if not isinstance(span, dict):
        _err(errors, path, "span must be an object")
        return
    missing = {"name", "start_s", "duration_s", "attrs", "children"} - set(span)
    if missing:
        _err(errors, path, f"missing keys {sorted(missing)}")
        return
    if not isinstance(span["name"], str) or not span["name"]:
        _err(errors, f"{path}.name", "must be a non-empty string")
    ok_start = _check_number(span["start_s"], f"{path}.start_s", errors, minimum=0.0)
    ok_dur = _check_number(span["duration_s"], f"{path}.duration_s", errors, minimum=0.0)
    _check_scalar_map(span["attrs"], f"{path}.attrs", errors)
    if ok_start and ok_dur and bounds is not None:
        lo, hi = bounds
        if span["start_s"] < lo - _EPS or span["start_s"] + span["duration_s"] > hi + _EPS:
            _err(errors, path, "child span extends outside its parent's interval")
    if not isinstance(span["children"], list):
        _err(errors, f"{path}.children", "must be a list")
        return
    if ok_start and ok_dur:
        child_bounds = (span["start_s"], span["start_s"] + span["duration_s"])
    else:
        child_bounds = None
    for i, child in enumerate(span["children"]):
        _check_span(child, f"{path}.children[{i}]", errors, bounds=child_bounds)


def _check_metric(entry, path: str, errors: list[str], kind: str) -> None:
    if not isinstance(entry, dict):
        _err(errors, path, f"{kind} must be an object")
        return
    for key in ("name", "unit"):
        if not isinstance(entry.get(key), str):
            _err(errors, f"{path}.{key}", "must be a string")
    if kind in ("counter", "gauge"):
        _check_number(
            entry.get("value"), f"{path}.value", errors,
            minimum=0.0 if kind == "counter" else None,
        )
        return
    # Histogram.
    missing = {"bounds", "counts", "count", "total", "min", "max"} - set(entry)
    if missing:
        _err(errors, path, f"missing keys {sorted(missing)}")
        return
    bounds, counts = entry["bounds"], entry["counts"]
    if not isinstance(bounds, list) or any(
        not isinstance(b, (int, float)) or isinstance(b, bool) for b in bounds
    ):
        _err(errors, f"{path}.bounds", "must be a list of numbers")
        return
    if any(b >= c for b, c in zip(bounds, bounds[1:])):
        _err(errors, f"{path}.bounds", "must be strictly ascending")
    if not isinstance(counts, list) or len(counts) != len(bounds) + 1:
        _err(errors, f"{path}.counts", f"must have {len(bounds) + 1} buckets")
        return
    if any(not isinstance(c, int) or isinstance(c, bool) or c < 0 for c in counts):
        _err(errors, f"{path}.counts", "buckets must be non-negative integers")
        return
    if _check_number(entry["count"], f"{path}.count", errors, minimum=0):
        if sum(counts) != entry["count"]:
            _err(errors, path, f"sum(counts)={sum(counts)} != count={entry['count']}")
    _check_number(entry["total"], f"{path}.total", errors)
    if entry["count"] == 0:
        if entry["min"] is not None or entry["max"] is not None:
            _err(errors, path, "min/max must be null for an empty histogram")
    else:
        _check_number(entry["min"], f"{path}.min", errors)
        _check_number(entry["max"], f"{path}.max", errors)


def validate_document(doc) -> list[str]:
    """Structurally validate a telemetry document; returns error strings.

    An empty list means the document conforms to ``repro.telemetry``
    version :data:`SCHEMA_VERSION`. Also checks that the document is
    actually JSON-serializable.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["$: document must be an object"]
    if doc.get("schema") != SCHEMA:
        _err(errors, "$.schema", f"expected {SCHEMA!r}, got {doc.get('schema')!r}")
    version = doc.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        _err(errors, "$.schema_version", f"expected positive int, got {version!r}")
    elif version > SCHEMA_VERSION:
        _err(errors, "$.schema_version", f"version {version} is newer than {SCHEMA_VERSION}")
    _check_scalar_map(doc.get("meta"), "$.meta", errors)
    spans = doc.get("spans")
    if not isinstance(spans, list):
        _err(errors, "$.spans", "must be a list")
    else:
        for i, s in enumerate(spans):
            _check_span(s, f"$.spans[{i}]", errors)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        _err(errors, "$.metrics", "must be an object")
    else:
        for kind, key in (("counter", "counters"), ("gauge", "gauges"), ("histogram", "histograms")):
            entries = metrics.get(key)
            if not isinstance(entries, list):
                _err(errors, f"$.metrics.{key}", "must be a list")
                continue
            for i, entry in enumerate(entries):
                _check_metric(entry, f"$.metrics.{key}[{i}]", errors, kind)
    if not errors:
        try:
            json.dumps(doc)
        except (TypeError, ValueError) as exc:
            _err(errors, "$", f"not JSON-serializable: {exc}")
    return errors


def validate_bench_document(doc) -> list[str]:
    """Structurally validate a benchmark artifact; returns error strings.

    An empty list means the document conforms to ``repro.bench`` version
    :data:`BENCH_SCHEMA_VERSION` (the wrapper produced by
    :func:`bench_document`): scalar ``meta``, string ``text``, and a
    JSON-serializable ``data`` payload. Used by the CI smoke step to gate
    the ``benchmarks/results/*.json`` artifacts.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["$: document must be an object"]
    if doc.get("schema") != BENCH_SCHEMA:
        _err(errors, "$.schema", f"expected {BENCH_SCHEMA!r}, got {doc.get('schema')!r}")
    version = doc.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        _err(errors, "$.schema_version", f"expected positive int, got {version!r}")
    elif version > BENCH_SCHEMA_VERSION:
        _err(
            errors,
            "$.schema_version",
            f"version {version} is newer than {BENCH_SCHEMA_VERSION}",
        )
    if not isinstance(doc.get("name"), str) or not doc.get("name"):
        _err(errors, "$.name", "must be a non-empty string")
    _check_scalar_map(doc.get("meta"), "$.meta", errors)
    if not isinstance(doc.get("text"), str):
        _err(errors, "$.text", "must be a string")
    if "data" not in doc:
        _err(errors, "$", "missing key 'data'")
    if not errors:
        try:
            json.dumps(doc)
        except (TypeError, ValueError) as exc:
            _err(errors, "$", f"not JSON-serializable: {exc}")
    return errors


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------
def chrome_trace_events(tracer) -> list[dict]:
    """Span tree as Chrome-trace complete events (µs timebase, one tid)."""
    events: list[dict] = []
    for span in tracer.walk():
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - tracer.origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                "tid": 0,
                "args": dict(span.attrs),
            }
        )
    return events


def write_json(path, doc) -> None:
    """Write any document dict as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")

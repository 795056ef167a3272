"""Nested wall-clock spans over the LU pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects — ``analyze`` with
its symbolic stages as children, ``factorize``, ``solve`` — each carrying a
wall time and scalar attributes (nnz, fill ratio, supernode counts, lazy
update statistics). The tracer also owns a
:class:`~repro.obs.metrics.MetricsRegistry` so spans and metrics export as
one document (:func:`repro.obs.export.export_json`).

Overhead contract
-----------------
``Tracer(enabled=False)`` makes :meth:`Tracer.span` return a shared no-op
context manager: one attribute check and one branch per span site, nothing
allocated. Fine-grained instrumentation (per-kernel counters in the numeric
engine) is additionally gated on :attr:`Tracer.detail`, so call sites pass
``metrics=None`` when detail is off and pay one ``is None`` branch per
event. ``tests/obs/test_overhead.py`` pins both properties.

Each thread has its own span stack: a span nests under the innermost
span its own thread has open, and is a root when that thread has none
open, so concurrent :class:`~repro.serve.SolverService` workers record
one tree per flight. Executors that run tasks concurrently
(``repro.parallel.threads``) record metrics, not spans, from workers.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["Span", "Tracer", "NULL_SPAN"]


class Span:
    """One timed region: name, wall-clock interval, attributes, children."""

    __slots__ = ("name", "start", "end", "attrs", "children")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: dict = {}
        self.children: list["Span"] = []

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set(self, **attrs) -> "Span":
        """Attach scalar attributes (str/int/float/bool)."""
        self.attrs.update(attrs)
        return self

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for c in self.children:
            yield from c.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration:.6f}s, {len(self.children)} children)"


class _NullSpan:
    """Shared no-op stand-in returned by disabled tracers.

    Supports the same surface as an open :class:`Span` context so call
    sites never branch beyond the initial ``enabled`` check.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs) -> "_NullSpan":
        return self


#: The singleton no-op span; identity-comparable in tests.
NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that opens a real span on the tracer stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: object) -> None:
        self._tracer._close(self._span)


class _ThreadStack(threading.local):
    """One open-span stack per thread (``__init__`` runs once per thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []


class Tracer:
    """Collects a forest of spans plus a metrics registry.

    Parameters
    ----------
    enabled:
        Master switch. When False every :meth:`span` call returns the
        shared :data:`NULL_SPAN` (one branch, zero allocation).
    detail:
        Opt-in for fine-grained instrumentation. The tracer itself does not
        consult it; pipeline components do — e.g.
        :func:`repro.serve.refactorize_with_plan` passes its registry into
        the numeric kernels only when ``detail`` is set,
        keeping per-task counters out of untraced runs.
    """

    def __init__(self, *, enabled: bool = True, detail: bool = False) -> None:
        self.enabled = enabled
        self.detail = detail
        self.metrics = MetricsRegistry()
        self.roots: list[Span] = []
        self._local = _ThreadStack()
        self.origin = time.perf_counter()

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs):
        """Open a named span as a child of the current one.

        Use as a context manager; the yielded object supports ``.set()``.
        """
        if not self.enabled:
            return NULL_SPAN
        s = Span(name, time.perf_counter())
        if attrs:
            s.attrs.update(attrs)
        stack = self._local.spans
        if stack:
            stack[-1].children.append(s)
        else:
            self.roots.append(s)
        stack.append(s)
        return _SpanContext(self, s)

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        # Pop through abandoned children so an exception inside a nested
        # span cannot leave the stack pointing at a closed region.
        stack = self._local.spans
        while stack:
            if stack.pop() is span:
                break

    def annotate(self, **attrs) -> None:
        """Attach attributes to the innermost span this thread has open
        (no-op otherwise)."""
        stack = self._local.spans
        if stack:
            stack[-1].attrs.update(attrs)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def walk(self) -> Iterator[Span]:
        for r in self.roots:
            yield from r.walk()

    def find(self, name: str) -> Optional[Span]:
        """First span (depth-first) with the given name."""
        for s in self.walk():
            if s.name == name:
                return s
        return None

    def stage_seconds(self) -> dict[str, float]:
        """Total wall seconds per span name, summed over occurrences.

        The flat per-stage view (``transversal``, ``ordering``,
        ``static_fill``, ``postorder``, ``supernodes``, ``task_graph``,
        ``factorize``, ...). Values are cumulative across repeated calls
        (e.g. several ``LUHandle.refactor`` rounds).
        """
        out: dict[str, float] = {}
        for s in self.walk():
            out[s.name] = out.get(s.name, 0.0) + s.duration
        return out

    # ------------------------------------------------------------------
    # Export (delegates to repro.obs.export)
    # ------------------------------------------------------------------
    def export(self, *, meta: Optional[dict] = None) -> dict:
        """The schema-versioned telemetry document (see docs/observability.md)."""
        from repro.obs.export import export_json

        return export_json(self, meta=meta)

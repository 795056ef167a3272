"""Metric primitives: counters, gauges, and fixed-bucket histograms.

The registry is the quantitative half of :mod:`repro.obs` (spans are the
temporal half). Three instrument kinds cover everything the pipeline needs:

* :class:`Counter` — monotone totals (kernel calls, flops, messages, rows
  renamed by deferred pivoting);
* :class:`Gauge` — last-written values (makespan, processor count);
* :class:`Histogram` — distributions over fixed bucket bounds (block
  widths feeding the BLAS-ramp model, GEMM row counts, ready-queue depths).

Everything is plain Python with no locks: instruments are cheap enough to
update from hot loops, and — exactly like ``LazyStats`` — concurrent
updates from the threaded executor may undercount slightly without
affecting correctness (documented, tested only single-threaded).

Metric names are dotted paths (``kernel.gemm.calls``); the stable names
emitted by the pipeline are catalogued in ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Optional, Sequence

#: Default histogram bounds: powers of two covering supernodal block widths
#: and queue depths. ``counts`` has one extra overflow bucket above the top.
DEFAULT_BOUNDS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


class Counter:
    """A monotone accumulator. ``inc()`` never goes backwards."""

    __slots__ = ("name", "unit", "value")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        self.value += n

    def as_dict(self) -> dict:
        return {"name": self.name, "unit": self.unit, "value": self.value}


class Gauge:
    """A last-value instrument (overwritten, not accumulated)."""

    __slots__ = ("name", "unit", "value")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self.value: float = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def as_dict(self) -> dict:
        return {"name": self.name, "unit": self.unit, "value": self.value}


class Histogram:
    """Fixed-bound bucket histogram with running sum/min/max.

    ``counts[i]`` counts observations ``v <= bounds[i]`` (first matching
    bucket); ``counts[-1]`` is the overflow bucket ``v > bounds[-1]``, so
    ``len(counts) == len(bounds) + 1`` and ``sum(counts) == count`` — the
    identity the schema validator enforces.
    """

    __slots__ = ("name", "unit", "bounds", "counts", "count", "total", "min", "max")

    def __init__(
        self,
        name: str,
        unit: str = "",
        bounds: Sequence[float] = DEFAULT_BOUNDS,
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name}: bounds must be ascending, got {bounds}")
        self.name = name
        self.unit = unit
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, v: float) -> None:
        v = float(v)
        i = 0
        for b in self.bounds:
            if v <= b:
                break
            i += 1
        self.counts[i] += 1
        self.count += 1
        self.total += v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "unit": self.unit,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Re-requesting a name returns the existing instrument (units must agree);
    requesting an existing name as a different kind is an error — the
    telemetry schema keys metrics by name, so a name has exactly one kind.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str, unit: str = "") -> Counter:
        c = self._counters.get(name)
        if c is None:
            self._check_free(name, "counter")
            c = self._counters[name] = Counter(name, unit)
        return c

    def gauge(self, name: str, unit: str = "") -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            self._check_free(name, "gauge")
            g = self._gauges[name] = Gauge(name, unit)
        return g

    def histogram(
        self, name: str, unit: str = "", bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            self._check_free(name, "histogram")
            h = self._histograms[name] = Histogram(name, unit, bounds)
        return h

    # ------------------------------------------------------------------
    @property
    def empty(self) -> bool:
        return not (self._counters or self._gauges or self._histograms)

    def get(self, name: str):
        """Look up any instrument by name (None when absent)."""
        return (
            self._counters.get(name)
            or self._gauges.get(name)
            or self._histograms.get(name)
        )

    def as_dict(self) -> dict:
        """The ``metrics`` section of the telemetry document."""
        return {
            "counters": [c.as_dict() for c in self._counters.values()],
            "gauges": [g.as_dict() for g in self._gauges.values()],
            "histograms": [h.as_dict() for h in self._histograms.values()],
        }

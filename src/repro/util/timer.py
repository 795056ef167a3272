"""Tiny wall-clock timing helper used by the evaluation harness.

For pipeline instrumentation this has been superseded by :mod:`repro.obs`
(nested spans, metric registries, schema-versioned export); ``Timer``
remains for one-off measurements in benchmarks and scripts where a bare
context manager is all that is needed.
"""

from __future__ import annotations

import time


class Timer:
    """Context manager measuring elapsed wall-clock time in seconds.

    Example
    -------
    >>> with Timer() as t:
    ...     sum(range(1000))
    499500
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start
        self._start = None

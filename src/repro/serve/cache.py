"""Size-bounded LRU cache of symbolic plans.

The paper's economics in one data structure: symbolic analysis is the
expensive, pattern-pure half of the pipeline, so a server keyed on
:class:`~repro.serve.fingerprint.PatternFingerprint` pays it once per
distinct pattern and amortizes it over every numeric refactorization that
follows. The cache is strictly bounded (LRU eviction) and feeds hit/miss/
eviction/collision counters plus a size gauge into a
:class:`~repro.obs.metrics.MetricsRegistry` so the serve benchmarks can
report cache efficiency through the standard telemetry schema.

Thread-safety: lookups and insertions hold an internal lock; plan
construction runs outside it, **once per never-seen key**. The first
caller of :meth:`PlanCache.get_or_build` for a key builds the plan (one
counted *miss* — a miss is a build started); callers that arrive for the
same key while it is being built wait for that build and then find the
plan in the cache (a counted *hit*). If the build raises, the error goes
to the builder alone: the waiters wake, and the first of them builds.

Plans are keyed by (fingerprint, symbolic options) and the cache stores
nothing else: one pattern under two option sets (say, two ordering
recipes parsed with :func:`repro.tune.parse_recipe`) is two distinct
plans.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.numeric.solver import SolverOptions
from repro.obs.metrics import MetricsRegistry
from repro.serve.fingerprint import PatternFingerprint, fingerprint
from repro.serve.plan import SymbolicPlan, build_plan
from repro.sparse.csc import CSCMatrix
from repro.util.errors import DispatchError


class PlanCache:
    """LRU-bounded map from (pattern fingerprint, symbolic options) to plans.

    Parameters
    ----------
    max_entries:
        Hard capacity; inserting beyond it evicts the least recently used
        plan. Must be >= 1.
    metrics:
        Registry receiving ``plan_cache.{hits,misses,evictions,collisions}``
        counters and the ``plan_cache.size`` gauge. A private registry is
        created when omitted.
    """

    def __init__(
        self,
        max_entries: int = 32,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_entries < 1:
            raise DispatchError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.RLock()
        self._plans: "OrderedDict[tuple, SymbolicPlan]" = OrderedDict()
        self._building: "dict[tuple, threading.Event]" = {}  # keys in flight
        self._hits = self.metrics.counter("plan_cache.hits")
        self._misses = self.metrics.counter("plan_cache.misses")
        self._evictions = self.metrics.counter("plan_cache.evictions")
        self._collisions = self.metrics.counter("plan_cache.collisions")
        self._size = self.metrics.gauge("plan_cache.size")

    # ------------------------------------------------------------------
    @staticmethod
    def _key(a: CSCMatrix, options: SolverOptions, fp=None) -> tuple:
        """``fp`` is ``a``'s already-computed fingerprint, when the caller
        has it (hashing the pattern is the costly part of the key)."""
        return ((fp or fingerprint(a)).key, options.symbolic_key())

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def _lookup(self, key: tuple, a: CSCMatrix) -> Optional[SymbolicPlan]:
        """The verified plan under ``key`` (a counted hit) or ``None``.

        Call with the lock held. A digest hit whose stored pattern does
        not verify entry-for-entry against ``a`` counts as a *collision*
        and is treated as absent — fingerprints gate the lookup, full
        comparison gates correctness.
        """
        plan = self._plans.get(key)
        if plan is not None:
            if plan.matches(a):
                self._plans.move_to_end(key)
                self._hits.inc()
                return plan
            self._collisions.inc()
        return None

    def get(self, a: CSCMatrix, options: Optional[SolverOptions] = None):
        """The cached plan for ``a``'s pattern, or ``None`` (counted miss)."""
        key = self._key(a, options or SolverOptions())
        with self._lock:
            plan = self._lookup(key, a)
            if plan is None:
                self._misses.inc()
            return plan

    def put(self, plan: SymbolicPlan) -> None:
        """Insert (or refresh) a plan; evicts LRU entries beyond capacity.

        A plan already present for the same key wins.
        """
        key = (plan.fingerprint.key, plan.options.symbolic_key())
        with self._lock:
            if key in self._plans:
                self._plans.move_to_end(key)
            else:
                self._plans[key] = plan
                while len(self._plans) > self.max_entries:
                    self._plans.popitem(last=False)
                    self._evictions.inc()
            self._size.set(len(self._plans))

    def get_or_build(
        self,
        a: CSCMatrix,
        options: Optional[SolverOptions] = None,
        *,
        tracer=None,
        fp: Optional[PatternFingerprint] = None,
    ) -> SymbolicPlan:
        """Return the cached plan for ``a``, building and inserting on miss.

        The build runs outside the lock (it can take seconds) and once per
        key: whoever finds the key neither cached nor in flight registers
        an event, builds and inserts; everyone else waits on that event
        and looks again. Which of the three happened is annotated as
        ``plan_cache=hit|miss|waited`` on the span the caller's ``tracer``
        has open. ``fp`` is ``fingerprint(a)`` when the caller already
        computed it — the lookup then hashes nothing, and
        :meth:`SymbolicPlan.matches` remains the gate that makes a wrong
        ``fp`` a miss, not a wrong plan.
        """
        opts = options or SolverOptions()
        key = self._key(a, opts, fp)
        decision = "hit"
        while True:
            with self._lock:
                plan = self._lookup(key, a)
                if plan is not None:
                    break
                in_flight = self._building.get(key)
                if in_flight is None:
                    done = self._building[key] = threading.Event()
                    self._misses.inc()
            if in_flight is not None:
                in_flight.wait()
                decision = "waited"
                continue
            try:
                plan = build_plan(a, opts, tracer=tracer)
                self.put(plan)
                decision = "miss"
                break
            finally:
                with self._lock:
                    del self._building[key]
                done.set()
        if tracer is not None:
            tracer.annotate(plan_cache=decision)
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._size.set(0)

    def stats(self) -> dict:
        """Point-in-time counter snapshot (plain numbers, for reports)."""
        with self._lock:
            hits = int(self._hits.value)
            misses = int(self._misses.value)
            total = hits + misses
            return {
                "entries": len(self._plans),
                "max_entries": self.max_entries,
                "hits": hits,
                "misses": misses,
                "evictions": int(self._evictions.value),
                "collisions": int(self._collisions.value),
                "hit_rate": hits / total if total else 0.0,
            }

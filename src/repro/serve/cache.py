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

Besides plans, the cache keeps a second, cheaper store: the *winning
ordering recipe* per pattern fingerprint (:mod:`repro.tune`). Plans are
keyed by (fingerprint, symbolic options) — two recipes for one pattern
are two distinct plans — while recipes are keyed by fingerprint alone:
"for this pattern, this is the tuned setting". A recipe entry is a few
hundred bytes, so the recipe store survives plan evictions and makes a
cold plan build for a *known* pattern reuse the tuned recipe instead of
re-running the search.
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


class PlanCache:
    """LRU-bounded map from (pattern fingerprint, symbolic options) to plans.

    Parameters
    ----------
    max_entries:
        Hard capacity; inserting beyond it evicts the least recently used
        plan. Must be >= 1.
    max_recipes:
        Capacity of the per-fingerprint recipe store (default: eight
        recipes per plan slot — recipes are tiny and should outlive plan
        evictions).
    metrics:
        Registry receiving ``plan_cache.{hits,misses,evictions,collisions,
        recipe_hits,recipe_misses}`` counters and the ``plan_cache.size``/
        ``plan_cache.recipes`` gauges. A private registry is created when
        omitted.
    """

    def __init__(
        self,
        max_entries: int = 32,
        *,
        max_recipes: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.max_recipes = max_recipes if max_recipes is not None else 8 * max_entries
        if self.max_recipes < 1:
            raise ValueError(f"max_recipes must be >= 1, got {self.max_recipes}")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.RLock()
        self._plans: "OrderedDict[tuple, SymbolicPlan]" = OrderedDict()
        self._building: "dict[tuple, threading.Event]" = {}  # keys in flight
        self._recipes: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._hits = self.metrics.counter("plan_cache.hits")
        self._misses = self.metrics.counter("plan_cache.misses")
        self._evictions = self.metrics.counter("plan_cache.evictions")
        self._collisions = self.metrics.counter("plan_cache.collisions")
        self._size = self.metrics.gauge("plan_cache.size")
        self._recipe_hits = self.metrics.counter("plan_cache.recipe_hits")
        self._recipe_misses = self.metrics.counter("plan_cache.recipe_misses")
        self._recipe_size = self.metrics.gauge("plan_cache.recipes")

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

    def _get_or_build(self, a: CSCMatrix, options: SolverOptions, build, fp, tracer):
        """The plan cached for ``(a, options)``; ``build()`` makes it once.

        Single flight per key: whoever finds the key neither cached nor in
        flight registers an event, builds outside the lock and inserts;
        everyone else waits on that event and looks again. Which of the
        three happened is annotated as ``plan_cache=hit|miss|waited`` on
        the span the caller's ``tracer`` has open.
        """
        key = self._key(a, options, fp)
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
                plan = build()
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

    def get_or_build(
        self,
        a: CSCMatrix,
        options: Optional[SolverOptions] = None,
        *,
        tracer=None,
        fp: Optional[PatternFingerprint] = None,
    ) -> SymbolicPlan:
        """Return the cached plan for ``a``, building and inserting on miss.

        The build runs outside the lock (it can take seconds) and once:
        concurrent callers for the same cold pattern wait for it. ``fp``
        is ``fingerprint(a)`` when the caller already computed it — the
        lookup then hashes nothing, and :meth:`SymbolicPlan.matches`
        remains the gate that makes a wrong ``fp`` a miss, not a wrong plan.
        """
        opts = options or SolverOptions()
        return self._get_or_build(
            a, opts, lambda: build_plan(a, opts, tracer=tracer), fp, tracer
        )

    def get_or_build_tuned(
        self,
        a: CSCMatrix,
        options: Optional[SolverOptions] = None,
        *,
        tracer=None,
        fp: Optional[PatternFingerprint] = None,
    ) -> SymbolicPlan:
        """:meth:`get_or_build`, redirected through the tuned recipe.

        When the recipe store holds a winner for ``a``'s pattern (counted
        as a recipe hit), its knobs are applied on top of ``options``
        before the plan lookup/build — a cache miss for a *known* pattern
        reuses the tuned recipe instead of re-running (or never running)
        the search. Without a stored recipe this is exactly
        :meth:`get_or_build`.
        """
        opts = options or SolverOptions()
        entry = self.get_recipe(fp or a)
        if entry is None:
            return self.get_or_build(a, opts, tracer=tracer, fp=fp)
        recipe = entry[0]
        return self._get_or_build(
            a,
            recipe.apply(opts),
            lambda: build_plan(a, opts, recipe=recipe, tracer=tracer),
            fp,
            tracer,
        )

    # ---- per-fingerprint recipe store (repro.tune) -------------------
    @staticmethod
    def _recipe_key(a) -> tuple:
        """``a`` may be a pattern matrix or a ``PatternFingerprint``."""
        key = getattr(a, "key", None)
        if key is not None:
            return key
        return fingerprint(a).key

    def get_recipe(self, a):
        """The tuned ``(recipe, score)`` for ``a``'s pattern, or ``None``.

        ``a`` is a :class:`CSCMatrix` (pattern-only is fine) or an
        already-computed :class:`~repro.serve.fingerprint.PatternFingerprint`.
        Counted as ``plan_cache.recipe_hits`` / ``recipe_misses``.
        """
        key = self._recipe_key(a)
        with self._lock:
            entry = self._recipes.get(key)
            if entry is not None:
                self._recipes.move_to_end(key)
                self._recipe_hits.inc()
                return entry
            self._recipe_misses.inc()
            return None

    def put_recipe(self, a, recipe, score=None) -> None:
        """Store the winning ``recipe`` (+ optional score) for a pattern.

        ``recipe`` is a :class:`repro.tune.OrderingRecipe`; ``score`` the
        :class:`repro.tune.RecipeScore` that selected it (kept so recipe
        hits can report the predicted cost without re-evaluating).
        """
        key = self._recipe_key(a)
        with self._lock:
            self._recipes[key] = (recipe, score)
            self._recipes.move_to_end(key)
            while len(self._recipes) > self.max_recipes:
                self._recipes.popitem(last=False)
            self._recipe_size.set(len(self._recipes))

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._recipes.clear()
            self._size.set(0)
            self._recipe_size.set(0)

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
                "recipes": len(self._recipes),
                "recipe_hits": int(self._recipe_hits.value),
                "recipe_misses": int(self._recipe_misses.value),
            }

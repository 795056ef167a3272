"""Plan cache tests: LRU bounds, counters, collision safety, plan sharing."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

import repro.serve.cache as cache_mod
from repro.api import lu
from repro.numeric.solver import SolverOptions
from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import PlanCache
from repro.serve.plan import build_plan
from repro.sparse.generators import random_sparse
from tests.conftest import random_pivot_matrix


def _matrices(count, n=30):
    return [random_pivot_matrix(n, seed) for seed in range(count)]


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache(max_entries=4)
        a = random_pivot_matrix(30, 0)
        assert cache.get(a) is None
        plan = cache.get_or_build(a)
        assert cache.get(a) is plan
        assert cache.get_or_build(a) is plan
        st = cache.stats()
        assert st["misses"] == 2  # the explicit get() and the cold get_or_build
        assert st["hits"] == 2
        assert st["entries"] == 1

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        a0, a1, a2 = _matrices(3)
        p0 = cache.get_or_build(a0)
        cache.get_or_build(a1)
        cache.get_or_build(a2)  # evicts a0 (least recently used)
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2
        assert cache.get(a0) is None  # gone
        assert cache.get(a1) is not None
        assert cache.get(a2) is not None
        # p0 itself is still a valid plan; only the cache forgot it.
        assert p0.matches(a0)

    def test_lru_recency_updates_on_hit(self):
        cache = PlanCache(max_entries=2)
        a0, a1, a2 = _matrices(3)
        cache.get_or_build(a0)
        cache.get_or_build(a1)
        cache.get(a0)  # refresh a0's recency
        cache.get_or_build(a2)  # should evict a1, not a0
        assert cache.get(a0) is not None
        assert cache.get(a1) is None

    def test_options_are_part_of_key(self):
        cache = PlanCache(max_entries=8)
        a = random_pivot_matrix(30, 1)
        p_default = cache.get_or_build(a, SolverOptions())
        p_nopost = cache.get_or_build(a, SolverOptions(postorder=False))
        assert p_default is not p_nopost
        assert len(cache) == 2

    def test_collision_is_counted_and_safe(self):
        cache = PlanCache(max_entries=4)
        a = random_pivot_matrix(30, 2)
        plan = cache.get_or_build(a)
        # Forge a colliding entry: same key, wrong stored pattern.
        other = random_sparse(30, density=0.15, seed=9)
        forged = build_plan(other)
        key = (plan.fingerprint.key, plan.options.symbolic_key())
        with cache._lock:
            cache._plans[key] = forged
        assert cache.get(a) is None  # verified entry-for-entry, rejected
        assert cache.stats()["collisions"] == 1
        # get_or_build recovers by building a correct plan.
        rebuilt = cache.get_or_build(a)
        assert rebuilt.matches(a)

    def test_metrics_registry_shared(self):
        metrics = MetricsRegistry()
        cache = PlanCache(max_entries=4, metrics=metrics)
        a = random_pivot_matrix(25, 3)
        cache.get_or_build(a)
        cache.get(a)
        assert metrics.get("plan_cache.hits").value == 1
        assert metrics.get("plan_cache.misses").value == 1
        assert metrics.get("plan_cache.size").value == 1

    def test_clear(self):
        cache = PlanCache(max_entries=4)
        cache.get_or_build(random_pivot_matrix(25, 4))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["entries"] == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)


class TestSingleFlightBuilds:
    """A never-seen pattern is analysed once, however many callers race."""

    TIMEOUT = 30.0

    @staticmethod
    def _race(n_threads, call):
        """Run ``call()`` on ``n_threads`` threads released together."""
        results, errors = [], []
        gate = threading.Barrier(n_threads)

        def worker():
            gate.wait()
            try:
                results.append(call())
            except Exception as err:  # collected for the assertions below
                errors.append(err)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more threads than cores, switch often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(TestSingleFlightBuilds.TIMEOUT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "a waiter is stuck"
        return results, errors

    @staticmethod
    def _slow_counting_build(monkeypatch, fail_first=0):
        calls = []
        lock = threading.Lock()

        def counted(a, options=None, **kwargs):
            with lock:
                calls.append(threading.get_ident())
                failing = len(calls) <= fail_first
            time.sleep(0.05)  # hold the window open for the other callers
            if failing:
                raise RuntimeError("analysis failed")
            return build_plan(a, options, **kwargs)

        monkeypatch.setattr(cache_mod, "build_plan", counted)
        return calls

    @pytest.mark.parametrize("n_threads", [2, 8])
    def test_racing_callers_build_once(self, monkeypatch, n_threads):
        calls = self._slow_counting_build(monkeypatch)
        cache = PlanCache(max_entries=4)
        a = random_pivot_matrix(30, 11)
        plans, errors = self._race(n_threads, lambda: cache.get_or_build(a))
        assert not errors
        assert len(calls) == 1
        assert len(plans) == n_threads and all(p is plans[0] for p in plans)
        st = cache.stats()
        assert (st["misses"], st["hits"]) == (1, n_threads - 1)
        assert not cache._building

    def test_distinct_patterns_build_concurrently(self, monkeypatch):
        calls = self._slow_counting_build(monkeypatch)
        cache = PlanCache(max_entries=4)
        mats = iter(_matrices(4))
        lock = threading.Lock()

        def call():
            with lock:
                a = next(mats)
            return cache.get_or_build(a)

        plans, errors = self._race(4, call)
        assert not errors and len(calls) == 4
        assert len({id(p) for p in plans}) == 4
        assert cache.stats()["misses"] == 4

    def test_failed_build_wakes_waiters_and_next_caller_builds(self, monkeypatch):
        calls = self._slow_counting_build(monkeypatch, fail_first=1)
        cache = PlanCache(max_entries=4)
        a = random_pivot_matrix(30, 13)
        plans, errors = self._race(4, lambda: cache.get_or_build(a))
        # The first builder alone sees the error; one waiter rebuilt.
        assert [type(e) for e in errors] == [RuntimeError]
        assert len(calls) == 2
        assert len(plans) == 3 and all(p is plans[0] for p in plans)
        st = cache.stats()
        assert (st["misses"], st["hits"]) == (2, 2)
        assert not cache._building
        assert cache.get_or_build(a) is plans[0]
        assert len(calls) == 2


class TestPlanImmutability:
    def test_plan_arrays_read_only(self):
        a = random_pivot_matrix(30, 5)
        plan = build_plan(a)
        with pytest.raises(ValueError):
            plan.indptr[0] = 99
        with pytest.raises(ValueError):
            plan.indices[0] = 99

    def test_plan_matches_rejects_other_pattern(self):
        a = random_pivot_matrix(30, 6)
        plan = build_plan(a)
        other = random_sparse(30, density=0.15, seed=7)
        assert plan.matches(a)
        assert not plan.matches(other)
        bigger = random_sparse(31, density=0.15, seed=7)
        assert not plan.matches(bigger)

    def test_plan_options_are_frozen(self):
        a = random_pivot_matrix(30, 8)
        opts = SolverOptions(ordering="rcm")
        plan = build_plan(a, opts)
        key = hash(plan)
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.ordering = "natural"
        assert plan.options.ordering == "rcm"
        assert hash(plan) == key

    def test_adopting_a_cached_plan_cannot_rewrite_its_options(self):
        # A warm handle shares the plan's options object; writing through
        # it would change the cached plan for every later request.
        a = random_pivot_matrix(30, 10)
        cache = PlanCache(4)
        plan = cache.get_or_build(a)
        key = hash(plan)
        handle = lu(a, plan=plan)
        with pytest.raises(dataclasses.FrozenInstanceError):
            handle.plan.options.equilibrate = True
        assert plan.options.equilibrate is False
        assert hash(plan) == key
        assert cache.get(a) is plan

    def test_pattern_only_plan_builds(self):
        a = random_pivot_matrix(30, 9)
        plan_pat = build_plan(a.pattern_only())
        plan_val = build_plan(a)
        assert plan_pat.fingerprint == plan_val.fingerprint
        assert np.array_equal(plan_pat.row_perm, plan_val.row_perm)
        assert np.array_equal(plan_pat.col_perm, plan_val.col_perm)

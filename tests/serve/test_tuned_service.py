"""Tuned-recipe serving path: the cache's recipe store, filled by
``repro.tune.autotune(a, cache=svc.cache)``, steers a service's cold builds."""

import numpy as np
import pytest

from repro.numeric.solver import SolverOptions
from repro.obs.trace import Tracer
from repro.serve import PlanCache, SolverService, refactorize_with_plan
from repro.serve.fingerprint import fingerprint
from repro.sparse.generators import paper_matrix
from repro.sparse.ops import matvec
from repro.taskgraph.tasks import count_tasks
from repro.tune import OrderingRecipe, autotune


@pytest.fixture
def sherman():
    return paper_matrix("sherman3", scale=0.08)


def residual(a, x, b):
    return float(np.max(np.abs(matvec(a, x) - b))) / float(np.max(np.abs(b)))


class TestRecipeStore:
    def test_put_get_roundtrip(self, sherman):
        cache = PlanCache()
        r = OrderingRecipe(ordering="amd")
        cache.put_recipe(sherman, r)
        entry = cache.get_recipe(sherman)
        assert entry is not None and entry[0] == r

    def test_fingerprint_key_accepted(self, sherman):
        cache = PlanCache()
        cache.put_recipe(fingerprint(sherman), OrderingRecipe(ordering="rcm"))
        entry = cache.get_recipe(sherman)
        assert entry is not None and entry[0].ordering == "rcm"

    def test_miss_counted(self, sherman):
        cache = PlanCache()
        assert cache.get_recipe(sherman) is None
        assert cache.stats()["recipe_misses"] == 1

    def test_lru_bound(self, sherman):
        cache = PlanCache(max_entries=1, max_recipes=1)
        other = paper_matrix("sherman5", scale=0.08)
        cache.put_recipe(sherman, OrderingRecipe())
        cache.put_recipe(other, OrderingRecipe(ordering="rcm"))
        assert cache.stats()["recipes"] == 1
        assert cache.get_recipe(sherman) is None

    def test_clear_drops_recipes(self, sherman):
        cache = PlanCache()
        cache.put_recipe(sherman, OrderingRecipe())
        cache.clear()
        assert cache.stats()["recipes"] == 0

    def test_get_or_build_tuned_applies_recipe(self, sherman):
        cache = PlanCache()
        cache.put_recipe(sherman, OrderingRecipe(ordering="rcm"))
        plan = cache.get_or_build_tuned(sherman)
        assert plan.options.ordering == "rcm"
        # The tuned plan is cached under the tuned options: a second call
        # is a plan hit, and a plain get_or_build still builds mindeg.
        assert cache.get_or_build_tuned(sherman) is plan
        plain = cache.get_or_build(sherman)
        assert plain.options.ordering == SolverOptions().ordering
        assert plain != plan

    def test_get_or_build_tuned_without_recipe_is_plain(self, sherman):
        cache = PlanCache()
        plan = cache.get_or_build_tuned(sherman)
        assert plan.options.ordering == SolverOptions().ordering


class TestServiceTune:
    def test_tune_stores_recipe_and_prebuilds(self, sherman):
        svc = SolverService(n_workers=0)
        result = autotune(sherman, cache=svc.cache, quick=True)
        assert result.searched is True
        assert svc.cache.stats()["recipes"] == 1
        svc.cache.get_or_build_tuned(sherman, svc.options)
        assert len(svc.cache) == 1  # plan pre-built under the recipe

        again = autotune(sherman, cache=svc.cache, quick=True)
        assert again.searched is False
        assert again.recipe == result.recipe
        svc.close()

    def test_requests_use_tuned_recipe(self, sherman):
        svc = SolverService(n_workers=0)
        result = autotune(sherman, cache=svc.cache, quick=True)
        b = np.ones(sherman.n_rows)
        p = svc.submit(sherman, b)
        svc.process_once()
        assert residual(sherman, p.result(timeout=5), b) < 1e-8
        # The request was served off the tuned plan, not a plain rebuild.
        tuned_opts = result.recipe.apply(svc.options)
        assert svc.cache.get(sherman, tuned_opts) is not None
        assert len(svc.cache) == 1
        svc.close()


class TestRecipesNeverSteerExecution:
    """Regression for the cross-talk defect: a tuned recipe used to carry a
    ``mapping`` that sat outside plan identity, so the simulator's 1-D/2-D
    pick rode along on the shared plan object into every request for the
    pattern — including plain lookups that never asked for tuning."""

    def test_plain_lookup_sharing_a_tuned_entry_runs_the_1d_graph(self, sherman):
        cache = PlanCache()
        recipe = autotune(sherman, quick=True).recipe  # what the cache stores
        cache.put_recipe(sherman, recipe)
        tuned = cache.get_or_build_tuned(sherman)
        opts = recipe.apply()
        assert opts.symbolic_key() == tuned.options.symbolic_key()
        plain = cache.get_or_build(sherman, opts)
        assert plain is tuned
        tr = Tracer()
        refactorize_with_plan(plain, sherman, tracer=tr)
        assert tr.find("factorize").attrs["n_tasks"] == count_tasks(plain.bp)

    def test_tuned_service_serves_the_1d_graph(self):
        a = paper_matrix("sherman3", scale=0.1)
        b = np.ones(a.n_rows)
        tr = Tracer()
        with SolverService(n_workers=0, tracer=tr) as svc:
            result = autotune(a, cache=svc.cache, quick=True)
            assert "map=" not in result.recipe.spec()
            assert residual(a, svc.solve(a, b), b) < 1e-8
            plan = svc.cache.get(a, result.recipe.apply(svc.options))
        assert plan is not None
        assert tr.find("factorize").attrs["n_tasks"] == count_tasks(plan.bp)

"""Plan identity: one pattern under two recipes is two distinct plans.

Plan identity is (fingerprint, symbolic options), not the fingerprint
alone, so the cache must key on both or a plan built from
``parse_recipe(spec, options)`` would shadow the default one for the same
matrix.
"""

import numpy as np
import pytest

from repro.numeric.solver import SolverOptions
from repro.obs.trace import Tracer
from repro.ordering import ORDERINGS
from repro.serve import SolverService
from repro.serve.cache import PlanCache
from repro.serve.plan import build_plan
from repro.sparse.generators import paper_matrix
from repro.sparse.ops import matvec
from repro.taskgraph.tasks import count_tasks
from repro.tune import parse_recipe


def sherman():
    return paper_matrix("sherman3", scale=0.08)


class TestPlanIdentity:
    def test_same_pattern_same_options_equal(self):
        a = sherman()
        p1 = build_plan(a)
        p2 = build_plan(a)
        assert p1 == p2
        assert hash(p1) == hash(p2)
        assert p1.identity == p2.identity

    def test_same_pattern_different_recipes_unequal(self):
        a = sherman()
        plain = build_plan(a)
        tuned = build_plan(a, SolverOptions(ordering="rcm"))
        assert plain != tuned
        assert plain.identity != tuned.identity
        assert plain.fingerprint.key == tuned.fingerprint.key

    def test_recipe_changes_symbolic_key(self):
        base = SolverOptions()
        tuned = parse_recipe("amd:pad=0.4", base)
        assert base.symbolic_key() != tuned.symbolic_key()
        # Ordering params participate too (same ordering, different knob).
        a = parse_recipe("dissect", base)
        b = parse_recipe("dissect:leaf_size=128", base)
        assert a.symbolic_key() != b.symbolic_key()

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_every_ordering_receives_its_params(self, ordering):
        # A key the ordering does not take must fail, not silently key a
        # second plan of the same permutation: it fails when the options
        # are built, so no plan is ever keyed on it.
        with pytest.raises(ValueError, match="no_such"):
            SolverOptions(ordering=ordering, ordering_params=(("no_such", 1),))

    def test_not_equal_to_other_types(self):
        plan = build_plan(sherman())
        assert plan != "plan"
        assert plan is not None


class TestCacheKeying:
    def test_two_recipes_cached_without_collision(self):
        a = sherman()
        cache = PlanCache()
        plain = cache.get_or_build(a)
        tuned = cache.get_or_build(
            a, SolverOptions(ordering="rcm")
        )
        assert len(cache) == 2
        assert plain != tuned

        # Each lookup returns the right plan for its options.
        assert cache.get(a) is plain
        rcm_opts = SolverOptions(ordering="rcm")
        assert cache.get(a, rcm_opts) is tuned
        assert cache.stats()["collisions"] == 0

    def test_plans_structurally_differ(self):
        a = sherman()
        plain = build_plan(a)
        tuned = build_plan(a, SolverOptions(ordering="rcm"))
        assert not np.array_equal(plain.col_perm, tuned.col_perm)

    def test_service_under_recipe_options_runs_every_step(self):
        # A recipe is symbolic: a service whose options come from one
        # caches the plan under those options and runs its 1-D steps.
        a = paper_matrix("sherman3", scale=0.1)
        b = np.ones(a.n_rows)
        opts = SolverOptions(ordering="rcm")
        tr = Tracer()
        with SolverService(n_workers=0, tracer=tr, options=opts) as svc:
            x = svc.solve(a, b)
            plan = svc.cache.get(a, opts)
        assert np.max(np.abs(matvec(a, x) - b)) < 1e-8 * np.max(np.abs(b))
        assert plan is not None and plan.options.ordering == "rcm"
        assert tr.find("factorize").attrs["n_tasks"] == count_tasks(plan.bp)

"""Symbolic-only recipe evaluator tests."""

import pytest

from repro.numeric.solver import SolverOptions
from repro.obs.trace import Tracer
from repro.sparse.generators import paper_matrix
from repro.tune import evaluate_recipe


@pytest.fixture(scope="module")
def sherman3():
    return paper_matrix("sherman3", scale=0.08)


class TestEvaluateRecipe:
    def test_score_fields(self, sherman3):
        s = evaluate_recipe(sherman3, SolverOptions(ordering="mindeg"))
        assert s.n == sherman3.n_cols
        assert s.nnz == sherman3.nnz
        assert s.nnz_filled >= s.nnz
        assert s.fill_ratio >= 1.0
        assert s.n_supernodes >= 1
        assert s.flops > 0
        assert s.predicted_time > 0.0
        assert s.n_procs == 8

    def test_values_ignored(self, sherman3):
        pattern = sherman3.pattern_only()
        a = evaluate_recipe(sherman3, SolverOptions())
        b = evaluate_recipe(pattern, SolverOptions())
        assert a.as_dict() == b.as_dict()

    def test_orderings_differ(self, sherman3):
        fills = {
            o: evaluate_recipe(sherman3, SolverOptions(ordering=o)).fill_ratio
            for o in ("mindeg", "natural")
        }
        assert fills["mindeg"] < fills["natural"]

    def test_emits_candidate_span(self, sherman3):
        tr = Tracer()
        evaluate_recipe(sherman3, SolverOptions(ordering="amd"), tracer=tr)
        span = tr.find("tune.candidate")
        assert span is not None
        assert span.attrs["recipe"] == "amd"
        assert "mapping" not in span.attrs
        assert span.attrs["predicted_time"] > 0.0

    def test_objective_and_sort_key(self, sherman3):
        s = evaluate_recipe(sherman3, SolverOptions())
        assert s.objective("time") == s.predicted_time
        assert s.objective("flops") == float(s.flops)
        assert s.objective("fill") == s.fill_ratio
        with pytest.raises(ValueError):
            s.objective("beauty")
        assert s.sort_key("time")[0] == s.predicted_time
        assert s.sort_key("fill")[0] == s.fill_ratio

    def test_n_procs_respected(self, sherman3):
        s1 = evaluate_recipe(sherman3, SolverOptions(), n_procs=1)
        s8 = evaluate_recipe(sherman3, SolverOptions(), n_procs=8)
        assert s8.predicted_time < s1.predicted_time

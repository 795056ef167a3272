"""Autotuner search and its acceptance bar."""

import pytest

from repro.numeric.solver import SolverOptions
from repro.sparse.generators import paper_matrix
from repro.tune import (
    autotune,
    default_candidates,
    evaluate_recipe,
)


@pytest.fixture(scope="module")
def sherman3():
    return paper_matrix("sherman3", scale=0.08)


class TestDefaultCandidates:
    def test_quick_is_one_padding_per_ordering(self):
        quick = default_candidates(quick=True)
        assert len(quick) == 5
        assert {r.ordering for r in quick} == {
            "mindeg", "amd", "rcm", "dissect", "natural",
        }

    def test_full_contains_fixed_ablation_rows(self):
        # The acceptance bar: the grid always includes the plain fixed
        # orderings, so the winner can never lose to them.
        full = default_candidates()
        for ordering in ("mindeg", "rcm", "natural"):
            assert SolverOptions(ordering=ordering) in full
        assert len(full) == 10


class TestSearch:
    def test_winner_beats_fixed_orderings(self, sherman3):
        """ISSUE acceptance: tuned T(P=8) <= best fixed-ordering row."""
        result = autotune(sherman3, quick=True)
        fixed_best = min(
            evaluate_recipe(
                sherman3, SolverOptions(ordering=o)
            ).predicted_time
            for o in ("mindeg", "rcm", "natural")
        )
        assert result.score.predicted_time <= fixed_best + 1e-12

    def test_candidates_sorted_best_first(self, sherman3):
        result = autotune(sherman3, quick=True)
        times = [s.predicted_time for s in result.scores]
        assert times == sorted(times)
        assert result.recipe == result.scores[0].recipe

    def test_deterministic(self, sherman3):
        a = autotune(sherman3, quick=True)
        b = autotune(sherman3, quick=True)
        assert a.recipe == b.recipe
        assert [s.recipe for s in a.scores] == [s.recipe for s in b.scores]

    def test_objective_fill_picks_min_fill(self, sherman3):
        result = autotune(sherman3, quick=True, objective="fill")
        assert result.score.fill_ratio == min(
            s.fill_ratio for s in result.scores
        )

    def test_rejects_unknown_objective(self, sherman3):
        with pytest.raises(ValueError):
            autotune(sherman3, objective="beauty")

    def test_rejects_empty_grid(self, sherman3):
        with pytest.raises(ValueError):
            autotune(sherman3, candidates=())

    def test_explicit_candidates(self, sherman3):
        only = (SolverOptions(ordering="rcm"),)
        result = autotune(sherman3, candidates=only)
        assert result.recipe == only[0]
        assert len(result.scores) == 1

    def test_as_dict_shape(self, sherman3):
        d = autotune(sherman3, quick=True).as_dict()
        assert set(d) == {
            "recipe", "objective", "search_seconds", "winner", "candidates",
        }
        assert d["winner"]["recipe"] == d["recipe"]

"""Evaluation-harness tests at a tiny scale (fast CI-style checks)."""

import pytest

from repro.eval.ablations import (
    amalgamation_sweep,
    mapping_comparison,
    ordering_comparison,
)
from repro.eval.config import (
    BenchConfig,
    DEFAULT_MATRICES,
    FIG5_MATRICES,
    FIG6_MATRICES,
)
from repro.eval.figures import taskgraph_improvement_series
from repro.eval.registry import EXPERIMENTS, run_experiment
from repro.eval.table1 import format_table1, table1_rows
from repro.eval.table2 import format_table2, table2_rows
from repro.eval.table3 import format_table3, table3_rows

TINY = BenchConfig(matrices=("orsreg1", "sherman3"), scale=0.1, procs=(1, 2, 4))


class TestTable1:
    def test_rows(self):
        rows = table1_rows(TINY)
        assert [r.name for r in rows] == list(TINY.matrices)
        for r in rows:
            assert r.order > 0
            assert r.nnz > r.order
            assert r.fill_ratio >= 1.0

    def test_format(self):
        text = format_table1(table1_rows(TINY), scale=TINY.scale)
        assert "Table 1" in text
        assert "orsreg1" in text


class TestTablesKeepThePapersOrdering:
    """``repro.eval`` names exact mindeg itself: the library default moving
    to amd must not move a table row (values taken before the switch)."""

    def test_table1_and_table3_rows_unchanged(self):
        fills = {r.name: r.fill_ratio for r in table1_rows(TINY)}
        assert fills == pytest.approx(
            {"orsreg1": 7.461303462321792, "sherman3": 7.297555158020274}, rel=1e-12
        )
        sn = {r.name: (r.n_btf_blocks, r.sn, r.snpo) for r in table3_rows(TINY)}
        assert sn == {"orsreg1": (1, 80, 42), "sherman3": (26, 300, 190)}

    def test_eval_solvers_are_built_with_mindeg(self):
        from repro.eval.pipeline import analyzed_matrix

        assert analyzed_matrix("orsreg1", TINY.scale).options.ordering == "mindeg"


class TestTable2:
    def test_times_decrease_with_procs(self):
        rows = table2_rows(TINY)
        for r in rows:
            assert r.times[0] >= r.times[-1] * 0.95
            assert r.speedups[0] == pytest.approx(1.0)
            assert all(s > 0 for s in r.speedups)

    def test_format(self):
        assert "Table 2" in format_table2(table2_rows(TINY), scale=TINY.scale)


class TestTable3:
    def test_postorder_never_hurts(self):
        rows = table3_rows(TINY)
        for r in rows:
            assert r.snpo <= r.sn  # the §3 claim
            assert r.ratio >= 1.0
            assert r.n_btf_blocks >= 1

    def test_format(self):
        assert "SNPO" in format_table3(table3_rows(TINY), scale=TINY.scale)


class TestFigures:
    def test_series_shape(self):
        series = taskgraph_improvement_series(("orsreg1",), TINY)
        s = series[0]
        assert len(s.improvement) == len(TINY.procs)
        # The new graph never does meaningfully worse than S*.
        assert all(v > -0.15 for v in s.improvement)

    def test_fig_matrix_split_covers_all(self):
        assert set(FIG5_MATRICES) | set(FIG6_MATRICES) == set(DEFAULT_MATRICES)


class TestAblations:
    def test_amalgamation_monotone_supernodes(self):
        pts = amalgamation_sweep("orsreg1", paddings=(0.0, 0.3), config=TINY)
        assert pts[1].n_supernodes <= pts[0].n_supernodes
        assert pts[1].mean_size >= pts[0].mean_size

    def test_ordering_comparison_runs(self):
        pts = ordering_comparison("orsreg1", config=TINY)
        assert {p.ordering for p in pts} == {
            "mindeg", "amd", "rcm", "dissect", "natural",
        }
        by = {p.ordering: p for p in pts}
        # Minimum degree should never lose to the natural order on fill.
        assert by["mindeg"].fill_ratio <= by["natural"].fill_ratio * 1.1

    def test_mapping_comparison_runs(self):
        pts = mapping_comparison("orsreg1", config=TINY)
        assert {p.policy for p in pts} == {"cyclic", "blocked", "greedy"}
        for p in pts:
            assert p.makespan_p8 > 0


class TestRegistry:
    def test_experiment_index_complete(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "table2",
            "table3",
            "fig5",
            "fig6",
            "ablation_amalg",
            "ablation_order",
            "ablation_mapping",
            "coletree",
            "lazy",
            "graph_metrics",
            "futurework_2d",
            "solve_phase",
            "futurework_dynamic",
            "stability",
            "btf_compare",
        }

    def test_run_experiment_unknown(self):
        with pytest.raises(KeyError):
            run_experiment("table9")

    def test_run_experiment_table1(self):
        assert "Table 1" in run_experiment("table1", TINY)

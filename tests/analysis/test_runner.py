"""End-to-end analyzer runs, the REPRO_ANALYZE hooks, and the CLI."""

import json

import numpy as np
import pytest

from tests.conftest import random_pivot_matrix, solve_pipeline
from repro.analysis import (
    analysis_enabled,
    analyze_matrix,
    analyze_plan,
    suppress_hooks,
    validate_analysis_document,
    verify_plan,
)
from repro.analysis.runner import ENV_VAR
from repro.numeric.solver import SolverOptions
from repro.serve.plan import build_plan
from repro.util.errors import AnalysisError


class TestAnalyzePlan:
    def test_random_matrices_zero_findings(self):
        for seed in range(3):
            report = analyze_matrix(
                random_pivot_matrix(40, seed), name=f"rand{seed}"
            )
            assert report.ok, report.render()
            assert len(report.subjects) == 6

    def test_no_postorder_option(self):
        report = analyze_matrix(
            random_pivot_matrix(40, 1), SolverOptions(postorder=False)
        )
        assert report.ok, report.render()

    def test_sstar_task_graph_option(self):
        report = analyze_matrix(
            random_pivot_matrix(40, 2), SolverOptions(task_graph="sstar")
        )
        assert report.ok, report.render()

    def test_document_schema_valid(self):
        report = analyze_matrix(random_pivot_matrix(40, 3), name="doc")
        doc = report.as_dict()
        assert validate_analysis_document(doc) == []
        json.dumps(doc)  # round-trippable

    def test_subject_names_and_stats(self):
        report = analyze_matrix(random_pivot_matrix(40, 4), name="m")
        names = {s.name for s in report.subjects}
        assert names == {
            "m/structure",
            "m/factor-graph",
            "m/factor-steps",
            "m/factor-graph-2d",
            "m/solve-graph",
            "m/minimality",
        }
        factor = report.subject("m/factor-graph")
        assert factor.stats["n_tasks"] > 0
        assert factor.stats["n_conflicting_pairs"] > 0


class TestHooks:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert not analysis_enabled()
        monkeypatch.setenv(ENV_VAR, "0")
        assert not analysis_enabled()
        monkeypatch.setenv(ENV_VAR, "false")
        assert not analysis_enabled()

    def test_enabled_by_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        assert analysis_enabled()

    def test_suppress_hooks_nests(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        with suppress_hooks():
            assert not analysis_enabled()
            with suppress_hooks():
                assert not analysis_enabled()
            assert not analysis_enabled()
        assert analysis_enabled()

    def test_build_plan_hook_passes_clean_plan(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        plan = build_plan(random_pivot_matrix(40, 5))
        assert plan.n == 40

    def test_verify_plan_raises_on_findings(self):
        plan = build_plan(random_pivot_matrix(40, 6))
        verify_plan(plan)  # clean: no raise
        # Corrupt the task graph: drop one dependence edge.
        u, v = plan.graph.edges()[0]
        plan.graph.remove_edge(u, v)
        with pytest.raises(AnalysisError) as exc:
            verify_plan(plan)
        assert "race.unordered_pair" in str(exc.value)
        plan.graph.add_edge(u, v)

    def test_full_solve_under_hook(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        a = random_pivot_matrix(40, 8)
        s = solve_pipeline(a)
        b = np.ones(a.n_cols)
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-8


class TestCLI:
    def test_analyze_verify_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "analysis.json"
        rc = main(
            [
                "analyze",
                "orsreg1",
                "--scale",
                "0.1",
                "--verify",
                "--json",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_analysis_document(doc) == []
        assert doc["ok"] is True
        captured = capsys.readouterr()
        assert "subjects clean" in captured.out


class TestAnalyzePlanFromSolver:
    def test_plan_from_solver_analyzes_clean(self):
        s = solve_pipeline(random_pivot_matrix(40, 9))
        report = analyze_plan(s.plan, name="solver")
        assert report.ok, report.render()

"""Self-check and DAG-analytics tests."""

import pytest

from repro.verify import SelfCheckReport, selfcheck


class TestSelfCheck:
    def test_all_green(self):
        report = selfcheck(n=30, seed=3)
        assert report.ok, report.render()
        assert len(report.checks) >= 10

    def test_render(self):
        report = selfcheck(n=20, seed=1)
        text = report.render()
        assert "Theorem 3" in text
        assert "checks passed" in text

    def test_report_aggregation(self):
        r = SelfCheckReport()
        r.add("a", True)
        r.add("b", False, "boom")
        assert not r.ok
        assert "FAIL" in r.render()

    def test_cli_exit_code(self, capsys):
        from repro.cli import main

        assert main(["selfcheck"]) == 0
        assert "checks passed" in capsys.readouterr().out


class TestParallelismProfile:
    def test_chain(self):
        from repro.taskgraph.dag import TaskGraph
        from repro.taskgraph.tasks import factor_task

        g = TaskGraph()
        for i in range(3):
            g.add_edge(factor_task(i), factor_task(i + 1))
        p = g.parallelism_profile(lambda t: 1.0)
        assert p["work"] == 4.0
        assert p["span"] == 4.0
        assert p["avg_parallelism"] == pytest.approx(1.0)

    def test_antichain(self):
        from repro.taskgraph.dag import TaskGraph
        from repro.taskgraph.tasks import factor_task

        g = TaskGraph()
        for i in range(5):
            g.add_task(factor_task(i))
        p = g.parallelism_profile(lambda t: 2.0)
        assert p["avg_parallelism"] == pytest.approx(5.0)

    def test_eforest_at_least_sstar(self):
        from tests.conftest import analyzed, random_pivot_matrix
        from repro.numeric.costs import CostModel
        from repro.taskgraph.sstar import build_sstar_graph

        plan, _ = analyzed(random_pivot_matrix(30, 0))
        model = CostModel(plan.bp)
        p_new = plan.graph.parallelism_profile(lambda t: model.flops(t) + 1.0)
        p_old = build_sstar_graph(plan.bp).parallelism_profile(
            lambda t: model.flops(t) + 1.0
        )
        assert p_new["work"] == pytest.approx(p_old["work"])
        assert p_new["span"] <= p_old["span"] + 1e-9
        assert p_new["avg_parallelism"] >= p_old["avg_parallelism"] - 1e-9

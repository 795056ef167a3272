"""Race/liveness checker unit tests, including a brute-force oracle."""

import numpy as np

from tests import conftest
from tests.conftest import random_pivot_matrix
from repro.analysis import (
    Reachability,
    check_liveness,
    check_races,
    factor_footprints,
    minimality_report,
    solve_footprints,
)
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.eforest_graph import build_eforest_graph
from repro.taskgraph.solve_graph import build_solve_graph
from repro.taskgraph.sstar import build_sstar_graph
from repro.taskgraph.tasks import Task


def analyzed(seed=0, n=35):
    return conftest.analyzed(random_pivot_matrix(n, seed))


def checks_of(findings):
    return {f.check for f in findings}


class TestReachability:
    def test_matches_has_path(self):
        plan, _ = analyzed()
        g = build_eforest_graph(plan.bp)
        reach = Reachability(g)
        tasks = g.tasks()
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = (tasks[i] for i in rng.integers(0, len(tasks), 2))
            if a == b:
                continue
            expect = g.has_path(a, b) or g.has_path(b, a)
            assert reach.ordered(a, b) == expect

    def test_contains(self):
        plan, _ = analyzed(1)
        g = build_eforest_graph(plan.bp)
        reach = Reachability(g)
        assert g.tasks()[0] in reach
        assert Task("F", 9999, 9999) not in reach


class TestCheckRaces:
    def test_shipped_graphs_race_free(self):
        plan, _ = analyzed(2)
        fps = factor_footprints(plan.bp, plan.fill)
        for builder in (build_eforest_graph, build_sstar_graph):
            findings, stats = check_races(builder(plan.bp), fps)
            assert findings == []
            assert stats["n_unordered_pairs"] == 0
            assert stats["n_conflicting_pairs"] > 0

    def test_edgeless_graph_reports_races(self):
        plan, _ = analyzed(3)
        fps = factor_footprints(plan.bp, plan.fill)
        g = TaskGraph()
        for t in fps:
            g.add_task(t)
        findings, stats = check_races(g, fps)
        assert findings
        assert checks_of(findings) == {"race.unordered_pair"}
        assert stats["n_unordered_pairs"] >= len(findings)

    def test_suggested_edge_follows_sequential_order(self):
        # F(k) races U(k, j) when unordered; the fix must be F(k) -> U(k, j),
        # never the reverse (which could create a cycle elsewhere).
        plan, _ = analyzed(3)
        fps = factor_footprints(plan.bp, plan.fill)
        g = TaskGraph()
        for t in fps:
            g.add_task(t)
        findings, _ = check_races(g, fps)
        for f in findings:
            if f.tasks == ("F(0)", "U(0,1)") or f.tasks == ("U(0,1)", "F(0)"):
                assert f.tasks == ("F(0)", "U(0,1)")

    def test_max_findings_cap(self):
        plan, _ = analyzed(4, n=60)
        fps = factor_footprints(plan.bp, plan.fill)
        g = TaskGraph()
        for t in fps:
            g.add_task(t)
        findings, stats = check_races(g, fps, max_findings=5)
        assert len(findings) == 5
        assert stats["n_race_findings_truncated"] > 0

    def test_brute_force_oracle(self):
        # check_races must agree exactly with the naive quadratic check
        # (pairwise footprint intersection + has_path in both directions).
        plan, _ = analyzed(5, n=25)
        fps = factor_footprints(plan.bp, plan.fill)
        g = build_eforest_graph(plan.bp)
        # Drop a couple of edges to create known races.
        edges = g.edges()
        for u, v in edges[:: max(1, len(edges) // 3)]:
            g.remove_edge(u, v)
        findings, _ = check_races(g, fps, max_findings=10**6)
        got = {tuple(sorted(f.tasks)) for f in findings}
        want = set()
        tasks = list(fps)
        for i, a in enumerate(tasks):
            for b in tasks[i + 1 :]:
                fa, fb = fps[a], fps[b]
                conflict = any(
                    np.intersect1d(
                        fa.written(r), fb.accessed(r), assume_unique=True
                    ).size
                    or np.intersect1d(
                        fb.written(r), fa.accessed(r), assume_unique=True
                    ).size
                    for r in fa.regions() & fb.regions()
                )
                if conflict and not (g.has_path(a, b) or g.has_path(b, a)):
                    want.add(tuple(sorted((str(a), str(b)))))
        assert got == want
        assert want  # the mutation really created races


class TestLiveness:
    def test_clean_graph(self):
        plan, _ = analyzed(6)
        g = build_solve_graph(plan.bp)
        assert check_liveness(g) == []

    def test_cycle_detected(self):
        g = TaskGraph()
        a, b, c = Task("F", 0, 0), Task("F", 1, 1), Task("F", 2, 2)
        g.add_edge(a, b)
        g.add_edge(b, c)
        g.add_edge(c, a)
        findings = check_liveness(g)
        assert checks_of(findings) == {"liveness.cycle"}
        assert len(findings[0].tasks) == 3

    def test_missing_task_detected(self):
        g = TaskGraph()
        g.add_task(Task("F", 0, 0))
        findings = check_liveness(g, {Task("F", 0, 0), Task("F", 1, 1)})
        assert "liveness.missing_task" in checks_of(findings)

    def test_unknown_task_detected(self):
        g = TaskGraph()
        g.add_task(Task("F", 0, 0))
        g.add_task(Task("F", 7, 7))
        findings = check_liveness(g, {Task("F", 0, 0)})
        assert "liveness.unknown_task" in checks_of(findings)


class TestMinimality:
    def test_shipped_graphs_fully_covered(self):
        # Theorem 4: the eforest graph strictly refines S* — every S* edge
        # whose endpoints truly conflict must be ordered by the eforest DAG.
        for seed in range(3):
            plan, _ = analyzed(seed)
            fps = factor_footprints(plan.bp, plan.fill)
            findings, stats = minimality_report(
                build_sstar_graph(plan.bp), build_eforest_graph(plan.bp), fps
            )
            assert findings == []
            assert (
                stats["n_sstar_edges_kept"]
                + stats["n_sstar_edges_false_dependence"]
                == stats["n_sstar_edges"]
            )

    def test_dropped_coverage_reported(self):
        plan, _ = analyzed(1)
        fps = factor_footprints(plan.bp, plan.fill)
        sstar = build_sstar_graph(plan.bp)
        # An eforest "refinement" with no edges at all covers nothing.
        empty = TaskGraph()
        for t in sstar.tasks():
            empty.add_task(t)
        findings, _ = minimality_report(sstar, empty, fps)
        assert findings
        assert checks_of(findings) == {"minimality.sstar_conflict_unordered"}


class TestSolveRaces:
    def test_solve_graph_race_free(self):
        plan, _ = analyzed(7)
        g = build_solve_graph(plan.bp)
        findings, stats = check_races(g, solve_footprints(plan.bp))
        assert findings == []
        assert stats["n_unordered_pairs"] == 0

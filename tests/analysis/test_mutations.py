"""Mutation tests: the analyzer must *detect* seeded schedule corruption.

Zero findings on shipped graphs only means something if the checker has
teeth — these tests delete Theorem-4 and solve-phase dependence edges,
and corrupt the eforest a plan's fill carries, and assert at least one
finding every time.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests import conftest
from tests.conftest import random_pivot_matrix
from repro.analysis import (
    analyze_plan,
    check_races,
    factor_footprints,
    minimality_report,
    solve_footprints,
    solve_region_label,
)
import repro.taskgraph.solve_graph as solve_graph_mod
from repro.symbolic.static_fill import StaticFill
from repro.taskgraph.eforest_graph import build_eforest_graph
from repro.taskgraph.solve_graph import build_solve_graph
from repro.taskgraph.sstar import build_sstar_graph


def analyzed(seed=0, n=35):
    return conftest.analyzed(random_pivot_matrix(n, seed))


def _essential_fs_edge(g):
    """An FS -> FS edge of ``g`` that no other path implies (dropping a
    transitive shortcut would leave the pair ordered)."""
    kept = set(g.transitive_reduction().edges())
    return next(
        (u, v)
        for u, v in g.edges()
        if (u, v) in kept and u.kind == "FS" and v.kind == "FS"
    )


class TestFactorEdgeDeletion:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_eforest_edge_deletion_detected(self, seed):
        # The eforest graph mechanizes Theorem 4's chains with no slack:
        # removing ANY single edge must leave some conflicting pair
        # unordered, and the race checker must say so.
        plan, _ = analyzed(seed)
        g = build_eforest_graph(plan.bp)
        fps = factor_footprints(plan.bp, plan.fill)
        for u, v in g.edges():
            g.remove_edge(u, v)
            findings, _ = check_races(g, fps)
            assert findings, f"deleting {u} -> {v} went undetected"
            g.add_edge(u, v)

    def test_sstar_deletion_detected_or_false_dependence(self, seed=2):
        # S* edges are conservative: a deletion that creates no race must
        # be exactly one the footprint model proves to be a false
        # dependence (the paper's extra parallelism) or transitively
        # covered; everything else must race.
        plan, _ = analyzed(seed)
        g = build_sstar_graph(plan.bp)
        fps = factor_footprints(plan.bp, plan.fill)
        for u, v in g.edges():
            g.remove_edge(u, v)
            findings, _ = check_races(g, fps)
            if not findings:
                covered = g.has_path(u, v)
                conflict = any(
                    np.intersect1d(
                        fps[u].written(r), fps[v].accessed(r), assume_unique=True
                    ).size
                    or np.intersect1d(
                        fps[v].written(r), fps[u].accessed(r), assume_unique=True
                    ).size
                    for r in fps[u].regions() & fps[v].regions()
                )
                assert covered or not conflict, f"{u} -> {v} missed"
            g.add_edge(u, v)

    def test_deleted_edge_also_breaks_minimality_coverage(self):
        # Deleting an eforest edge that covered an S* conflict must show
        # up in the minimality report too.
        plan, _ = analyzed(1)
        fps = factor_footprints(plan.bp, plan.fill)
        sstar = build_sstar_graph(plan.bp)
        eforest = build_eforest_graph(plan.bp)
        broke_coverage = 0
        for u, v in eforest.edges():
            eforest.remove_edge(u, v)
            findings, _ = minimality_report(sstar, eforest, fps)
            broke_coverage += bool(findings)
            eforest.add_edge(u, v)
        assert broke_coverage > 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), pick=st.integers(0, 10**6))
    def test_random_edge_deletion_detected(self, seed, pick):
        plan, _ = analyzed(seed % 50, n=25)
        g = build_eforest_graph(plan.bp)
        edges = g.edges()
        u, v = edges[pick % len(edges)]
        g.remove_edge(u, v)
        findings, _ = check_races(g, factor_footprints(plan.bp, plan.fill))
        assert findings


class TestSolveMutations:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_solve_edge_deletion_detected(self, seed):
        plan, _ = analyzed(seed)
        g = build_solve_graph(plan.bp)
        fps = solve_footprints(plan.bp)
        red = set(g.edges()) - set(g.transitive_reduction().edges())
        for u, v in g.edges():
            g.remove_edge(u, v)
            findings, _ = check_races(g, fps)
            if (u, v) in red:
                # A shortcut edge (transitively implied) is harmless to
                # drop — the checker must NOT cry wolf.
                assert findings == []
            else:
                assert findings, f"deleting {u} -> {v} went undetected"
            g.add_edge(u, v)

    def test_dropped_structure_dependence_detected(self):
        # A solve graph that lost a dependence must race against the
        # footprints re-derived from the block pattern.
        plan, _ = analyzed(5)
        g = build_solve_graph(plan.bp)
        fps = solve_footprints(plan.bp)
        assert not check_races(g, fps, label=solve_region_label)[0]
        g.remove_edge(*_essential_fs_edge(g))
        assert check_races(g, fps, label=solve_region_label)[0]

    def test_dropped_solve_edge_reported_by_analyze_plan(self, monkeypatch):
        # The solve-graph subject checks the graph build_solve_graph hands
        # out (the one simulate_schedule prices): plant a dropped
        # dependence there and the plan's report must name that subject.
        plan, _ = analyzed(5)
        assert analyze_plan(plan, name="m").ok

        def planted(bp):
            g = build_solve_graph(bp)
            g.remove_edge(*_essential_fs_edge(g))
            return g

        monkeypatch.setattr(solve_graph_mod, "build_solve_graph", planted)
        report = analyze_plan(plan, name="m")
        assert {sub.name for sub in report.subjects if sub.findings} == {
            "m/solve-graph"
        }


class TestEforestCorruption:
    @pytest.mark.parametrize("seed", range(3))
    def test_corrupted_fill_parent_detected(self, seed):
        # Every stage after the merge reads fill.parent; the analyzer
        # derives the forest from the pattern alone, so one wrong entry of
        # the carried forest must be reported, in the structure subject.
        plan, _ = analyzed(seed)
        parent = plan.fill.parent
        for j in (int(np.flatnonzero(parent >= 0)[0]), plan.n - 2):
            bad = parent.copy()
            bad[j] = -1 if bad[j] >= 0 else plan.n - 1
            fill = StaticFill(
                pattern=plan.fill.pattern,
                nnz_original=plan.fill.nnz_original,
                parent=bad,
            )
            report = analyze_plan(dataclasses.replace(plan, fill=fill), name="m")
            hits = [
                f
                for sub in report.subjects
                if sub.name == "m/structure"
                for f in sub.findings
                if f.check == "forest.matches_pattern"
            ]
            assert hits and hits[0].detail["nodes"] == [j], report.render()

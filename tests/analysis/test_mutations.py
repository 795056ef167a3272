"""Mutation tests: the analyzer must *detect* seeded schedule corruption.

Zero findings on shipped graphs only means something if the checker has
teeth — these tests delete Theorem-4 dependence edges and reorder solve
levels, and assert at least one finding every time.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import random_pivot_matrix
from repro.analysis import (
    check_races,
    check_schedule,
    factor_footprints,
    minimality_report,
    solve_footprints,
    solve_region_label,
)
from repro.numeric.solver import SparseLUSolver
from repro.taskgraph.eforest_graph import build_eforest_graph
from repro.taskgraph.solve_graph import build_solve_graph, level_schedule
from repro.taskgraph.sstar import build_sstar_graph


def analyzed(seed=0, n=35):
    return SparseLUSolver(random_pivot_matrix(n, seed)).analyze()


class TestFactorEdgeDeletion:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_eforest_edge_deletion_detected(self, seed):
        # The eforest graph mechanizes Theorem 4's chains with no slack:
        # removing ANY single edge must leave some conflicting pair
        # unordered, and the race checker must say so.
        s = analyzed(seed)
        g = build_eforest_graph(s.bp)
        fps = factor_footprints(s.bp, s.fill)
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
        s = analyzed(seed)
        g = build_sstar_graph(s.bp)
        fps = factor_footprints(s.bp, s.fill)
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
        s = analyzed(1)
        fps = factor_footprints(s.bp, s.fill)
        sstar = build_sstar_graph(s.bp)
        eforest = build_eforest_graph(s.bp)
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
        s = analyzed(seed % 50, n=25)
        g = build_eforest_graph(s.bp)
        edges = g.edges()
        u, v = edges[pick % len(edges)]
        g.remove_edge(u, v)
        findings, _ = check_races(g, factor_footprints(s.bp, s.fill))
        assert findings


class TestSolveMutations:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_solve_edge_deletion_detected(self, seed):
        s = analyzed(seed)
        g = build_solve_graph(s.bp)
        fps = solve_footprints(s.bp)
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

    def test_block_moved_to_earlier_level_detected(self):
        s = analyzed(3)
        sched = level_schedule(s.bp)
        assert len(sched.fwd_levels) >= 2, "matrix too small for the test"
        # Move one dependent block into the first forward level and patch
        # the per-block depth to match, so only the edge check can object.
        b = int(sched.fwd_levels[1][0])
        fwd = [np.asarray(lev) for lev in sched.fwd_levels]
        fwd[1] = fwd[1][fwd[1] != b]
        fwd[0] = np.sort(np.append(fwd[0], b))
        fwd_level = sched.fwd_level.copy()
        fwd_level[b] = fwd_level[int(fwd[0][0])]
        bad = dataclasses.replace(
            sched,
            fwd_levels=tuple(lev for lev in fwd if lev.size),
            fwd_level=fwd_level,
        )
        findings = check_schedule(bad)
        assert any(f.check == "schedule.edge_respects_levels" for f in findings)

    def test_reversed_backward_levels_detected(self):
        s = analyzed(4)
        sched = level_schedule(s.bp)
        assert len(sched.bwd_levels) >= 2
        bad = dataclasses.replace(
            sched, bwd_levels=tuple(reversed(sched.bwd_levels))
        )
        assert check_schedule(bad)

    def test_dropped_structure_dependence_detected(self):
        # A schedule whose graph lost a dependence must race against the
        # footprints re-derived from the block pattern.
        s = analyzed(5)
        sched = level_schedule(s.bp)
        fps = solve_footprints(s.bp)
        assert not check_schedule(sched)  # clean baseline
        assert not check_races(sched.graph, fps, label=solve_region_label)[0]
        # Drop one non-redundant dependence edge from the schedule's graph
        # (a transitive shortcut would leave the pair ordered via a path).
        kept = set(sched.graph.transitive_reduction().edges())
        u, v = next(
            (u, v)
            for u, v in sched.graph.edges()
            if (u, v) in kept and u.kind == "FS" and v.kind == "FS"
        )
        sched.graph.remove_edge(u, v)
        assert check_races(sched.graph, fps, label=solve_region_label)[0]

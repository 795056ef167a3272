"""Span tree mechanics: nesting, ordering, threads, the disabled no-op path."""

import threading

import numpy as np
import pytest

import repro.serve.service as service_mod
from repro.obs.trace import NULL_SPAN, Span, Tracer
from repro.serve import SolverService, refactorize_with_plan
from tests.conftest import random_pivot_matrix


class TestNesting:
    def test_children_nest_under_open_parent(self):
        tr = Tracer()
        with tr.span("analyze"):
            with tr.span("ordering"):
                pass
            with tr.span("static_fill"):
                pass
        with tr.span("factorize"):
            pass
        assert [s.name for s in tr.roots] == ["analyze", "factorize"]
        assert [c.name for c in tr.roots[0].children] == ["ordering", "static_fill"]
        assert tr.roots[1].children == []

    def test_walk_is_depth_first_preorder(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("b"):
                with tr.span("c"):
                    pass
            with tr.span("d"):
                pass
        assert [s.name for s in tr.walk()] == ["a", "b", "c", "d"]

    def test_intervals_nest_and_are_ordered(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        outer, inner = tr.roots[0], tr.roots[0].children[0]
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert outer.duration >= inner.duration >= 0.0

    def test_sibling_spans_do_not_overlap_in_order(self):
        tr = Tracer()
        with tr.span("p"):
            with tr.span("first"):
                pass
            with tr.span("second"):
                pass
        first, second = tr.roots[0].children
        assert first.end <= second.start

    def test_current_and_annotate(self):
        # annotate() lands on the current (innermost open) span, if any.
        tr = Tracer()
        tr.annotate(ignored=True)  # no open span: silently dropped
        with tr.span("stage"):
            with tr.span("inner"):
                tr.annotate(depth=2)
            tr.annotate(nnz=42)
        tr.annotate(late=True)  # closed again: dropped
        assert tr.roots[0].attrs["nnz"] == 42
        assert tr.roots[0].children[0].attrs["depth"] == 2
        assert "late" not in tr.roots[0].attrs
        assert "ignored" not in tr.roots[0].attrs

    def test_attrs_via_kwargs_and_set(self):
        tr = Tracer()
        with tr.span("s", n=10) as s:
            s.set(fill=2.5, method="mindeg")
        assert tr.roots[0].attrs == {"n": 10, "fill": 2.5, "method": "mindeg"}

    def test_exception_unwinds_stack(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("outer"):
                with tr.span("inner"):
                    raise RuntimeError("boom")
        # Both spans were closed despite the exception...
        assert all(s.end is not None for s in tr.walk())
        # ...and a new span lands back at root level.
        with tr.span("after"):
            pass
        assert [s.name for s in tr.roots] == ["outer", "after"]

    def test_find(self):
        tr = Tracer()
        with tr.span("analyze"):
            with tr.span("ordering"):
                pass
        assert tr.find("ordering") is tr.roots[0].children[0]
        assert tr.find("missing") is None


class TestDisabled:
    def test_span_returns_shared_null_singleton(self):
        tr = Tracer(enabled=False)
        assert tr.span("anything") is NULL_SPAN
        assert tr.span("other", attr=1) is NULL_SPAN

    def test_null_span_supports_span_surface(self):
        with NULL_SPAN as s:
            assert s.set(n=1) is NULL_SPAN

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(enabled=False)
        with tr.span("a"):
            with tr.span("b"):
                pass
        assert tr.roots == []
        assert tr.stage_seconds() == {}


class TestStageSeconds:
    def test_sums_repeated_span_names(self):
        tr = Tracer()
        for _ in range(3):
            with tr.span("refactorize"):
                pass
        secs = tr.stage_seconds()
        assert set(secs) == {"refactorize"}
        total = sum(s.duration for s in tr.roots)
        assert secs["refactorize"] == pytest.approx(total)

    def test_includes_nested_stages(self):
        tr = Tracer()
        with tr.span("analyze"):
            with tr.span("ordering"):
                pass
        assert set(tr.stage_seconds()) == {"analyze", "ordering"}

    def test_open_span_counts_zero(self):
        s = Span("open", 0.0)
        assert s.duration == 0.0


class TestThreads:
    """Each thread nests its spans under its own open span, never another's."""

    def test_threads_keep_their_own_stacks(self):
        tr = Tracer()
        opened = threading.Barrier(2, timeout=30)

        def work(name):
            with tr.span(name):
                opened.wait()  # both roots are open at once
                with tr.span(name + ".child"):
                    tr.annotate(owner=name)
                opened.wait()

        threads = [threading.Thread(target=work, args=(n,)) for n in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert sorted(s.name for s in tr.roots) == ["a", "b"]
        for root in tr.roots:
            (child,) = root.children
            assert child.name == root.name + ".child"
            assert child.attrs == {"owner": root.name}

    def test_concurrent_service_workers_root_every_batch(self, monkeypatch):
        # Two workers, two patterns: both flights are held open until the
        # other has started, so their spans are recorded concurrently.
        both_in_flight = threading.Barrier(2, timeout=30)
        calls = []
        lock = threading.Lock()

        def held(plan, a, **kwargs):
            with lock:
                calls.append(a)
                first_two = len(calls) <= 2
            if first_two:
                both_in_flight.wait()
            return refactorize_with_plan(plan, a, **kwargs)

        monkeypatch.setattr(service_mod, "refactorize_with_plan", held)
        mats = [random_pivot_matrix(30, seed) for seed in (1, 2)]
        b = np.ones(30)
        tr = Tracer()
        with SolverService(n_workers=2, tracer=tr) as svc:
            first = [svc.submit(a, b) for a in mats]
            for p in first:
                p.result(30)

            def client(a):
                for _ in range(3):
                    svc.solve(a, b)

            clients = [threading.Thread(target=client, args=(a,)) for a in mats]
            for t in clients:
                t.start()
            for t in clients:
                t.join(30)
        assert len(calls) >= 2
        assert {s.name for s in tr.roots} == {"service.batch"}
        for root in tr.roots:
            # One flight: its own cache decision, one factorization, the
            # solves it served, and an analyze only when it built the plan.
            assert root.attrs["plan_cache"] in ("hit", "miss", "waited")
            names = [s.name for s in root.walk()][1:]
            assert "service.batch" not in names
            assert names.count("factorize") == 1 and names.count("solve") >= 1
            assert names.count("analyze") == (root.attrs["plan_cache"] == "miss")
        assert sum(1 for s in tr.walk() if s.name == "analyze") == len(mats)

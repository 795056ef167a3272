"""Open batches: a same-matrix request joins the factorization in flight.

The factorization is patched where a test needs a request to arrive at an
exact moment of a flight (``service_mod.refactorize_with_plan`` is the one
call a flight makes between claiming its batch and claiming its joiners),
so every interleaving below is forced, not hoped for.
"""

import sys
import threading
import time

import numpy as np
import pytest

import repro.serve.plan as plan_mod
import repro.serve.service as service_mod
from repro.obs.trace import Tracer
from repro.serve import (
    DeadlineExceededError,
    NonFiniteInputError,
    PlanCache,
    ServiceClosedError,
    SolverService,
    build_plan,
    refactorize_with_plan,
)
from repro.sparse.generators import paper_matrix
from repro.taskgraph.tasks import enumerate_tasks
from tests.conftest import random_pivot_matrix

#: Upper bound on any wait in this file; nothing here should take a second.
TIMEOUT = 30.0


@pytest.fixture
def a30():
    return random_pivot_matrix(30, 0)


def patch_factorization(monkeypatch, before):
    """Run ``before(call_index, plan, a)`` ahead of every factorization the
    service makes; returns the list of calls seen."""
    calls = []

    def patched(plan, a, **kwargs):
        calls.append(a)
        before(len(calls), plan, a)
        return refactorize_with_plan(plan, a, **kwargs)

    monkeypatch.setattr(service_mod, "refactorize_with_plan", patched)
    return calls


def scaled_residual(a, x, b):
    dense = a.to_dense()
    scale = np.abs(dense).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
    return float(np.abs(dense @ x - b).max() / scale)


class TestLateJoin:
    def test_twin_submitted_mid_flight_shares_the_factorization(
        self, monkeypatch, a30
    ):
        rng = np.random.default_rng(0)
        b1, b2 = rng.standard_normal(30), rng.standard_normal(30)
        svc = SolverService(n_workers=0, tracer=Tracer())
        late = []
        calls = patch_factorization(
            monkeypatch, lambda i, plan, a: late.append(svc.submit(a30, b2))
        )
        p1 = svc.submit(a30, b1)
        assert svc.process_once() == 2
        assert len(calls) == 1
        st = svc.stats()
        assert (st["batches"], st["mean_batch_size"], st["joined"]) == (1, 2.0, 1)
        assert (st["completed"], st["queue_depth"]) == (2, 0)
        assert not svc._in_flight
        # Bitwise the warm path's blocked solve of the two, column by column
        # (and, to rounding, its solve of each right-hand side alone).
        fac = refactorize_with_plan(svc.cache.get(a30), a30)
        x = fac.solve(np.column_stack([b1, b2]))
        for k, (p, b) in enumerate(((p1, b1), (late[0], b2))):
            assert np.array_equal(p.result(TIMEOUT), x[:, k])
            np.testing.assert_allclose(p.result(TIMEOUT), fac.solve(b), rtol=1e-9)
        # The service says what happened, in its metrics and in its trace.
        assert svc.metrics.histogram("service.queue_wait").count == 2
        assert svc.metrics.histogram("solve.n_rhs").max == 2
        (span,) = [s for s in svc.tracer.walk() if s.name == "service.batch"]
        assert span.attrs == {
            "plan_cache": "miss", "n_requests": 2, "n_joined": 1, "n_solves": 1,
        }
        svc.solve(a30, b1)
        assert svc.tracer.roots[-1].attrs["plan_cache"] == "hit"
        svc.close()

    @pytest.mark.parametrize("max_batch", [8, 1])  # expired in the first claim / a later one
    def test_joiner_past_its_deadline_gets_no_solve(self, monkeypatch, a30, max_batch):
        b = np.ones(30)
        svc = SolverService(n_workers=0, max_batch=max_batch)
        late = []

        def before(i, plan, a):
            late.append(svc.submit(a30, b, deadline_s=0.01))
            time.sleep(0.05)  # the deadline lapses while the flight runs

        patch_factorization(monkeypatch, before)
        p1 = svc.submit(a30, b)
        assert svc.process_once() == 2
        assert scaled_residual(a30, p1.result(TIMEOUT), b) < 1e-10
        with pytest.raises(DeadlineExceededError):
            late[0].result(TIMEOUT)
        st = svc.stats()
        assert (st["expired"], st["completed"], st["joined"]) == (1, 1, 0)
        n_rhs = svc.metrics.histogram("solve.n_rhs")
        assert (n_rhs.count, n_rhs.max) == (1, 1)
        svc.close()


class TestOwnerFailure:
    def test_error_stays_with_its_batch_and_the_twin_flies_afresh(
        self, monkeypatch, a30
    ):
        b = np.ones(30)
        svc = SolverService(n_workers=2)
        late = []

        def before(i, plan, a):
            if i == 1:
                late.append(svc.submit(a30, 2 * b))
                raise RuntimeError("engine failed")

        calls = patch_factorization(monkeypatch, before)
        p1 = svc.submit(a30, b)
        with pytest.raises(RuntimeError, match="engine failed"):
            p1.result(TIMEOUT)
        assert scaled_residual(a30, late[0].result(TIMEOUT), 2 * b) < 1e-10
        assert len(calls) == 2
        st = svc.stats()
        assert (st["failed"], st["completed"], st["batches"]) == (1, 1, 1)
        svc.close()
        for t in svc._workers:
            t.join(TIMEOUT)
        assert not any(t.is_alive() for t in svc._workers), "a worker sleeps forever"
        assert not svc._in_flight


class TestCloseWithAFlightOpen:
    @staticmethod
    def _open_flight(monkeypatch, svc, a):
        """Submit one request and hold its factorization until the returned
        event is set; two same-matrix joiners and one other-matrix request
        are queued behind it."""
        started, release = threading.Event(), threading.Event()

        def before(i, plan, a):
            if i == 1:
                started.set()
                assert release.wait(TIMEOUT)

        patch_factorization(monkeypatch, before)
        b = np.ones(a.n_cols)
        owner = svc.submit(a, b)
        assert started.wait(TIMEOUT)
        joiners = [svc.submit(a, k * b) for k in (2.0, 3.0)]
        other = svc.submit(a.with_values(a.data * 2.0), b)
        return owner, joiners, other, release

    @staticmethod
    def _close_in_background(svc, **kwargs):
        closer = threading.Thread(target=svc.close, kwargs=kwargs)
        closer.start()
        return closer

    def test_drain_resolves_the_flight_its_joiners_and_the_rest(
        self, monkeypatch, a30
    ):
        svc = SolverService(n_workers=1)
        owner, joiners, other, release = self._open_flight(monkeypatch, svc, a30)
        closer = self._close_in_background(svc, drain=True)
        release.set()
        closer.join(TIMEOUT)
        assert not closer.is_alive()
        b = np.ones(30)
        for p, k in zip([owner, *joiners], (1.0, 2.0, 3.0)):
            assert scaled_residual(a30, p.result(TIMEOUT), k * b) < 1e-10
        assert other.done and other.result(TIMEOUT).shape == (30,)
        st = svc.stats()
        assert (st["completed"], st["batches"], st["joined"]) == (4, 2, 2)
        assert not any(t.is_alive() for t in svc._workers)

    def test_no_drain_fails_what_is_queued_joiners_included(self, monkeypatch, a30):
        svc = SolverService(n_workers=1)
        owner, joiners, other, release = self._open_flight(monkeypatch, svc, a30)
        closer = self._close_in_background(svc, drain=False)
        for p in (*joiners, other):
            with pytest.raises(ServiceClosedError):
                p.result(TIMEOUT)
        release.set()
        closer.join(TIMEOUT)
        assert not closer.is_alive()
        # The request already being factorized is not abandoned.
        assert scaled_residual(a30, owner.result(TIMEOUT), np.ones(30)) < 1e-10
        assert not any(t.is_alive() for t in svc._workers)
        assert not svc._in_flight


class TestThreadedStress:
    N_PAIRS = 40
    N_HOT = 4

    def test_two_clients_forty_pairs_forty_factorizations(self, monkeypatch):
        hot = [random_pivot_matrix(30, 20 + k) for k in range(self.N_HOT)]
        rng = np.random.default_rng(5)
        pairs = []
        for j in range(self.N_PAIRS):
            a0 = hot[j % self.N_HOT]
            a = a0.with_values(a0.data * (1.0 + 0.1 * rng.uniform(-1, 1, a0.nnz)))
            pairs.append((a, rng.standard_normal((30, 2))))
        svc = SolverService(n_workers=4, cache=PlanCache(max_entries=8))

        def wait_for_the_twin(i, plan, a):
            # Both clients move in step (each waits for its answer), so the
            # i-th factorization is pair i's and the twin is request 2i.
            # Holding the flight until it was submitted makes the sharing
            # certain; that no other worker takes the twin meanwhile, and
            # that the owner finds it, is what the test is about.
            deadline = time.monotonic() + TIMEOUT / 2
            while svc.stats()["requests"] < 2 * i and time.monotonic() < deadline:
                time.sleep(0.0002)

        calls = patch_factorization(monkeypatch, wait_for_the_twin)
        residuals = [[], []]
        errors = []

        def client(c):
            try:
                for a, bs in pairs:
                    x = svc.solve(a, bs[:, c], timeout=TIMEOUT)
                    residuals[c].append(scaled_residual(a, x, bs[:, c]))
            except Exception as err:  # reported by the assertion below
                errors.append(err)

        clients = [threading.Thread(target=client, args=(c,)) for c in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more workers than cores, switch often
        try:
            for t in clients:
                t.start()
            for t in clients:
                t.join(4 * TIMEOUT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in clients), "a client is stuck"
        assert not errors, errors
        svc.close()
        assert not any(t.is_alive() for t in svc._workers)
        st = svc.stats()
        assert len(calls) == self.N_PAIRS
        assert (st["batches"], st["completed"]) == (self.N_PAIRS, 2 * self.N_PAIRS)
        assert st["mean_batch_size"] == 2.0
        # A twin either was queued before the flight opened or joined it.
        assert st["joined"] <= self.N_PAIRS
        assert st["cache"]["misses"] == self.N_HOT
        assert max(max(r) for r in residuals) <= 1e-10
        assert not svc._in_flight and st["queue_depth"] == 0


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_at_submit_and_the_service_carries_on(self, a30, bad):
        svc = SolverService(n_workers=0)
        b = np.ones(30)
        poisoned = a30.data.copy()
        poisoned[3] = bad
        with pytest.raises(NonFiniteInputError):
            svc.submit(a30.with_values(poisoned), b)
        b_bad = b.copy()
        b_bad[-1] = bad
        with pytest.raises(NonFiniteInputError):
            svc.submit(a30, b_bad)
        st = svc.stats()
        assert (st["requests"], st["queue_depth"]) == (0, 0)
        assert not svc._in_flight
        assert scaled_residual(a30, svc.solve(a30, b), b) < 1e-10
        svc.close()

    def test_is_a_serve_error_and_a_value_error(self):
        from repro.serve import ServeError

        assert issubclass(NonFiniteInputError, (ServeError, ValueError))


class TestHashOnce:
    def test_a_request_fingerprints_its_pattern_once(self, monkeypatch, a30):
        import repro.serve.cache as cache_mod
        import repro.serve.plan as plan_mod
        from repro.serve.fingerprint import fingerprint

        hashed = []

        def counting(a):
            hashed.append(a)
            return fingerprint(a)

        for mod in (service_mod, cache_mod, plan_mod):
            monkeypatch.setattr(mod, "fingerprint", counting)
        svc = SolverService(n_workers=0)
        svc.solve(a30, np.ones(30))  # cold: submit + build_plan's own
        assert len(hashed) == 2
        svc.solve(a30.with_values(a30.data * 2.0), np.ones(30))  # warm
        assert len(hashed) == 3
        svc.close()


class TestLazyGraph:
    @staticmethod
    def _count_builds(monkeypatch, delay=0.0):
        # The REPRO_ANALYZE hook reads the graph of every plan it checks.
        monkeypatch.delenv("REPRO_ANALYZE", raising=False)
        builds = []
        real = plan_mod.build_eforest_graph

        def counted(bp):
            builds.append(threading.get_ident())
            time.sleep(delay)
            return real(bp)

        monkeypatch.setattr(plan_mod, "build_eforest_graph", counted)
        return builds

    def test_sequential_requests_never_build_the_graph(self, monkeypatch, a30):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        builds = self._count_builds(monkeypatch)
        plan = build_plan(a30)
        refactorize_with_plan(plan, a30, engine="sequential").solve(np.ones(30))
        text = str(plan)
        assert builds == []
        # ... and what __str__ reports is the graph's own count.
        assert f"n_tasks={plan.graph.n_tasks}" in text
        assert len(builds) == 1

    def test_threaded_engine_builds_it_once(self, monkeypatch, a30):
        # Threaded requests run block steps over the block eforest and need
        # no task graph, sanitized or not (the sanitizer checks the steps);
        # the first read builds it, once however many follow.
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        builds = self._count_builds(monkeypatch)
        plan = build_plan(a30)
        seq = refactorize_with_plan(plan, a30, engine="sequential")
        for _ in range(2):
            thr = refactorize_with_plan(plan, a30, engine="threaded", n_workers=2)
            assert np.array_equal(seq.result.l_factor.data, thr.result.l_factor.data)
            assert np.array_equal(seq.result.u_factor.data, thr.result.u_factor.data)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        for _ in range(2):
            thr = refactorize_with_plan(plan, a30, engine="threaded", n_workers=2)
            assert np.array_equal(seq.result.l_factor.data, thr.result.l_factor.data)
        assert builds == []
        assert plan.graph is plan.graph
        assert len(builds) == 1

    def test_unsanitized_proc_run_builds_no_graph(self, monkeypatch, a30):
        # Proc workers run the same block steps the threaded loop releases.
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        builds = self._count_builds(monkeypatch)
        plan = build_plan(a30)
        seq = refactorize_with_plan(plan, a30, engine="sequential")
        prc = refactorize_with_plan(plan, a30, engine="proc", n_workers=2)
        assert np.array_equal(seq.result.l_factor.data, prc.result.l_factor.data)
        assert np.array_equal(seq.result.u_factor.data, prc.result.u_factor.data)
        assert builds == []

    def test_sanitized_sequential_run_sees_the_graph(self, monkeypatch, a30):
        # A sanitized engine run checks block steps and builds no graph; a
        # sanitized order= replay is checked against the graph and builds it.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        builds = self._count_builds(monkeypatch)
        plan = build_plan(a30)
        refactorize_with_plan(plan, a30, engine="sequential")
        assert builds == []
        refactorize_with_plan(plan, a30, order=enumerate_tasks(plan.bp))
        assert len(builds) == 1

    def test_concurrent_first_readers_get_equal_graphs(self, monkeypatch):
        # Concurrent first readers may each build the graph (a plan holds
        # no lock); every one of them must get the same tasks and edges.
        builds = self._count_builds(monkeypatch, delay=0.05)
        plan = build_plan(paper_matrix("sherman3", scale=0.03))
        barrier = threading.Barrier(8)
        graphs = []

        def reader():
            barrier.wait(TIMEOUT)
            graphs.append(plan.graph)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT)
        assert not any(t.is_alive() for t in threads)
        assert 1 <= len(builds) <= 8
        assert len(graphs) == 8
        tasks, edges = set(graphs[0].tasks()), set(graphs[0].edges())
        assert tasks and edges
        for g in graphs[1:]:
            assert set(g.tasks()) == tasks and set(g.edges()) == edges
        assert plan.graph in graphs

    def test_default_plan_is_small_until_the_graph_is_asked_for(self, monkeypatch):
        import gc
        import types

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        monkeypatch.delenv("REPRO_ANALYZE", raising=False)
        code = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)

        def reachable_bytes(root):
            """Every array and container reachable from ``root``, once."""
            seen, total, stack = set(), 0, [root]
            while stack:
                o = stack.pop()
                if id(o) in seen or isinstance(o, code):
                    continue
                seen.add(id(o))
                if isinstance(o, np.ndarray):
                    total += sys.getsizeof(o) if o.base is None else 128
                    if o.base is not None:
                        stack.append(o.base)
                    continue
                total += sys.getsizeof(o)
                stack.extend(gc.get_referents(o))
            return total

        a = paper_matrix("sherman3", scale=0.15)
        plan = build_plan(a)
        refactorize_with_plan(plan, a, engine="sequential").solve(np.ones(a.n_cols))
        lean = reachable_bytes(plan)
        assert lean <= 0.6e6, lean
        plan.graph
        assert reachable_bytes(plan) - lean > 0.2e6  # what was not paid

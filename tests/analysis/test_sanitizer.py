"""Dynamic access-sanitizer tests.

Soundness: a sanitized factorization of shipped engines on shipped
footprints records *zero* escapes and must not perturb the numerics
(bitwise-identical factors). Teeth: corrupting the static footprint
model — dropping one GEMM write row of a block step — must be flagged,
as must an engine that writes padded rows, and runs or replayed orders
whose happens-before edges are missing. The escape checks run the real
engines; this file executes numerics by design (unlike the static
passes).
"""

import threading

import numpy as np
import pytest

from tests.conftest import random_pivot_matrix
from repro.analysis import (
    SANITIZER_KINDS,
    AccessSanitizer,
    build_sanitizer,
    sanitize_enabled,
    sanitize_matrix,
    sanitizer_footprints,
    validate_analysis_document,
)
from repro.analysis.footprints import ORIG_AT_REGION, TaskFootprint
from repro.analysis.sanitizer import pivot_region, task_predecessors
from repro.obs.metrics import MetricsRegistry
from repro.serve import build_plan, refactorize_with_plan
from repro.sparse.generators import paper_matrix
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.tasks import Task, enumerate_tasks
from repro.util.errors import SanitizerError


def planned(n=40, seed=0):
    """A random pivoting matrix and its plan."""
    a = random_pivot_matrix(n, seed)
    return a, build_plan(a)


def factor_payload(fact):
    r = fact.result
    return (
        r.l_factor.indptr,
        r.l_factor.indices,
        r.l_factor.data,
        r.u_factor.indptr,
        r.u_factor.indices,
        r.u_factor.data,
        r.orig_at,
    )


class TestSoundness:
    @pytest.mark.parametrize("engine", ["sequential", "threaded"])
    def test_zero_escapes_and_bitwise_factors(self, engine):
        a, plan = planned(seed=1)
        base = refactorize_with_plan(plan, a, engine=engine, n_workers=2)
        a, plan = planned(seed=1)
        san = build_sanitizer(plan.bp, plan.fill)
        fact = refactorize_with_plan(
            plan, a, engine=engine, n_workers=2, sanitizer=san
        )
        assert san.findings == [], [str(f) for f in san.findings]
        assert san.n_accesses > 0 and san.n_tasks > 0
        for got, want in zip(factor_payload(fact), factor_payload(base)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", ["sherman3", "lns3937"])
    def test_paper_analogs_proc_zero_escapes(self, name):
        # The acceptance configuration: multi-process engine executing the
        # plan, happens-before checked in the parent and containment
        # merged back across forks.
        a = paper_matrix(name, scale=0.15)
        report = sanitize_matrix(a, name=name, engine="proc", n_workers=2)
        assert report.ok, report.render()
        (sub,) = report.subjects
        assert sub.name == f"{name}/sanitize-proc"
        assert sub.stats["n_accesses"] > 0
        assert sub.stats["n_tasks_sanitized"] > 0

    def test_untasked_accesses_ungoverned(self):
        # Copy-in/extraction run outside any task extent and are not
        # checked (or counted) — only task-attributed accesses are.
        _, plan = planned()
        san = build_sanitizer(plan.bp, plan.fill)
        san.record_write(0, np.array([10**9]))
        assert san.findings == []
        assert san.n_accesses == 0


class TestCorruptedFootprints:
    def test_dropped_gemm_write_row_flagged(self):
        # Record the real write sets once, then re-run against a
        # footprint model missing one below-diagonal (GEMM) write row of
        # one block step's update: the sanitizer must flag that escape.
        a, plan = planned(seed=2)
        recorded = {}

        class Recording(AccessSanitizer):
            def _record(self, region, rows, *, write):
                step = getattr(self._local, "task", None)
                if write and isinstance(step, int) and 0 <= step < region:
                    seen = recorded.setdefault((step, region), set())
                    seen.update(np.asarray(rows).ravel().tolist())
                super()._record(region, rows, write=write)

        fps = sanitizer_footprints(plan.bp, plan.fill)
        san = Recording(fps)
        refactorize_with_plan(plan, a, engine="sequential", sanitizer=san)
        assert san.findings == []
        assert recorded, "no update writes observed"
        # Deepest recorded row of the widest write set: a GEMM-updated
        # below-diagonal row (TRSM only touches the leading block rows).
        (task, region), rows = max(recorded.items(), key=lambda kv: len(kv[1]))
        victim = max(rows)
        fp = fps[task]
        keep = fp.writes[region][fp.writes[region] != victim]
        corrupted = dict(fps)
        corrupted[task] = TaskFootprint(
            reads=dict(fp.reads), writes={**fp.writes, region: keep}
        )

        a2, plan2 = planned(seed=2)
        san2 = AccessSanitizer(corrupted)
        refactorize_with_plan(plan2, a2, engine="sequential", sanitizer=san2)
        escapes = [
            f for f in san2.findings if f.check == "sanitizer.write_escape"
        ]
        assert escapes, "dropped GEMM write row went undetected"
        assert any(f"step({task})" in f.tasks for f in escapes)
        assert all(f.check in SANITIZER_KINDS for f in san2.findings)

    def test_unknown_task_flagged(self):
        san = AccessSanitizer({})
        san.begin(Task("F", 0, 0))
        san.record_write(0, np.array([1, 2]))
        san.end(Task("F", 0, 0))
        assert [f.check for f in san.findings] == ["sanitizer.unknown_task"]

    def test_raise_on_findings(self):
        san = AccessSanitizer({})
        san.begin(Task("F", 0, 0))
        san.record_read(0, np.array([3]))
        with pytest.raises(SanitizerError, match="1 sanitizer finding"):
            san.raise_on_findings("unit test")


class TestShippingUnit:
    """The block step is the unit every engine runs and the sanitizer checks."""

    @pytest.fixture(scope="class")
    def sherman3(self):
        a = paper_matrix("sherman3", scale=0.1)
        return a, build_plan(a)

    @pytest.mark.parametrize("engine", ["sequential", "threaded", "proc"])
    def test_padded_row_gemm_mutant_is_caught(self, sherman3, engine, monkeypatch):
        # A GEMM that also writes the padded rows (all-zero multipliers)
        # is the race the active-row filter prevents between subtrees;
        # the step footprints leave those rows out, so it must escape.
        import repro.numeric.factor as factor

        panel_facts = factor._panel_facts

        def padded(subs, pivoted, m, w, linv=None):
            facts = panel_facts(subs, pivoted, m, w, linv)
            return facts._replace(active=np.arange(w, m.shape[0]))

        monkeypatch.setattr(factor, "_panel_facts", padded)
        a, plan = sherman3
        san = build_sanitizer(plan.bp, plan.fill)
        refactorize_with_plan(plan, a, engine=engine, n_workers=2, sanitizer=san)
        assert "sanitizer.write_escape" in {f.check for f in san.findings}
        assert all(f.tasks[0].startswith("step(") for f in san.findings)

    def test_proc_parent_checks_each_step(self, sherman3, monkeypatch):
        # The proc parent replays a unit's steps after the worker's reply:
        # a clean run checks every step, and a release loop that ignored
        # the unit graph (roots first) is a happens-before finding on a step.
        import repro.parallel.threads as threads

        a, plan = sherman3
        san = build_sanitizer(plan.bp, plan.fill)
        refactorize_with_plan(plan, a, engine="proc", n_workers=2, sanitizer=san)
        assert san.findings == [] and san.n_tasks == plan.bp.n_blocks

        # One pool thread runs the two-worker cut (it has top steps),
        # reversed and with no unit graph, deterministically.
        units = threads.release_plan(plan.bp, 2).units[::-1]
        roots_first = threads.UnitCut(units, [[] for _ in units], 0.0)
        monkeypatch.setattr(threads, "release_plan", lambda bp, n: roots_first)
        san = build_sanitizer(plan.bp, plan.fill)
        refactorize_with_plan(plan, a, engine="proc", n_workers=1, sanitizer=san)
        missing = [f for f in san.findings if f.check.endswith("happens_before")]
        assert missing and all(f.tasks[0].startswith("step(") for f in missing)

    def test_order_replay_is_sanitized(self, sherman3, monkeypatch):
        # An explicit order= runs under the sanitizer too: the reference
        # order is clean, and the last F moved to the front is a
        # happens-before finding — strict under REPRO_SANITIZE=1.
        a, plan = sherman3
        order = enumerate_tasks(plan.bp)
        san = build_sanitizer(plan.bp, plan.fill)
        refactorize_with_plan(plan, a, order=order, sanitizer=san)
        assert san.findings == []
        assert san.n_tasks == len(order) and san.n_accesses > 0
        last_f = Task("F", plan.bp.n_blocks - 1, plan.bp.n_blocks - 1)
        bad = [last_f] + [t for t in order if t != last_f]
        san = build_sanitizer(plan.bp, plan.fill)
        refactorize_with_plan(plan, a, order=bad, sanitizer=san)
        assert "sanitizer.missing_happens_before" in {f.check for f in san.findings}
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with pytest.raises(SanitizerError, match="missing_happens_before"):
            refactorize_with_plan(plan, a, order=bad)


class TestHappensBefore:
    def graph(self):
        g = TaskGraph()
        a, b = Task("F", 0, 0), Task("F", 1, 1)
        g.add_task(a)
        g.add_task(b)
        g.add_edge(a, b)
        return g, a, b

    def test_missing_completion_flagged(self):
        g, a, b = self.graph()
        san = AccessSanitizer({}, task_predecessors(g))
        san.begin(b)  # a never observed complete
        assert [f.check for f in san.findings] == [
            "sanitizer.missing_happens_before"
        ]

    def test_message_completion_satisfies_edge(self):
        # A completion recorded on another thread is a valid
        # happens-before source — how the proc engine's parent, whose pool
        # threads each wait on one worker, sees its workers' units.
        g, a, b = self.graph()
        san = AccessSanitizer({}, task_predecessors(g))
        other = threading.Thread(target=lambda: (san.begin(a), san.end(a)))
        other.start()
        other.join()
        san.begin(b)
        san.end(b)
        assert san.findings == []

    def test_worker_merge_round_trip(self):
        # A worker checks containment only (no happens-before reference:
        # it sees just the tasks it ran); the parent, which released b
        # after a, counts the task and merges the worker's accesses.
        g, a, b = self.graph()
        worker = AccessSanitizer({}, task_predecessors(g))
        worker.set_predecessors(None)
        worker.begin(b)
        worker.record_read(0, np.array([1]))  # unknown-task finding
        worker.end(b)
        payload = worker.export_run()
        parent = AccessSanitizer({}, task_predecessors(g))
        for t in (a, b):
            parent.begin(t)
            parent.end(t)
        parent.merge_run(payload)
        assert [f.check for f in worker.findings] == ["sanitizer.unknown_task"]
        assert {f.check for f in parent.findings} == {
            f.check for f in worker.findings
        }
        assert parent.n_tasks == 2
        assert parent.n_accesses == worker.n_accesses == 1


class TestPivotSlots:
    def test_footprints_extended_with_pivot_regions(self):
        _, plan = planned()
        fps = sanitizer_footprints(plan.bp, plan.fill)
        f_tasks = [t for t in fps if isinstance(t, Task) and t.kind == "F"]
        u_tasks = [t for t in fps if isinstance(t, Task) and t.kind == "U"]
        assert f_tasks and u_tasks
        for t in f_tasks:
            assert pivot_region(t.k) in fps[t].writes
        for t in u_tasks:
            assert pivot_region(t.k) in fps[t].reads
        # Step k is F(k) plus its updates: it writes and reads slot k.
        for k in range(plan.bp.n_blocks):
            assert pivot_region(k) in fps[k].writes
        # Pivot-slot ids stay disjoint from panel regions and orig_at.
        assert pivot_region(0) < ORIG_AT_REGION < 0


class TestSanitizeMatrix:
    def test_report_schema_and_metrics(self):
        a = random_pivot_matrix(40, 4)
        metrics = MetricsRegistry()
        report = sanitize_matrix(
            a, name="rand40", engine="sequential", metrics=metrics
        )
        assert report.ok
        assert report.modes == ["sanitize"]
        doc = report.as_dict()
        assert validate_analysis_document(doc) == []
        (sub,) = doc["subjects"]
        assert sub["name"] == "rand40/sanitize-sequential"
        assert sub["stats"]["engine"] == "sequential"
        assert metrics.counter("sanitizer.accesses").value > 0
        assert metrics.counter("sanitizer.rows_checked").value > 0
        assert metrics.counter("sanitizer.findings").value == 0

    def test_env_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()

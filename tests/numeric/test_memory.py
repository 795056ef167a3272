"""Memory-report tests."""


from tests.conftest import analyzed, random_pivot_matrix
from repro.numeric.memory import memory_report


class TestMemoryReport:
    def test_basic_invariants(self):
        plan, _ = analyzed(random_pivot_matrix(30, 0))
        mem = memory_report(plan.fill, plan.bp)
        assert mem.n == 30
        assert mem.nnz_fill >= mem.nnz_a
        # Block storage covers at least Ā's entries (padding only adds).
        assert mem.panel_entries >= mem.nnz_fill
        assert mem.padding_ratio >= 1.0
        assert mem.panel_bytes == mem.panel_entries * 8

    def test_largest_panel_bounded_by_total(self):
        plan, _ = analyzed(random_pivot_matrix(25, 1))
        mem = memory_report(plan.fill, plan.bp)
        assert 0 < mem.largest_panel_bytes <= mem.panel_bytes

    def test_amalgamation_adds_padding(self):
        from repro.numeric.solver import SolverOptions

        a = random_pivot_matrix(40, 2)
        plan, a_work = analyzed(a, amalgamation=False)
        plan, a_work = analyzed(a, amalgamation=True)
        mem_raw = memory_report(plan.fill, plan.bp)
        mem_merged = memory_report(plan.fill, plan.bp)
        assert mem_merged.panel_entries >= mem_raw.panel_entries

    def test_summary_rows(self):
        plan, _ = analyzed(random_pivot_matrix(20, 3))
        rows = dict(memory_report(plan.fill, plan.bp).summary_rows())
        assert rows["order"] == 20
        assert "block storage (MB)" in rows

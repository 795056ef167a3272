"""Block-column storage tests."""

import numpy as np
import pytest

from tests.conftest import analyzed, random_pivot_matrix
from tests.numeric.test_supersolve import block_triangular_matrix
from repro.numeric.blockdata import BlockColumnData, BlockLayout
from repro.numeric.factor import LUFactorization
from repro.sparse.convert import csc_from_dense
from repro.sparse.generators import paper_matrix, random_sparse
from repro.symbolic.supernodes import block_pattern, supernode_partition
from repro.symbolic.static_fill import static_symbolic_factorization
from repro.taskgraph.tasks import enumerate_tasks
from repro.util.errors import PatternError, SchedulingError, ShapeError


def make_data(n=25, seed=0):
    plan, a_work = analyzed(random_pivot_matrix(n, seed))
    return BlockColumnData(a_work, plan.bp), plan, a_work


class TestConstruction:
    def test_panels_hold_matrix_values(self):
        data, plan, a_work = make_data()
        dense = a_work.to_dense()
        for col in range(a_work.n_cols):
            k = int(data.block_of_row[col])
            local = col - int(data.starts[k])
            rows = np.nonzero(dense[:, col])[0]
            pos, present = data.layout.positions(k, rows)
            assert present.all()
            assert np.allclose(data.panels[k][pos, local], dense[rows, col])

    def test_rejects_pattern_only(self):
        data, plan, a_work = make_data()
        with pytest.raises(PatternError):
            BlockColumnData(a_work.pattern_only(), plan.bp)

    def test_rejects_shape_mismatch(self):
        _, plan, _ = make_data()
        other = random_sparse(10, density=0.3, seed=1)
        with pytest.raises(ShapeError):
            BlockColumnData(other, plan.bp)

    def test_rejects_uncovered_entries(self):
        from repro.ordering.transversal import zero_free_diagonal_permutation
        from repro.sparse.ops import permute
        from repro.symbolic.supernodes import BlockPattern

        a = random_pivot_matrix(20, 3)
        a = permute(a, row_perm=zero_free_diagonal_permutation(a))
        fill = static_symbolic_factorization(a)
        part = supernode_partition(fill)
        bp = block_pattern(fill, part)
        # A pattern truncated to the diagonal blocks cannot host the
        # off-diagonal entries of Ā — scattering must raise.
        truncated = BlockPattern(
            partition=part,
            blocks=[np.array([k]) for k in range(part.n_supernodes)],
        )
        full = fill.pattern.with_values(np.ones(fill.nnz))
        if any(b.size > 1 for b in bp.blocks):
            with pytest.raises(PatternError):
                BlockColumnData(full, truncated)


class TestQueries:
    def test_positions_absent_rows(self):
        data, *_ = make_data()
        k = data.n_blocks - 1
        stored = set()
        for b in data.layout.col_blocks[k]:
            stored.update(range(int(data.starts[b]), int(data.starts[b + 1])))
        absent = [r for r in range(data.n) if r not in stored][:3]
        if absent:
            _, present = data.layout.positions(k, np.array(absent))
            assert not present.any()

    def test_sub_rows_sorted_starts_at_diag(self):
        data, *_ = make_data()
        for k in range(data.n_blocks):
            subs = data.sub_rows(k)
            assert subs[0] == data.starts[k]
            assert (np.diff(subs) > 0).all()

    def test_sub_panel_is_bottom_slice(self):
        data, *_ = make_data()
        for k in range(data.n_blocks):
            sub = data.sub_panel(k)
            assert sub.shape[0] == data.sub_rows(k).size
            # It is a view into the panel (writes propagate).
            sub[0, 0] = 123.456
            assert data.panels[k][data.layout.diag_offset(k), 0] == 123.456

    def test_width(self):
        data, *_ = make_data()
        assert sum(data.width(k) for k in range(data.n_blocks)) == data.n


class TestPanelStore:
    """Values and pivot renaming of a factored panel live side by side, in
    two flat buffers the engine addresses only through the store's views."""

    @pytest.fixture(scope="class")
    def sherman3(self):
        """``(plan, a_work)`` of a small sherman3 analog."""
        return analyzed(paper_matrix("sherman3", scale=0.1))

    def test_pivot_slots_mirror_sub_rows_and_read_unset_until_factored(self, sherman3):
        plan, a_work = sherman3
        eng = LUFactorization(a_work, plan.bp)
        data, ptr = eng.data, eng.data.layout.sub_ptr
        assert [p.size for p in data.pivots] == [
            data.sub_rows(k).size for k in range(data.n_blocks)
        ]
        assert data.pivot_ids.size == ptr[-1] and (data.pivot_ids == -1).all()
        for views, buf in ((data.panels, data.values), (data.pivots, data.pivot_ids)):
            assert all(np.shares_memory(v, buf) for v in views)
        for task in enumerate_tasks(plan.bp):
            eng.run_task(task)
            if task.kind == "F":
                # F(k) published a renaming of its own candidate rows and
                # left every later slot alone.
                k = task.k
                assert sorted(data.pivots[k]) == data.sub_rows(k).tolist()
                assert (data.pivot_ids[ptr[k + 1] :] == -1).all()
        assert (data.pivot_ids >= 0).all()

    def test_engine_on_attached_buffers_gives_the_same_bits(self, sherman3):
        plan, a_work = sherman3
        ref = LUFactorization(a_work, plan.bp)
        ref.factor_sequential()
        eng = LUFactorization(a_work, plan.bp)
        own = eng.data.values
        values, pivot_ids = own.copy(), eng.data.pivot_ids.copy()
        eng.data.attach(values, pivot_ids)
        eng.factor_sequential()
        assert np.array_equal(values, ref.data.values)
        assert np.array_equal(pivot_ids, ref.data.pivot_ids)
        # The buffers the store allocated for itself were left as scattered.
        assert np.array_equal(own, LUFactorization(a_work, plan.bp).data.values)
        got, want = eng.extract(retain_blocks=True), ref.extract(retain_blocks=True)
        assert np.array_equal(got.orig_at, want.orig_at)
        assert np.array_equal(got.l_factor.data, want.l_factor.data)
        assert np.array_equal(got.u_factor.data, want.u_factor.data)
        b = np.arange(1.0, a_work.n_cols + 1)
        assert np.array_equal(got.solve(b), want.solve(b))

    def test_attach_rejects_buffers_of_another_size(self, sherman3):
        plan, a_work = sherman3
        data = BlockColumnData(a_work, plan.bp)
        with pytest.raises(ShapeError):
            data.attach(data.values[:-1], data.pivot_ids)
        with pytest.raises(ShapeError):
            data.attach(data.values, np.empty(0, dtype=np.int64))


# ----------------------------------------------------------------------
# Layout-owned relative indices and the one-pass panel scatter
# ----------------------------------------------------------------------
def _tridiagonal(n=40):
    dense = np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), 1)
    return csc_from_dense(dense + np.diag(np.full(n - 1, -2.0), -1))


PATTERNS = {
    "random-0": lambda: random_pivot_matrix(30, 0),
    "random-1": lambda: random_pivot_matrix(45, 1, density=0.2),
    "random-2": lambda: random_pivot_matrix(60, 2, density=0.05),
    "dense": lambda: csc_from_dense(np.random.default_rng(3).random((12, 12)) + 1.0),
    "tridiagonal": _tridiagonal,
    "block-triangular": block_triangular_matrix,
    **{
        name: (lambda name=name: paper_matrix(name, scale=0.05))
        for name in ("sherman3", "sherman5", "lnsp3937", "lns3937", "orsreg1", "saylr4", "goodwin")
    },
}


def scatter_reference(a, layout, owned=None):
    """The column-by-column scatter the one-pass version replaced."""
    panels = [
        np.zeros((layout.panel_heights[k], layout.width(k)))
        if owned is None or k in owned
        else None
        for k in range(layout.n_blocks)
    ]
    for col in range(a.n_cols):
        k = int(layout.block_of_row[col])
        if panels[k] is None:
            continue
        rows = a.col_rows(col)
        pos, present = layout.positions(k, rows)
        if not present.all():
            raise PatternError(f"column {col}")
        panels[k][pos, col - int(layout.starts[k])] = a.col_values(col)
    return panels


@pytest.mark.parametrize("name", sorted(PATTERNS))
class TestRelativeIndices:
    def test_every_update_matches_positions(self, name):
        plan, _ = analyzed(PATTERNS[name]())
        layout = BlockLayout(plan.bp)
        updates = [t for t in enumerate_tasks(plan.bp) if t.kind == "U"]
        # One row per update, grouped by source: a step's rows are one view.
        assert layout._rel.size == sum(layout.sub_rows(t.k).size for t in updates)
        for k in range(layout.n_blocks):
            targets, block = layout.step_targets(k)
            assert targets.tolist() == [t.j for t in updates if t.k == k]
            assert block.shape == (targets.size, layout.sub_rows(k).size)
            assert block.base is not None  # a view, never a copy
        for t in updates:
            rel = layout.relative_rows(t.k, t.j)
            pos, present = layout.positions(t.j, layout.sub_rows(t.k))
            assert rel.dtype == np.int32 and not rel.flags.writeable
            assert np.array_equal(rel >= 0, present)
            assert np.array_equal(rel[present], pos[present])
            assert np.all(rel[~present] == -1)
            # The U block (k, j) is stored whole: contiguous from rel[0].
            w = layout.width(t.k)
            assert np.array_equal(rel[:w], rel[0] + np.arange(w))

    def test_block_offsets_match_positions(self, name):
        layout = BlockLayout(analyzed(PATTERNS[name]())[0].bp)
        for j in range(layout.n_blocks):
            for i in layout.col_blocks[j].tolist():
                pos, present = layout.positions(j, np.array([layout.starts[i]]))
                assert present[0] and layout.block_offset(i, j) == pos[0]
        stored = {(int(i), j) for j, col in enumerate(layout.col_blocks) for i in col}
        ii, jj = np.divmod(np.arange(layout.n_blocks**2), layout.n_blocks)
        assert np.array_equal(
            layout.has_blocks(ii, jj), [(i, j) in stored for i, j in zip(ii, jj)]
        )

    def test_one_pass_scatter_matches_column_loop(self, name):
        plan, a_work = analyzed(PATTERNS[name]())
        layout = plan.layout
        data = BlockColumnData(a_work, plan.bp, layout=layout)
        for got, want in zip(data.panels, scatter_reference(a_work, layout)):
            assert np.array_equal(got, want)
        owned = set(range(0, layout.n_blocks, 2))
        part = BlockColumnData(a_work, plan.bp, owned, layout=layout)
        for got, want in zip(
            part.panels, scatter_reference(a_work, layout, owned)
        ):
            assert (got is None and want is None) or np.array_equal(got, want)


class TestRelativeIndexErrors:
    def test_unstored_update_is_a_scheduling_error(self):
        data, *_ = make_data()
        k = data.n_blocks - 1
        with pytest.raises(SchedulingError):
            data.layout.relative_rows(k, k)  # no block above its own diagonal
        ii, jj = np.divmod(np.arange(data.n_blocks**2), data.n_blocks)
        absent = np.flatnonzero(~data.layout.has_blocks(ii, jj))
        assert absent.size  # a sparse pattern leaves blocks unstored
        with pytest.raises(PatternError):
            data.layout.block_offset(int(ii[absent[0]]), int(jj[absent[0]]))

    def test_scatter_names_the_first_uncovered_column(self):
        """Entries outside ``Ā`` still raise, like the column loop did."""
        from repro.symbolic.supernodes import BlockPattern

        plan, a_work = analyzed(random_pivot_matrix(30, 4))
        part = plan.bp.partition
        diag_only = BlockPattern(
            partition=part,
            blocks=[np.array([k]) for k in range(part.n_supernodes)],
        )
        layout = BlockLayout(diag_only)
        with pytest.raises(PatternError) as loop_err:
            scatter_reference(a_work, layout)
        with pytest.raises(PatternError) as err:
            BlockColumnData(a_work, diag_only, layout=layout)
        assert f"entries of {loop_err.value} fall outside" in str(err.value)

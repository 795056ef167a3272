"""Maximum transversal / zero-free diagonal tests."""

import hashlib

import numpy as np
import pytest

from repro.sparse.convert import csc_from_dense
from repro.sparse.generators import paper_matrix, random_sparse
from repro.sparse.ops import permute
from repro.sparse.pattern import has_zero_free_diagonal
from repro.ordering.transversal import (
    maximum_transversal,
    zero_free_diagonal_permutation,
)
from repro.util.errors import ShapeError, StructurallySingularError


class TestMaximumTransversal:
    def test_identity_when_diagonal_present(self):
        a = csc_from_dense(np.diag([1.0, 2.0, 3.0]))
        m = maximum_transversal(a)
        assert m.tolist() == [0, 1, 2]

    def test_permutation_matrix(self):
        # A is a cyclic permutation: column j has its only entry at row j+1.
        dense = np.zeros((4, 4))
        for j in range(4):
            dense[(j + 1) % 4, j] = 1.0
        m = maximum_transversal(csc_from_dense(dense))
        assert sorted(m.tolist()) == [0, 1, 2, 3]
        for j in range(4):
            assert m[j] == (j + 1) % 4

    def test_requires_augmenting_paths(self):
        # Cheap assignment grabs row 0 for column 0; column 1 then must
        # augment through column 0's alternative.
        dense = np.array([[1.0, 1.0], [1.0, 0.0]])
        m = maximum_transversal(csc_from_dense(dense))
        assert sorted(m.tolist()) == [0, 1]
        assert m[1] == 0  # column 1's only row

    def test_structurally_singular_reports_minus_one(self):
        dense = np.array([[1.0, 1.0], [0.0, 0.0]])  # row 1 empty
        m = maximum_transversal(csc_from_dense(dense))
        assert (m == -1).sum() == 1

    def test_matching_is_injective(self):
        for seed in range(10):
            a = random_sparse(30, density=0.15, zero_free_diagonal=False, seed=seed)
            m = maximum_transversal(a)
            matched = m[m >= 0]
            assert len(set(matched.tolist())) == matched.size

    def test_matches_scipy_matching_size(self):
        import scipy.sparse as sp
        import scipy.sparse.csgraph as csgraph

        from repro.sparse.convert import csc_to_scipy

        for seed in range(8):
            a = random_sparse(25, density=0.08, zero_free_diagonal=False, seed=seed)
            m = maximum_transversal(a)
            ref = csgraph.maximum_bipartite_matching(
                sp.csr_matrix(csc_to_scipy(a)), perm_type="row"
            )
            assert (m >= 0).sum() == (ref >= 0).sum()


class TestZeroFreeDiagonal:
    def test_permuted_matrix_has_diagonal(self):
        for seed in range(8):
            a = random_sparse(40, density=0.12, zero_free_diagonal=False, seed=seed)
            # Ensure structural nonsingularity by overlaying a permutation.
            rng = np.random.default_rng(seed)
            p = rng.permutation(40)
            from repro.sparse.coo import COOBuilder

            b = COOBuilder(40, 40)
            b.extend(p, np.arange(40), np.ones(40))
            cols = np.repeat(np.arange(40), np.diff(a.indptr))
            b.extend(a.indices.astype(np.int64), cols, a.data)
            a = b.to_csc()
            perm = zero_free_diagonal_permutation(a)
            assert has_zero_free_diagonal(permute(a, row_perm=perm))

    def test_structurally_singular_raises(self):
        dense = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(StructurallySingularError):
            zero_free_diagonal_permutation(csc_from_dense(dense))

    def test_rectangular_raises(self):
        a = csc_from_dense(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            zero_free_diagonal_permutation(a)

    def test_already_zero_free_is_identityish(self):
        a = random_sparse(20, density=0.1, seed=3)
        perm = zero_free_diagonal_permutation(a)
        assert has_zero_free_diagonal(permute(a, row_perm=perm))


# sha256 of ``zero_free_diagonal_permutation`` as int64 bytes on the seven
# analogs at 0.15 and the ``cold_sweep`` classes, taken on the commit before
# the matching ran on plain lists: the speed-up must not move one row. The
# analogs' diagonals are already zero-free, so the cheap pass matches every
# column; the row-shuffled pins (rows permuted by ``default_rng(0)``) run
# the augmenting-path search too.
TRANSVERSAL_DIGESTS = {
    ("sherman3", 0.15): "8f0e8dab85958123a373e07fe513365e2ec3ea4f1a43edf00abb02144a67a88a",
    ("sherman5", 0.15): "5abd87dd8f22d8c636fd07bde2e1de3303027bc4ac6a0e36acd86e3dad68a21c",
    ("lnsp3937", 0.15): "9993988c4737d306c71436ddb4756f8e4c206103a2944a719b8da3dc34666809",
    ("lns3937", 0.15): "9993988c4737d306c71436ddb4756f8e4c206103a2944a719b8da3dc34666809",
    ("orsreg1", 0.15): "8c3c3f48ab74ee2c7b6c505a63319835f9d204d89229cbbe63932810126c4081",
    ("saylr4", 0.15): "5abd87dd8f22d8c636fd07bde2e1de3303027bc4ac6a0e36acd86e3dad68a21c",
    ("goodwin", 0.15): "5d8164077d67be40c616822f2cbf1db20406c8eccfb10006777c73d2e87686e8",
    ("sherman3", 0.30): "d15cd19c4448fc0b70c34f05b36f2811779c0f7a7bbe3afee2e543bc4563ff0c",
    ("lnsp3937", 0.40): "0e62e018db6ddbc3e8a241e6d25a3416b834c382b912a74a288e6cafe564c8b4",
}
SHUFFLED_TRANSVERSAL_DIGESTS = {
    "sherman3": "55db1126e144e9e026f57f27f1ab6e98a116ac71a0d716e5cd7fb6f922d8397c",
    "sherman5": "622076d828725b7cf77dc3d27e32ce7136c5b9083cced37f60f587d99927825a",
    "lnsp3937": "6936220c7cd2d618cc3ed4de733cf87659d423fe91c578151b70106c81465b40",
    "lns3937": "f877892a71e5175b06e2e45187c9973204ee86cdd336b5e54ab34bfc88fe7927",
    "orsreg1": "2737dba8348a086151af095d8f1154818b098cbddf7f23d19f9645ee7279dbba",
    "saylr4": "dcf3aa58c6899810e1f997c3b02245ecc307439c39430fa8c63db68343bc20ef",
    "goodwin": "1066f0b7168541271bf6c15f42c3e7c73d10c4b23502c8ea2fbb1e135afbca5b",
}


@pytest.mark.parametrize("name,scale", sorted(TRANSVERSAL_DIGESTS))
def test_transversal_is_the_pinned_one(name, scale):
    p = zero_free_diagonal_permutation(paper_matrix(name, scale=scale))
    assert p.dtype == np.int64
    assert hashlib.sha256(p.tobytes()).hexdigest() == TRANSVERSAL_DIGESTS[name, scale]


@pytest.mark.parametrize("name", sorted(SHUFFLED_TRANSVERSAL_DIGESTS))
def test_shuffled_transversal_is_the_pinned_one(name):
    a = paper_matrix(name, scale=0.15)
    a = permute(a, row_perm=np.random.default_rng(0).permutation(a.n_rows))
    p = zero_free_diagonal_permutation(a)
    assert has_zero_free_diagonal(permute(a, row_perm=p))
    assert hashlib.sha256(p.tobytes()).hexdigest() == SHUFFLED_TRANSVERSAL_DIGESTS[name]

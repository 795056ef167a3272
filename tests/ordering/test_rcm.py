"""Reverse Cuthill-McKee tests."""

import hashlib

import numpy as np
import pytest

from repro.ordering.rcm import reverse_cuthill_mckee
from repro.sparse.convert import csc_from_dense
from repro.sparse.generators import paper_matrix, random_sparse, reservoir_matrix
from repro.sparse.ops import permute
from repro.util.errors import ShapeError


def bandwidth(a) -> int:
    d = a.to_dense() != 0
    rows, cols = np.nonzero(d)
    return int(np.max(np.abs(rows - cols))) if rows.size else 0


class TestRCM:
    def test_returns_permutation(self):
        a = random_sparse(30, density=0.1, seed=0)
        p = reverse_cuthill_mckee(a)
        assert sorted(p.tolist()) == list(range(30))

    def test_reduces_bandwidth_on_shuffled_grid(self):
        a = reservoir_matrix(6, 6, 2, seed=1)
        rng = np.random.default_rng(1)
        shuffle = rng.permutation(a.n_cols)
        shuffled = permute(a, row_perm=shuffle, col_perm=shuffle)
        p = reverse_cuthill_mckee(shuffled)
        ordered = permute(shuffled, row_perm=p, col_perm=p)
        assert bandwidth(ordered) < bandwidth(shuffled)

    def test_disconnected_components(self):
        dense = np.eye(6)
        dense[0, 1] = dense[1, 0] = 1.0
        dense[4, 5] = dense[5, 4] = 1.0
        p = reverse_cuthill_mckee(csc_from_dense(dense))
        assert sorted(p.tolist()) == list(range(6))

    def test_deterministic(self):
        a = random_sparse(20, density=0.15, seed=2)
        assert np.array_equal(reverse_cuthill_mckee(a), reverse_cuthill_mckee(a))

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            reverse_cuthill_mckee(csc_from_dense(np.ones((2, 3))))


# sha256 of ``reverse_cuthill_mckee`` as int64 bytes on the seven analogs at
# 0.15 and the ``cold_sweep`` classes, taken on the commit before the
# adjacency and the search ran on plain lists. Degree ties keep the
# neighbour sets' iteration order, so these pin the insertion order too.
RCM_DIGESTS = {
    ("sherman3", 0.15): "743c559481950519ccac7af77e1bf48be912ab6b726acc9e391f90dc812cb3db",
    ("sherman5", 0.15): "dd0e6dfc6779f9480647e4b13da7d7ddb12af0fb47521313e557ffad2166e3c8",
    ("lnsp3937", 0.15): "09cfa010a7f726a3b24a46d61b49cf6e7fe941f752e864b841031354c3cc007c",
    ("lns3937", 0.15): "7a1426170ca17347eaa9110cacebb6dc6c0080f0aea35b45547e56d6af534c0c",
    ("orsreg1", 0.15): "4737e16e65273b5e91e6015237cc80e1d0f1c34317329add345aae04c25c8fad",
    ("saylr4", 0.15): "4012a12c28da683618b5648648a0dfef0b8b42597dd208fcedd695090c3ca131",
    ("goodwin", 0.15): "9f41a8a6f734029d9e39db02fc372def54848b55782ce519c8bd5c1a67ff0af3",
    ("sherman3", 0.30): "7533c5090e5928e2ffafff3b666151725b1f4fd256a2278ef3452ba1bd667dee",
    ("lnsp3937", 0.40): "922434ad983660e6f86b196d3560d902f2e8e3a9ac030183532a9515f1161a5d",
}


@pytest.mark.parametrize("name,scale", sorted(RCM_DIGESTS))
def test_permutation_is_the_pinned_one(name, scale):
    p = reverse_cuthill_mckee(paper_matrix(name, scale=scale))
    assert p.dtype == np.int64
    assert hashlib.sha256(p.tobytes()).hexdigest() == RCM_DIGESTS[name, scale]

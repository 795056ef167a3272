"""Approximate minimum degree (AMD) ordering tests."""

import hashlib

import numpy as np
import pytest

from repro.ordering.amd import amd_ata, approximate_minimum_degree
from repro.ordering.mindeg import minimum_degree_ata
from repro.sparse.convert import csc_from_dense
from repro.sparse.generators import paper_matrix, random_sparse, reservoir_matrix
from repro.sparse.ops import permute
from repro.sparse.pattern import ata_pattern
from repro.symbolic.static_fill import static_symbolic_factorization


def is_permutation(p, n):
    return sorted(np.asarray(p).tolist()) == list(range(n))


def fill_under(a, q) -> int:
    return static_symbolic_factorization(permute(a, row_perm=q, col_perm=q)).nnz


class TestApproximateMinimumDegree:
    def test_returns_permutation(self):
        a = random_sparse(30, density=0.15, seed=0)
        p = approximate_minimum_degree(ata_pattern(a))
        assert is_permutation(p, 30)

    def test_path_graph_order(self):
        # Degrees are exact on a path; an endpoint must go first.
        n = 7
        dense = np.eye(n)
        for i in range(n - 1):
            dense[i, i + 1] = dense[i + 1, i] = 1.0
        p = approximate_minimum_degree(csc_from_dense(dense))
        assert is_permutation(p, n)
        first = int(np.argsort(p)[0])
        assert first in (0, n - 1)

    def test_star_graph_center_near_last(self):
        n = 8
        dense = np.eye(n)
        dense[0, 1:] = dense[1:, 0] = 1.0
        p = approximate_minimum_degree(csc_from_dense(dense))
        assert p[0] >= n - 2

    def test_reduces_fill_on_grid(self):
        a = reservoir_matrix(5, 5, 3, seed=1)
        natural = static_symbolic_factorization(a).nnz
        q = amd_ata(a)
        assert fill_under(a, q) < natural

    def test_deterministic(self):
        a = random_sparse(25, density=0.2, seed=2)
        assert np.array_equal(amd_ata(a), amd_ata(a))

    def test_aggressive_flag_still_valid(self):
        a = random_sparse(40, density=0.1, seed=3)
        for aggressive in (True, False):
            p = amd_ata(a, aggressive=aggressive)
            assert is_permutation(p, 40)

    def test_dense_matrix(self):
        p = approximate_minimum_degree(csc_from_dense(np.ones((5, 5))))
        assert is_permutation(p, 5)

    def test_diagonal_matrix_any_order(self):
        p = approximate_minimum_degree(csc_from_dense(np.eye(6)))
        assert is_permutation(p, 6)

    def test_empty_pattern(self):
        p = approximate_minimum_degree(csc_from_dense(np.zeros((0, 0))))
        assert p.size == 0

    def test_rejects_rectangular(self):
        from repro.util.errors import ShapeError

        with pytest.raises(ShapeError):
            approximate_minimum_degree(csc_from_dense(np.ones((2, 3))))

    def test_unsymmetric_input_is_symmetrized(self):
        a = random_sparse(40, density=0.08, seed=4).pattern_only()
        both = csc_from_dense(a.to_dense() + a.to_dense().T)
        assert not np.array_equal(a.to_dense(), a.to_dense().T)
        assert np.array_equal(
            approximate_minimum_degree(a), approximate_minimum_degree(both)
        )


# sha256 of ``amd_ata(paper_matrix(name, scale, seed=seed))`` as int64
# bytes (seed None: the library default), taken on the commit before the
# quotient-graph loop moved to Python-native ints, and for the three
# ``cold_sweep`` classes on the commit before AMD took AᵀA as neighbour sets
# and its pivots from per-degree queues: each rewrite is a speed-up, the
# permutation must not move by one position.
AMD_DIGESTS = {
    ("sherman3", 0.15, None): "89bbec2129ee42350b632a6fed0c827398eec8cf495af8b9953bc7631c7eecbf",
    ("sherman5", 0.15, None): "94ec656222ae1170027ad27cd114510ee4240dac0e3044fc0da34dd647cee6a9",
    ("lnsp3937", 0.15, None): "3dbb884f3cfe997edca48e823c4aee3a32708c6aa3aa3eef72b38a98618d6a30",
    ("lns3937", 0.15, None): "4931493eaf1514e340efab7da0ac2ee7adcdeffb97644ba745fe5efb217af043",
    ("orsreg1", 0.15, None): "65e6b580e03671121f79b46aa56276b48fb372f3f6637ff269bc5d41dba29926",
    ("saylr4", 0.15, None): "5315d69b85102b09f319194e2db0541d507f26558482c970254d3f743ee2d6fc",
    ("goodwin", 0.15, None): "b4dec398a2b5be7ffb6ca0dc0d272307c9e87ef243f56a09b0841c0bf15bc991",
    ("sherman3", 0.5, None): "2122b79cc30868c14832d5795c0fc52d375023e852a9b633b98db69ec79e57cf",
    ("sherman3", 0.30, 0): "360d60fe56e082fd19bde249adab9b576dd559ccecc597ea86c5518d49df0047",
    ("sherman3", 0.30, 1): "947e333e544b31d275c24aec73b5f91c3a2115986240b4b483f1c3f09bfc1a13",
    ("sherman3", 0.30, 2): "99c193a186706f6c7671947df1cac940b8c9c33b7bce2252689a2664834bf6b7",
    ("lnsp3937", 0.40, 0): "48d665076933652152bad6a6614fa8a2ea27ae7d357c33f44cfc8c71fcc83b94",
    ("lnsp3937", 0.40, 1): "2761a7b4f01aedd2b8a86bd9053ddf0a93bb08cb23156b9d38cfb811c3c800d2",
    ("lnsp3937", 0.40, 2): "f8b6702e280d90bbb2527af8973abaef17bbc9afc71e2e27a63334376c862013",
    # The finite-element class has one pattern; the seed moves its values.
    ("goodwin", 0.15, 0): "b4dec398a2b5be7ffb6ca0dc0d272307c9e87ef243f56a09b0841c0bf15bc991",
    ("goodwin", 0.15, 1): "b4dec398a2b5be7ffb6ca0dc0d272307c9e87ef243f56a09b0841c0bf15bc991",
    ("goodwin", 0.15, 2): "b4dec398a2b5be7ffb6ca0dc0d272307c9e87ef243f56a09b0841c0bf15bc991",
}


PINS = sorted(AMD_DIGESTS, key=str)


@pytest.mark.parametrize(
    "name,scale,seed",
    PINS,
    ids=[f"{n}-{s}" if seed is None else f"{n}-{s}-seed{seed}" for n, s, seed in PINS],
)
def test_permutation_is_the_pinned_one(name, scale, seed):
    p = amd_ata(paper_matrix(name, scale=scale, seed=seed))
    assert p.dtype == np.int64
    assert hashlib.sha256(p.tobytes()).hexdigest() == AMD_DIGESTS[name, scale, seed]


ANALOGS = ("sherman3", "sherman5", "lnsp3937", "lns3937", "orsreg1", "saylr4", "goodwin")
# The three pattern classes of the end-to-end ``cold_sweep`` workload, at
# its scales (goodwin's is the analogs' 0.15 already).
COLD_SWEEP_CLASSES = (("sherman3", 0.30), ("lnsp3937", 0.40), ("goodwin", 0.15))


class TestAMDVersusExact:
    """AMD's whole point: exact-mindeg fill quality at lower cost."""

    @staticmethod
    def assert_fill_close(name, scale, slack=1.15):
        a = paper_matrix(name, scale=scale)
        exact = fill_under(a, minimum_degree_ata(a))
        approx = fill_under(a, amd_ata(a))
        assert approx <= exact * slack, (name, scale, approx, exact)

    @pytest.mark.parametrize("name", ["sherman3", "sherman5"])
    def test_fill_within_15_percent_of_exact(self, name):
        self.assert_fill_close(name, 0.35)

    @pytest.mark.parametrize(
        "name,scale", sorted({(name, 0.15) for name in ANALOGS} | set(COLD_SWEEP_CLASSES))
    )
    def test_fill_within_15_percent_on_every_analog(self, name, scale):
        self.assert_fill_close(name, scale)

    def test_fill_close_on_random(self):
        a = random_sparse(120, density=0.05, seed=7)
        exact = fill_under(a, minimum_degree_ata(a))
        approx = fill_under(a, amd_ata(a))
        # Random patterns are harder; allow a looser band but stay sane.
        assert approx <= exact * 1.35

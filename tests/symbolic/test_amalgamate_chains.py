"""Eforest-guided (chain) amalgamation tests."""

import numpy as np
import pytest

from tests.conftest import analyzed, random_pivot_matrix
from repro.symbolic.supernodes import (
    _padding_cost,
    amalgamate,
    amalgamate_chains,
    supernode_partition,
)


def setup(seed=0, n=50):
    plan, _ = analyzed(random_pivot_matrix(n, seed), amalgamation=False)
    raw = supernode_partition(plan.fill)
    return plan.fill, raw, plan.fill.parent


def total_padding(fill, part):
    pad = 0
    for i in range(part.n_supernodes):
        lo, hi = part.span(i)
        _, p = _padding_cost(fill, lo, hi)
        pad += p
    return pad


class TestChainsAmalgamation:
    @pytest.mark.parametrize("seed", range(5))
    def test_never_merges_across_non_edges(self, seed):
        fill, raw, parent = setup(seed)
        merged = amalgamate_chains(fill, raw, max_padding=0.9)
        raw_starts = set(raw.starts.tolist())
        for s in range(merged.n_supernodes):
            lo, hi = merged.span(s)
            # Every internal raw boundary swallowed by the merge must sit on
            # a parent chain: parent(boundary-1) == boundary.
            for b in range(lo + 1, hi):
                if b in raw_starts:
                    assert parent[b - 1] == b, f"merged across non-edge at {b}"

    @pytest.mark.parametrize("seed", range(5))
    def test_at_most_greedy_merging(self, seed):
        fill, raw, parent = setup(seed)
        greedy = amalgamate(fill, raw, max_padding=0.25)
        chains = amalgamate_chains(fill, raw, max_padding=0.25)
        assert chains.n_supernodes >= greedy.n_supernodes
        assert total_padding(fill, chains) <= total_padding(fill, greedy)

    def test_still_reduces_count(self):
        fill, raw, parent = setup(1)
        chains = amalgamate_chains(fill, raw)
        assert chains.n_supernodes <= raw.n_supernodes

    def test_respects_max_size(self):
        fill, raw, parent = setup(2)
        merged = amalgamate_chains(fill, raw, max_padding=0.9, max_size=3)
        raw_starts = set(raw.starts.tolist())
        for s in range(merged.n_supernodes):
            lo, hi = merged.span(s)
            internal = any(b in raw_starts for b in range(lo + 1, hi))
            assert not internal or hi - lo <= 3

    def test_invalid_tolerance(self):
        fill, raw, parent = setup(3)
        with pytest.raises(ValueError):
            amalgamate_chains(fill, raw, max_padding=1.0)

    def test_factorization_works_on_chain_partition(self):
        from repro.numeric.factor import LUFactorization
        from repro.symbolic.supernodes import block_pattern

        fill, raw, parent = setup(4)
        plan, a_work = analyzed(random_pivot_matrix(50, 4), amalgamation=False)
        part = amalgamate_chains(plan.fill, supernode_partition(plan.fill))
        bp = block_pattern(plan.fill, part)
        eng = LUFactorization(a_work, bp)
        eng.factor_sequential()
        res = eng.extract()
        aw = a_work.to_dense()
        pa = aw[res.orig_at, :]
        lu_dense = res.l_factor.to_dense() @ res.u_factor.to_dense()
        assert np.max(np.abs(pa - lu_dense)) / max(1.0, np.abs(aw).max()) < 1e-12

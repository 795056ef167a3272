"""The array-form supernode stage equals the per-column loops it replaced.

``supernode_partition``, ``amalgamate``, ``amalgamate_chains``,
``block_pattern`` and ``SupernodePartition.member_of`` are vectorised; the
loops below are the implementations they replaced, kept here as the
oracle. Equality is exact: same boundaries, same block lists, same dtype.
Patterns: the synthetic cases of ``test_symbolic_impls`` plus the seven
paper analogs as the pipeline hands them to this stage.
"""

import itertools

import numpy as np
import pytest

from repro.serve import build_plan
from repro.sparse.convert import csc_from_dense
from repro.sparse.generators import paper_matrix
from repro.symbolic.static_fill import static_symbolic_factorization
from repro.symbolic.supernodes import (
    SupernodePartition,
    amalgamate,
    amalgamate_chains,
    block_pattern,
    supernode_partition,
)
from repro.util.errors import PatternError
from tests.symbolic.test_symbolic_impls import CASES

ANALOGS = ("sherman3", "sherman5", "lnsp3937", "lns3937", "orsreg1", "saylr4", "goodwin")
PADDINGS = (0.0, 0.25, 0.4)
SIZES = (1, 8, 48)


# ---- the oracle: the per-column loops, as they were -----------------------
def loop_member_of(part):
    out = np.empty(part.n, dtype=np.int64)
    for s in range(part.n_supernodes):
        lo, hi = part.span(s)
        out[lo:hi] = s
    return out


def loop_partition(fill):
    n = fill.n
    if n == 0:
        return [0]
    pattern = fill.pattern
    starts = [0]
    prev = pattern.col_rows(0)
    for j in range(1, n):
        cur = pattern.col_rows(j)
        cur_low = cur[cur >= j]
        prev_low = prev[prev >= j - 1]
        same = (
            prev_low.size == cur_low.size + 1
            and prev_low[0] == j - 1
            and np.array_equal(prev_low[1:], cur_low)
            and cur_low.size > 0
            and cur_low[0] == j
        )
        if not same:
            starts.append(j)
        prev = cur
    starts.append(n)
    return starts


def loop_padding_cost(fill, lo, hi):
    union = set()
    stored = 0
    for j in range(lo, hi):
        col = fill.pattern.col_rows(j)
        low = col[col >= lo]
        stored += int(low.size)
        union.update(int(r) for r in low)
    return stored, len(union) * (hi - lo) - stored


def loop_amalgamate(fill, partition, parent=None, *, max_padding, max_size):
    starts = partition.starts.tolist()
    merged = [starts[0]]
    i = 0
    cur_lo = starts[0]
    while i < len(starts) - 1:
        cur_hi = starts[i + 1]
        j = i + 1
        while j < len(starts) - 1:
            cand_hi = starts[j + 1]
            if cand_hi - cur_lo > max_size:
                break
            if parent is not None and int(parent[cur_hi - 1]) != cur_hi:
                break
            stored, padded = loop_padding_cost(fill, cur_lo, cand_hi)
            total = stored + padded
            if total == 0 or padded / total > max_padding:
                break
            cur_hi = cand_hi
            j += 1
        merged.append(cur_hi)
        cur_lo = cur_hi
        i = j
    return merged


def loop_block_pattern(fill, partition):
    member = loop_member_of(partition)
    blocks = []
    for k in range(partition.n_supernodes):
        lo, hi = partition.span(k)
        hit = set()
        for j in range(lo, hi):
            hit.update(int(b) for b in np.unique(member[fill.pattern.col_rows(j)]))
        blocks.append(sorted(hit))
    return blocks


# ---- patterns --------------------------------------------------------------
# The synthetic cases of the symbolic-kernel equality suite: dense,
# tridiagonal, block-triangular, identity, 1×1 and eleven random patterns.
FILLS = {name: static_symbolic_factorization(a) for name, a in CASES}


@pytest.fixture(scope="module", params=sorted(FILLS) + list(ANALOGS))
def fill(request):
    if request.param in FILLS:
        return FILLS[request.param]
    # The pattern the pipeline hands the supernode stage: ordered, filled,
    # postordered.
    return build_plan(paper_matrix(request.param, scale=0.15)).fill


# ---- equality --------------------------------------------------------------
def test_partition_and_member_of(fill):
    part = supernode_partition(fill)
    assert part.starts.dtype == np.int64
    assert part.starts.tolist() == loop_partition(fill)
    member = part.member_of()
    assert member.dtype == np.int64
    assert np.array_equal(member, loop_member_of(part))


def test_amalgamations_and_block_patterns(fill):
    raw = supernode_partition(fill)
    parent = fill.parent
    for max_padding, max_size in itertools.product(PADDINGS, SIZES):
        knobs = dict(max_padding=max_padding, max_size=max_size)
        merged = amalgamate(fill, raw, **knobs)
        assert merged.starts.tolist() == loop_amalgamate(fill, raw, **knobs), knobs
        chains = amalgamate_chains(fill, raw, **knobs)
        assert chains.starts.tolist() == loop_amalgamate(fill, raw, parent, **knobs), knobs
        bp = block_pattern(fill, merged)
        assert all(b.dtype == np.int64 for b in bp.blocks)
        assert [b.tolist() for b in bp.blocks] == loop_block_pattern(fill, merged), knobs


def test_amalgamating_a_coarse_partition(fill):
    """Not only fundamental supernodes: any partition may be merged further."""
    coarse = amalgamate(fill, supernode_partition(fill), max_padding=0.25, max_size=4)
    knobs = dict(max_padding=0.4, max_size=16)
    assert amalgamate(fill, coarse, **knobs).starts.tolist() == loop_amalgamate(
        fill, coarse, **knobs
    )


def test_empty_pattern():
    fill = static_symbolic_factorization(csc_from_dense(np.zeros((0, 0))))
    part = supernode_partition(fill)
    assert part.starts.tolist() == [0]
    assert part.member_of().size == 0
    assert amalgamate(fill, part).starts.tolist() == [0]
    assert block_pattern(fill, part).blocks == []


@pytest.mark.parametrize("max_padding", [-0.1, 1.0, 1.5])
def test_bad_padding_is_a_value_error(max_padding):
    fill = FILLS["tridiagonal"]
    raw = supernode_partition(fill)
    with pytest.raises(ValueError):
        amalgamate(fill, raw, max_padding=max_padding)
    with pytest.raises(ValueError):
        amalgamate_chains(fill, raw, max_padding=max_padding)


def test_pattern_errors():
    with pytest.raises(PatternError):
        block_pattern(FILLS["dense"], SupernodePartition(starts=np.array([0, 3])))
    with pytest.raises(PatternError):
        SupernodePartition(starts=np.array([0, 2, 2]))

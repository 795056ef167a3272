"""Reverse Cuthill-McKee ordering.

A bandwidth-reducing alternative to minimum degree, used by the ordering
ablation benchmark (``bench_ablation_ordering``) to show how the choice of
step-(1) ordering moves the static fill and the supernode structure.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.sparse.pattern import symmetrized_adjacency
from repro.util.errors import ShapeError


def reverse_cuthill_mckee(a: CSCMatrix) -> np.ndarray:
    """RCM ordering of the symmetrized pattern of ``a``.

    Returns ``perm`` mapping old index to new position. Each connected
    component is seeded from a minimum-degree vertex (a cheap pseudo-
    peripheral choice) and traversed breadth-first with neighbours sorted by
    degree; the final order is reversed. Degree ties keep the iteration
    order of the neighbour sets (Python's sort is stable).
    """
    if not a.is_square:
        raise ShapeError("RCM needs a square matrix")
    n = a.n_cols
    adj = symmetrized_adjacency(a)
    degree = [len(s) for s in adj]
    by_degree = degree.__getitem__
    visited = [False] * n
    order: list[int] = []

    for seed in sorted(range(n), key=by_degree):
        if visited[seed]:
            continue
        visited[seed] = True
        queue = deque([seed])
        while queue:
            v = queue.popleft()
            order.append(v)
            nbrs = [u for u in adj[v] if not visited[u]]
            for u in nbrs:
                visited[u] = True
            nbrs.sort(key=by_degree)
            queue.extend(nbrs)

    order.reverse()
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n)
    return perm

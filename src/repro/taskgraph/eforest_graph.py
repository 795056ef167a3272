"""The paper's eforest-guided task dependence graph (§4, Figure 4(c)).

Theorem 4: when ``i' = parent(i)`` in the LU eforest of ``B̄`` and both
``U(i,k)`` and ``U(i',k)`` exist, ``U(i,k)`` must complete first — the
factorization ``F(i')`` chooses pivots among rows that ``U(i,·)`` updates, so
the update order along an ancestor path is forced. Conversely (Gilbert [8]),
updates sourced in *independent* subtrees reference disjoint rows and carry
no dependence at all.

The resulting graph definition (paper, end of §4):

1. a task ``F(i)`` for every block column;
2. a task ``U(i,k)`` for every stored upper block ``B̄_{i,k}``;
3. ``F(i) → U(i,k)`` whenever ``U(i,k)`` exists;
4. ``U(i,k) → U(i',k)`` when ``i'`` is the next *ancestor* of ``i`` that is
   itself an update source of ``k`` (the paper states this for
   ``i' = parent(i)``; when amalgamation leaves an ancestor without a stored
   block in column ``k`` — a node that does no work on the column — we walk
   past it to the next one, which preserves exactly the orderings Theorem 4
   requires);
5. ``U(i,k) → F(k)`` when the walk reaches ``k`` itself, i.e. ``k`` is an
   ancestor of ``i`` — precisely the updates whose GEMM touches rows at or
   below block row ``k``.

Updates whose source chain leaves the range without meeting ``k`` (sources
rooted in earlier eforest trees) have no successor: their work is confined to
rows above block ``k``'s pivot range, so nothing waits on them — this is
where the graph exposes the extra parallelism over S*.

The ancestor-chain walk of rules 4-5 is the graph's load-bearing invariant:
starting from ``j = parent(i)``, skip every ancestor ``j < k`` that stores
no block in column ``k`` (``k ∉ sources(j)``), and stop at the first that
does — emitting ``U(i,k) → U(j,k)`` — or at ``j = k`` itself — emitting
``U(i,k) → F(k)``. Exactly this walk is re-evaluated lazily (edges never
stored) by :class:`repro.parallel.dynamic.DynamicRuntime.successors`, and a
unit test asserts edge-set equality between the two. The access sanitizer
checks the same relation at run time on a replayed order
(:func:`repro.parallel.dispatch.replay_order`), and the discrete-event
loop in :mod:`repro.parallel.engine` documents the invariants it preserves
when scheduling this graph. See ``docs/task_model.md`` for the worked
Figure-4 example and ``docs/observability.md`` for the ``task_graph`` span
attributes (``n_tasks``/``n_edges``) the builder reports.
"""

from __future__ import annotations

import numpy as np

from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.tasks import factor_task, update_task, _upper_blocks_by_source


def block_eforest(bp: BlockPattern) -> np.ndarray:
    """LU elimination forest of the block matrix ``B̄`` (Definition 1).

    ``parent(i) = min{ r > i : B̄_{i,r} ≠ 0 }`` provided block column ``i``
    has stored blocks below the diagonal; ``-1`` otherwise.
    """
    n = bp.n_blocks
    counts = [b.size for b in bp.blocks]
    rows = np.concatenate([*bp.blocks, np.empty(0, np.int64)]).astype(np.int64)
    cols = np.repeat(np.arange(n, dtype=np.int64), counts)
    first = np.full(n, n, dtype=np.int64)  # min{ r > i : B̄_{i,r} ≠ 0 }
    np.minimum.at(first, rows[rows < cols], cols[rows < cols])
    has_lower = np.zeros(n, dtype=bool)
    has_lower[cols[rows > cols]] = True
    return np.where(has_lower & (first < n), first, -1)


def build_eforest_graph(
    bp: BlockPattern, parent: np.ndarray | None = None
) -> TaskGraph:
    """Build the eforest-guided dependence graph over ``B̄``."""
    if parent is None:
        parent = block_eforest(bp)
    parent = np.asarray(parent, dtype=np.int64)
    g = TaskGraph()
    n = bp.n_blocks
    upper = _upper_blocks_by_source(bp)
    source_sets = [set(js) for js in upper]  # source_sets[i] ∋ k ⇔ U(i,k) exists

    for i in range(n):
        g.add_task(factor_task(i))

    for i in range(n):
        for k in upper[i]:
            u = update_task(i, k)
            g.add_edge(factor_task(i), u)  # rule 3
            # Walk the ancestor chain to the next node doing work on column
            # k (rules 4/5). Nodes past k, or a chain that ends at a root,
            # mean the update gates nothing.
            j = int(parent[i])
            while j != -1 and j < k and k not in source_sets[j]:
                j = int(parent[j])
            if j == k:
                g.add_edge(u, factor_task(k))  # rule 5
            elif j != -1 and j < k:
                g.add_edge(u, update_task(j, k))  # rule 4
    return g

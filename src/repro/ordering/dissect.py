"""Nested-dissection fill-reducing ordering.

The order→analyse pipeline shape of SPRAL (SNIPPETS.md #3) uses a graph
partitioner (METIS) before the symbolic analyse; we cannot link METIS, so
this module provides a self-contained dissection built from BFS level-set
separators:

1. pick a pseudo-peripheral vertex (double-BFS heuristic),
2. take the BFS level structure and cut at the level where roughly half
   of the component's vertices lie below,
3. shrink the cut level with a greedy refinement pass — a separator
   vertex with neighbours on only one side is pushed into that side —
   leaving a (near-)minimal vertex separator,
4. recurse on the two halves, ordering the separator *last*.

Small subgraphs (``leaf_size`` and below) are ordered by the exact
minimum-degree routine, which is what gives the method its fill quality;
dissection supplies the divide-and-conquer top levels that keep the
elimination forest wide (good for the §4 task graph) while minimum degree
cleans up the leaves. Deterministic throughout: BFS visits neighbours in
ascending index, ties pick the smallest vertex.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.sparse.pattern import ata_pattern
from repro.util.errors import DispatchError, ShapeError


def _adjacency(sym_pattern: CSCMatrix) -> list[np.ndarray]:
    """Symmetric adjacency (no self loops), neighbours sorted ascending."""
    n = sym_pattern.n_cols
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for j in range(n):
        for i in sym_pattern.col_rows(j):
            i = int(i)
            if i != j:
                nbrs[j].add(i)
                nbrs[i].add(j)
    return [np.fromiter(sorted(s), dtype=np.int64, count=len(s)) for s in nbrs]


def _bfs_levels(
    adj: list[np.ndarray], inside: np.ndarray, root: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Level structure of the component of ``root`` within ``inside``.

    Returns (level array, -1 outside the reached set; list of level sets).
    """
    level = np.full(len(adj), -1, dtype=np.int64)
    level[root] = 0
    frontier = [root]
    levels = [np.asarray([root], dtype=np.int64)]
    while True:
        nxt: list[int] = []
        for v in frontier:
            for u in adj[v]:
                u = int(u)
                if inside[u] and level[u] < 0:
                    level[u] = level[v] + 1
                    nxt.append(u)
        if not nxt:
            break
        nxt.sort()
        levels.append(np.asarray(nxt, dtype=np.int64))
        frontier = nxt
    return level, levels


def _pseudo_peripheral(adj: list[np.ndarray], inside: np.ndarray, start: int) -> int:
    """Double-BFS: a vertex of (near-)maximal eccentricity in the component."""
    root = start
    _, levels = _bfs_levels(adj, inside, root)
    depth = len(levels)
    for _ in range(4):  # converges in 2-3 sweeps in practice
        candidate = int(levels[-1][0])
        _, lv = _bfs_levels(adj, inside, candidate)
        if len(lv) <= depth:
            break
        root, depth, levels = candidate, len(lv), lv
    return root


def _refine_separator(
    adj: list[np.ndarray],
    side: dict[int, int],
    sep: list[int],
) -> tuple[list[int], list[int], list[int]]:
    """Greedy pass: drop separator vertices touching only one side.

    ``side`` maps component vertices to 0 (A), 1 (B), or 2 (separator).
    Returns the refined (A, B, separator) vertex lists, each sorted.
    """
    changed = True
    while changed:
        changed = False
        for s in sorted(sep):
            if side[s] != 2:
                continue
            touches_a = touches_b = False
            for u in adj[s]:
                t = side.get(int(u))
                if t == 0:
                    touches_a = True
                elif t == 1:
                    touches_b = True
            if not (touches_a and touches_b):
                # Not actually separating: fold into the touched side
                # (or the smaller side when isolated).
                n_a = sum(1 for t in side.values() if t == 0)
                n_b = sum(1 for t in side.values() if t == 1)
                side[s] = 1 if touches_b else 0 if touches_a else (
                    0 if n_a <= n_b else 1
                )
                changed = True
    part_a = sorted(v for v, t in side.items() if t == 0)
    part_b = sorted(v for v, t in side.items() if t == 1)
    new_sep = sorted(v for v, t in side.items() if t == 2)
    return part_a, part_b, new_sep


def nested_dissection(
    sym_pattern: CSCMatrix,
    *,
    leaf_size: int = 64,
    refine: bool = True,
) -> np.ndarray:
    """Order a symmetric pattern by nested dissection.

    Parameters
    ----------
    sym_pattern:
        Pattern of a structurally symmetric matrix (values ignored).
    leaf_size:
        Components at or below this size are ordered by exact minimum
        degree instead of being split further.
    refine:
        Run the greedy separator refinement pass (step 3). Off, the raw
        BFS level is used — more separator vertices, more fill.

    Returns
    -------
    perm:
        Old index → elimination position (separators eliminated last).
    """
    if not sym_pattern.is_square:
        raise ShapeError("nested dissection needs a square (symmetric) pattern")
    if leaf_size < 1:
        raise DispatchError(f"leaf_size must be >= 1, got {leaf_size}")
    n = sym_pattern.n_cols
    perm = np.empty(n, dtype=np.int64)
    if n == 0:
        return perm
    adj = _adjacency(sym_pattern)

    from repro.ordering.mindeg import minimum_degree

    def order_leaf(vertices: list[int]) -> list[int]:
        """Exact minimum degree on the subgraph, as an elimination list."""
        if len(vertices) <= 2:
            return sorted(vertices)
        vs = sorted(vertices)
        local = {v: k for k, v in enumerate(vs)}
        cols: list[list[int]] = [[] for _ in vs]
        for v in vs:
            lv = local[v]
            cols[lv].append(lv)  # keep a diagonal so the pattern is square
            for u in adj[v]:
                u = int(u)
                if u in local and u > v:
                    cols[local[u]].append(local[v])
        indptr = np.zeros(len(vs) + 1, dtype=np.int64)
        for k, c in enumerate(cols):
            indptr[k + 1] = indptr[k] + len(c)
        indices = np.concatenate(
            [np.sort(np.asarray(c, dtype=np.int32)) for c in cols]
        ) if len(vs) else np.zeros(0, dtype=np.int32)
        sub = CSCMatrix(
            n_rows=len(vs), n_cols=len(vs), indptr=indptr,
            indices=indices.astype(np.int32), data=None,
        )
        q = minimum_degree(sub)  # local old index -> position
        out = [0] * len(vs)
        for v in vs:
            out[int(q[local[v]])] = v
        return out

    order: list[int] = []  # elimination order (vertex at each step)

    def components(vertices: list[int]) -> list[list[int]]:
        inside = np.zeros(n, dtype=bool)
        inside[vertices] = True
        seen: set[int] = set()
        comps = []
        for v in sorted(vertices):
            if v in seen:
                continue
            level, levels = _bfs_levels(adj, inside, v)
            comp = sorted(int(u) for lv in levels for u in lv)
            seen.update(comp)
            comps.append(comp)
        return comps

    def dissect(vertices: list[int]) -> None:
        for comp in components(vertices):
            if len(comp) <= leaf_size:
                order.extend(order_leaf(comp))
                continue
            inside = np.zeros(n, dtype=bool)
            inside[comp] = True
            root = _pseudo_peripheral(adj, inside, min(comp))
            level, levels = _bfs_levels(adj, inside, root)
            if len(levels) <= 2:
                # No usable level structure (near-clique): fall back to
                # minimum degree on the whole component.
                order.extend(order_leaf(comp))
                continue
            counts = np.cumsum([len(lv) for lv in levels])
            half = counts[-1] // 2
            cut = int(np.searchsorted(counts, half))
            cut = max(1, min(cut, len(levels) - 2))
            side: dict[int, int] = {}
            for ell, lv in enumerate(levels):
                for u in lv:
                    side[int(u)] = 0 if ell < cut else 2 if ell == cut else 1
            sep = [v for v, t in side.items() if t == 2]
            if refine:
                part_a, part_b, sep = _refine_separator(adj, side, sep)
            else:
                part_a = sorted(v for v, t in side.items() if t == 0)
                part_b = sorted(v for v, t in side.items() if t == 1)
            if not part_a or not part_b:
                # Refinement collapsed one side: no balanced split exists
                # at this level; stop splitting this component.
                order.extend(order_leaf(comp))
                continue
            dissect(part_a)
            dissect(part_b)
            order.extend(order_leaf(sep) if len(sep) > 1 else sep)

    dissect(list(range(n)))
    if len(order) != n:  # pragma: no cover - structural invariant
        raise AssertionError(f"dissection ordered {len(order)} of {n} vertices")
    for pos, v in enumerate(order):
        perm[v] = pos
    return perm


def nested_dissection_ata(
    a: CSCMatrix, *, leaf_size: int = 64, refine: bool = True
) -> np.ndarray:
    """Nested dissection on the pattern of ``AᵀA``.

    Returns a permutation usable as both the column and row permutation
    of ``A`` (applied symmetrically it preserves a zero-free diagonal).
    """
    return nested_dissection(ata_pattern(a), leaf_size=leaf_size, refine=refine)

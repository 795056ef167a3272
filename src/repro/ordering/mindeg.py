"""Minimum-degree fill-reducing ordering.

The paper uses "the minimum degree algorithm on AᵀA" as its step (1). We
implement minimum degree on an explicit symmetric pattern using the
quotient-graph (element) formulation: eliminated vertices become *elements*,
a live vertex's adjacency is its remaining variable neighbours plus the union
of its elements' vertex lists, and absorbed elements are merged so cliques
are never materialized. This is the classical MD skeleton underneath AMD,
without the approximate-degree and supervariable refinements (our problem
sizes do not need them).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.sparse.pattern import ata_adjacency, symmetrized_adjacency
from repro.util.errors import ShapeError


def minimum_degree(sym_pattern: CSCMatrix) -> np.ndarray:
    """Order the vertices of a symmetric pattern by minimum degree.

    Parameters
    ----------
    sym_pattern:
        Pattern of a structurally symmetric matrix (only the pattern is
        read; values are ignored). The diagonal may or may not be stored.

    Returns
    -------
    perm:
        Array mapping *old* index to *new* position, i.e. vertex ``v`` is
        eliminated at step ``perm[v]``. Use it as a column (and, after the
        transversal, row) permutation.
    """
    if not sym_pattern.is_square:
        raise ShapeError("minimum degree needs a square (symmetric) pattern")
    return _eliminate(symmetrized_adjacency(sym_pattern))


def minimum_degree_ata(a: CSCMatrix) -> np.ndarray:
    """Minimum degree on the pattern of ``AᵀA`` (the paper's step (1)).

    Returns a permutation usable as both the column and row permutation of
    ``A`` (applied symmetrically it preserves a zero-free diagonal).
    """
    return _eliminate(ata_adjacency(a))


def _eliminate(adj: list[set[int]]) -> np.ndarray:
    """The elimination loop on symmetric neighbour sets without self loops
    (``adj`` is consumed in place); returns the old-to-new permutation."""
    n = len(adj)
    elements: list[set[int]] = []  # element id -> live vertices it covers
    vertex_elems: list[set[int]] = [set() for _ in range(n)]  # vertex -> element ids
    alive = np.ones(n, dtype=bool)
    perm = np.empty(n, dtype=np.int64)

    def current_neighbors(v: int) -> set[int]:
        nbrs = set(adj[v])
        for e in vertex_elems[v]:
            nbrs |= elements[e]
        nbrs.discard(v)
        return nbrs

    # Lazy-deletion heap of (degree, vertex): an entry is valid only when its
    # degree matches cur_deg (every cur_deg change is accompanied by a push,
    # so a valid entry always exists for each live vertex).
    cur_deg = np.array([len(adj[v]) for v in range(n)], dtype=np.int64)
    heap: list[tuple[int, int]] = [(int(cur_deg[v]), v) for v in range(n)]
    heapq.heapify(heap)

    for step in range(n):
        while True:
            deg, v = heapq.heappop(heap)
            if alive[v] and deg == cur_deg[v]:
                break
        perm[v] = step
        alive[v] = False
        nbrs = current_neighbors(v)

        # v becomes a new element covering its live neighbours; the elements
        # v participated in are absorbed (every vertex they cover is in nbrs,
        # so all references are patched below).
        eid = len(elements)
        elements.append(set(nbrs))
        absorbed = vertex_elems[v]
        new_elem = elements[eid]
        for u in nbrs:
            adj[u].discard(v)
            # Direct edges inside the new element are redundant now.
            adj[u] -= new_elem
            vertex_elems[u] -= absorbed
            vertex_elems[u].add(eid)
        for e in absorbed:
            elements[e] = set()
        adj[v] = set()
        vertex_elems[v] = set()
        for u in nbrs:
            d = len(current_neighbors(u))
            cur_deg[u] = d
            heapq.heappush(heap, (d, u))
    return perm

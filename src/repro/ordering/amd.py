"""Approximate minimum degree (AMD) fill-reducing ordering.

The classical Amestoy-Davis-Duff algorithm on the quotient graph, in the
style recent parallel work revisits (Chang/Buluç/Demmel, PAPERS.md
``2504.17097``): eliminated pivots become *elements*, a live variable's
neighbourhood is its remaining variable adjacency plus the union of its
elements' vertex lists, and three classical refinements keep the cost far
below the exact algorithm in :mod:`repro.ordering.mindeg`:

* **approximate external degree** — instead of recomputing ``|Adj(i)|``
  exactly after every pivot (a set union per neighbour per step), each
  touched variable gets the Amestoy-Davis-Duff upper bound
  ``d̄_i = min(n_live, d̄_i + |Lp \\ i|, |A_i \\ Lp| + |Lp \\ i| + Σ_e |L_e \\ Lp|)``
  where the per-element residuals ``|L_e \\ Lp|`` are shared across all
  neighbours of the pivot (one pass, not one per variable);
* **element absorption** — an element whose vertex list is contained in
  the new pivot element's list carries no extra structure and is deleted;
  the pivot's own elements are always absorbed (their lists are subsets
  of ``Lp ∪ {p}`` by construction), and *aggressive* absorption also
  removes any other element whose residual ``|L_e \\ Lp|`` hits zero;
* **mass elimination and supervariables** — variables in ``Lp`` whose
  entire remaining adjacency is the new element are eliminated together
  with the pivot (they cause no new fill), and variables with identical
  quotient-graph adjacency are merged into weighted supervariables so
  one elimination (and one degree update) stands for the whole group.

Tie-breaking is deterministic: among minimum approximate degree the
lowest-numbered principal variable wins, and supervariable members are
emitted in ascending original index — same inputs, same permutation,
which the recipe autotuner (:mod:`repro.tune`) relies on.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.sparse.pattern import ata_adjacency, symmetrized_adjacency
from repro.util.errors import ShapeError


def approximate_minimum_degree(
    sym_pattern: CSCMatrix, *, aggressive: bool = True
) -> np.ndarray:
    """Order the vertices of a symmetric pattern by approximate min degree.

    Parameters
    ----------
    sym_pattern:
        Pattern of a structurally symmetric matrix (values, if present,
        are ignored; the diagonal may or may not be stored; an unsymmetric
        pattern is symmetrized).
    aggressive:
        Also absorb elements that become subsets of the pivot element
        even when the pivot was not adjacent to them (AMD's "aggressive
        absorption"). Slightly better orderings, never worse asymptotics.

    Returns
    -------
    perm:
        Array mapping *old* index to *new* position: vertex ``v`` is
        eliminated at step ``perm[v]`` (same contract as
        :func:`repro.ordering.mindeg.minimum_degree`).
    """
    if not sym_pattern.is_square:
        raise ShapeError("approximate minimum degree needs a square pattern")
    return _eliminate(symmetrized_adjacency(sym_pattern), aggressive)


def amd_ata(a: CSCMatrix, *, aggressive: bool = True) -> np.ndarray:
    """AMD on the pattern of ``AᵀA`` (drop-in for ``minimum_degree_ata``).

    Returns a permutation usable as both the column and row permutation
    of ``A`` (applied symmetrically it preserves a zero-free diagonal).
    The neighbour sets of :func:`repro.sparse.pattern.ata_adjacency` go
    straight into the elimination loop, with no CSC round trip.
    """
    return _eliminate(ata_adjacency(a), aggressive)


def _eliminate(adj: list[set[int]], aggressive: bool) -> np.ndarray:
    """The AMD elimination loop on neighbour sets (consumed in place).

    ``adj[v]`` holds v's neighbours, without v itself, and must be
    symmetric. Returns the old-to-new permutation.
    """
    n = len(adj)
    if n == 0:
        return np.empty(0, dtype=np.int64)

    # Quotient graph over *principal* variables, all on Python ints and
    # flat per-vertex lists. ``adj[v]`` holds only variable-variable edges
    # not yet covered by an element; ``elems[v]`` the ids of the live
    # elements v is adjacent to; ``elem_verts[e]`` the live principal
    # variables element e covers (None once absorbed). Dead variables and
    # elements leave every live list the moment they die, so no liveness
    # filter is needed when the lists are read; a dead variable's own
    # lists are never read again.
    elems: list[set[int]] = [set() for _ in range(n)]
    elem_verts: list[set[int] | None] = []
    elem_weight: list[int] = []  # total weight of each element's variables
    weight = [1] * n  # columns merged into each supervariable
    wget = weight.__getitem__
    members: list[list[int]] = [[v] for v in range(n)]
    alive = [True] * n
    n_live = n  # total weight of the live principal variables

    # Pivot queues: ``queues[d]`` is a lazy-deletion heap of the vertex
    # ids whose approximate degree was set to d; an entry is valid only
    # while its vertex is alive with cur_deg still d. Every live vertex
    # has a valid entry (a vertex is pushed whenever its degree changes),
    # and no queue below ``min_deg`` holds one: the pointer steps up past
    # empty queues and moves down only when a push lands below it. So
    # the first valid pop is the smallest live (degree, index), and ties
    # break toward the smallest vertex index, deterministically. Degrees
    # stay below n: each is capped by the live weight outside the vertex.
    cur_deg = [len(s) for s in adj]
    queues: list[list[int]] = [[] for _ in range(n)]
    for v, d in enumerate(cur_deg):
        queues[d].append(v)  # ascending ids: already a heap
    min_deg = min(cur_deg)
    heappush, heappop = heapq.heappush, heapq.heappop
    order: list[int] = []  # original columns in elimination order

    while len(order) < n:
        while True:
            queue = queues[min_deg]
            if not queue:
                min_deg += 1
                continue
            p = heappop(queue)
            if alive[p] and cur_deg[p] == min_deg:
                break

        # ---- pivot neighbourhood Lp (principal variables only) --------
        absorbed = elems[p]
        lp = adj[p].union(*[elem_verts[e] for e in absorbed])
        lp.discard(p)

        # ---- eliminate the pivot supervariable ------------------------
        order += sorted(members[p])
        alive[p] = False
        n_live -= weight[p]
        eid = len(elem_verts)
        elem_verts.append(lp)
        # Absorb the pivot's elements: their vertex lists are ⊆ Lp ∪ {p}.
        for e in absorbed:
            elem_verts[e] = None

        # ---- shared per-element residuals |L_e \ Lp| ------------------
        # Weighted column counts, one per element touching Lp: start from
        # the element's weight and take off every member found in Lp.
        lp_weight = sum(map(wget, lp))
        elem_weight.append(lp_weight)
        residual: dict[int, int] = {}
        for i in lp:
            ei = elems[i]
            ei -= absorbed
            w = weight[i]
            for e in ei:
                residual[e] = residual.get(e, elem_weight[e]) - w
        gone = None
        if aggressive:
            # Residual zero: fully contained in the new element, absorb.
            gone = {e for e, r in residual.items() if r == 0}
            for e in gone:
                elem_verts[e] = None
        resget = residual.__getitem__

        # ---- update neighbours: adjacency, mass elim, degrees ---------
        mass: list[int] = []
        for i in lp:
            # Edges inside the element are now covered by it; the edge to
            # the (dead) pivot goes too.
            ai = adj[i]
            ai -= lp
            ai.discard(p)
            ei = elems[i]
            if gone:
                ei -= gone
            if not ai and not ei:
                # Mass elimination: i's remaining neighbourhood is exactly
                # Lp \ {i}; eliminating it right after p adds no fill.
                mass.append(i)
                continue
            w = weight[i]
            d = sum(map(wget, ai)) + sum(map(resget, ei))
            if cur_deg[i] < d:
                d = cur_deg[i]
            d += lp_weight - w
            if n_live - w < d:
                d = n_live - w
            ei.add(eid)
            if d != cur_deg[i]:
                cur_deg[i] = d  # >= 0: all three bounds are
                heappush(queues[d], i)
                if d < min_deg:
                    min_deg = d

        # The element shrinks; degrees of the remaining members are upper
        # bounds still (they only got smaller), which AMD allows.
        for i in sorted(mass):
            order += sorted(members[i])
            alive[i] = False
            n_live -= weight[i]
            elem_weight[eid] -= weight[i]
            lp.discard(i)

        # ---- supervariable detection (indistinguishable variables) ----
        buckets: dict[tuple, int] = {}
        for i in sorted(lp):
            rep = buckets.setdefault((frozenset(adj[i]), frozenset(elems[i])), i)
            if rep == i:
                continue
            # Merge i into the lower-numbered representative.
            w = weight[i]
            weight[rep] += w
            members[rep] += members[i]
            alive[i] = False
            for u in adj[i]:
                adj[u].discard(i)
            for e in elems[i]:
                elem_verts[e].discard(i)
            # rep's approximate degree loses i's weight (i is no longer
            # an external neighbour — it *is* rep now).
            d = max(cur_deg[rep] - w, 0)
            if d != cur_deg[rep]:
                cur_deg[rep] = d
                heappush(queues[d], rep)
                if d < min_deg:
                    min_deg = d

    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n, dtype=np.int64)
    return perm

"""Race, liveness, and minimality checking over task graphs.

The core judgement: two tasks whose footprints conflict (one writes a
(region, row) the other reads or writes) must be *ordered* — one reachable
from the other in the dependence DAG. Reachability is computed once as
bitset closures over a topological order (the
:meth:`repro.taskgraph.dag.TaskGraph.count_concurrent_pairs` idiom:
Python ints as bit vectors, one reverse sweep), so each pair test is two
shifts. Every unordered conflicting pair is a reported race carrying the
two tasks, the overlapping region/rows, and the missing ordering edge —
adding that single edge (in canonical sequential-order direction) is the
shortest path that would serialize the pair, hence ``path_length_needed``
is always 1 in the reports.

Liveness (:func:`check_liveness`) guards executors against a bad graph:
a cycle strands its member tasks with nonzero in-degree forever (the
worker pool joins with ``done < total``), and a task set that does not
match the expected factorization/solve task set either deadlocks
(missing prerequisite producers) or corrupts state (unknown tasks).

Minimality (:func:`minimality_report`) mechanizes Theorem 4's "the
eforest graph strictly refines S*": every S* edge must be *kept* (an
eforest path orders the same pair) or *covered* (the pair's footprints do
not conflict — a false dependence whose removal is the theorem's entire
point). Transitively redundant edges are counted as statistics, not
findings: the solve graph legitimately contains shortcut edges
(``FS(i) → FS(k)`` alongside ``FS(i) → FS(m) → FS(k)``), and redundancy
costs scheduling freedom, not correctness.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from repro.analysis.footprints import TaskFootprint, region_label
from repro.analysis.report import Finding
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.tasks import Task
from repro.util.errors import SchedulingError


class Reachability:
    """Pairwise DAG reachability as per-task bitsets.

    ``ordered(a, b)`` answers "is there a path a→b or b→a" in O(1) after
    an O(V·E / 64) closure sweep.
    """

    def __init__(self, graph: TaskGraph) -> None:
        order = graph.topological_order()
        index = {t: i for i, t in enumerate(order)}
        reach = [0] * len(order)
        for i in range(len(order) - 1, -1, -1):
            bits = 1 << i
            for s in graph.successors(order[i]):
                bits |= reach[index[s]]
            reach[i] = bits
        self._index = index
        self._reach = reach

    def ordered(self, a: Task, b: Task) -> bool:
        ia, ib = self._index[a], self._index[b]
        return bool((self._reach[ia] >> ib) & 1 or (self._reach[ib] >> ia) & 1)

    def __contains__(self, task: Task) -> bool:
        return task in self._index


def _overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique int arrays, with a range prefilter."""
    if not a.size or not b.size or a[-1] < b[0] or b[-1] < a[0]:
        return a[:0]
    return np.intersect1d(a, b, assume_unique=True)


def _conflict_rows(
    fa: TaskFootprint, fb: TaskFootprint, region: int
) -> np.ndarray:
    """Rows of ``region`` where (a, b) conflict (W/W or R/W either way)."""
    rows = _overlap(fa.written(region), fb.accessed(region))
    if rows.size:
        return rows
    return _overlap(fa.accessed(region), fb.written(region))


def _seq_key(t: Task) -> tuple[int, int, int, int]:
    """Sort key reproducing the sequential execution order (F(k) before its
    updates, all forward-solve tasks before backward ones), used to orient
    the suggested fix edge of a race. Either direction is acyclic for an
    unordered pair; this one matches how the reference executor runs."""
    phase = 1 if t.kind == "BS" else 0
    return (phase, t.k, 0 if t.kind != "U" else 1, t.j)


def _rows_summary(rows: np.ndarray, limit: int = 6) -> str:
    shown = ", ".join(str(int(r)) for r in rows[:limit])
    if rows.size > limit:
        shown += f", … ({rows.size} rows)"
    return "{" + shown + "}"


def check_races(
    graph: TaskGraph,
    footprints: Mapping[Task, TaskFootprint],
    *,
    label: Callable[[int], str] = region_label,
    max_findings: int = 50,
) -> tuple[list[Finding], dict[str, int]]:
    """Report every footprint-conflicting task pair not ordered by ``graph``.

    Tasks in ``footprints`` but absent from the graph are reported by
    :func:`check_liveness`, not here; tasks in the graph without footprints
    contribute nothing. Returns ``(findings, stats)`` where stats count the
    conflicting pairs examined and how many were ordered.
    """
    reach = Reachability(graph)
    # Region -> accessor list; each accessor caches its written/accessed rows.
    by_region: dict[int, list[tuple[Task, TaskFootprint]]] = {}
    for task, fp in footprints.items():
        if task not in reach:
            continue
        for region in fp.regions():
            by_region.setdefault(region, []).append((task, fp))

    findings: list[Finding] = []
    seen_pairs: set[tuple[Task, Task]] = set()
    n_conflicts = 0
    truncated = 0
    for region, accessors in by_region.items():
        m = len(accessors)
        if m < 2:
            continue
        # Range prefilter arrays: pairs whose accessed-row ranges are
        # disjoint cannot conflict, and the vectorized mask skips them
        # without touching the row arrays.
        mins = np.empty(m, dtype=np.int64)
        maxs = np.empty(m, dtype=np.int64)
        for i, (_, fp) in enumerate(accessors):
            acc = fp.accessed(region)
            mins[i] = acc[0] if acc.size else np.iinfo(np.int64).max
            maxs[i] = acc[-1] if acc.size else np.iinfo(np.int64).min
        for i in range(m - 1):
            ta, fa = accessors[i]
            cand = np.nonzero(
                (mins[i + 1 :] <= maxs[i]) & (maxs[i + 1 :] >= mins[i])
            )[0]
            for off in cand:
                tb, fb = accessors[i + 1 + int(off)]
                rows = _conflict_rows(fa, fb, region)
                if not rows.size:
                    continue
                n_conflicts += 1
                if reach.ordered(ta, tb):
                    continue
                pair = (ta, tb) if _seq_key(ta) <= _seq_key(tb) else (tb, ta)
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                if len(findings) >= max_findings:
                    truncated += 1
                    continue
                first, second = pair  # sequential execution order
                findings.append(
                    Finding(
                        check="race.unordered_pair",
                        message=(
                            f"{first} and {second} conflict on "
                            f"{label(region)} but neither reaches the other"
                        ),
                        tasks=(str(first), str(second)),
                        region=f"{label(region)}, rows {_rows_summary(rows)}",
                        detail={
                            "suggested_edge": f"{first} -> {second}",
                            "path_length_needed": 1,
                            "n_overlap_rows": int(rows.size),
                        },
                    )
                )
    stats = {
        "n_conflicting_pairs": n_conflicts,
        "n_unordered_pairs": len(seen_pairs),
        "n_race_findings_truncated": truncated,
    }
    return findings, stats


def _cycle_members(graph: TaskGraph) -> list[Task]:
    """Tasks left with nonzero in-degree after Kahn peeling — the cycle set."""
    indeg = {t: graph.in_degree(t) for t in graph.tasks()}
    ready = [t for t, d in indeg.items() if d == 0]
    while ready:
        t = ready.pop()
        for s in graph.successors(t):
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    return sorted(t for t, d in indeg.items() if d > 0)


def check_liveness(
    graph: TaskGraph, expected: Optional[Iterable[Task]] = None
) -> list[Finding]:
    """Detect conditions under which an executor could never finish.

    A cycle (tasks waiting on each other) is the deadlock proper; a task
    set differing from ``expected`` (the enumerated factorization or solve
    tasks) means an executor would either wait for work that never exists
    or run work nothing depends on correctly.
    """
    findings: list[Finding] = []
    try:
        graph.validate()
    except SchedulingError:
        cyc = _cycle_members(graph)
        findings.append(
            Finding(
                check="liveness.cycle",
                message=(
                    f"{len(cyc)} task(s) form or depend on a dependence "
                    "cycle and can never become ready"
                ),
                tasks=tuple(str(t) for t in cyc[:8]),
                detail={"n_cycle_tasks": len(cyc)},
            )
        )
    if expected is not None:
        have = set(graph.tasks())
        want = set(expected)
        for t in sorted(want - have):
            findings.append(
                Finding(
                    check="liveness.missing_task",
                    message=f"expected task {t} is absent from the graph",
                    tasks=(str(t),),
                )
            )
        for t in sorted(have - want):
            findings.append(
                Finding(
                    check="liveness.unknown_task",
                    message=f"graph contains unexpected task {t}",
                    tasks=(str(t),),
                )
            )
    return findings


def minimality_report(
    sstar: TaskGraph,
    eforest: TaskGraph,
    footprints: Mapping[Task, TaskFootprint],
) -> tuple[list[Finding], dict[str, int]]:
    """Executable form of Theorem 4's "strictly refines S*" claim.

    For every S* edge ``(a, b)``: *kept* when the eforest graph orders the
    pair (some path ``a → b`` — refinement never reverses the sequential
    order), *covered* when the pair's footprints do not conflict (a false
    dependence the eforest construction is entitled to drop). An S* edge
    that is neither is a conflicting pair the eforest graph fails to
    order — a finding (and necessarily also a race reported by
    :func:`check_races` on the eforest graph).

    Stats additionally quantify redundancy: edges of each graph that a
    transitive reduction removes.
    """
    reach = Reachability(eforest)
    findings: list[Finding] = []
    n_kept = 0
    n_false = 0
    for a in sstar.tasks():
        for b in sstar.successors(a):
            if a in reach and b in reach and reach.ordered(a, b):
                n_kept += 1
                continue
            fa = footprints.get(a)
            fb = footprints.get(b)
            rows_found = False
            if fa is not None and fb is not None:
                for region in fa.regions() & fb.regions():
                    rows = _conflict_rows(fa, fb, region)
                    if rows.size:
                        rows_found = True
                        findings.append(
                            Finding(
                                check="minimality.sstar_conflict_unordered",
                                message=(
                                    f"S* edge {a} -> {b} carries a conflict "
                                    f"on {region_label(region)} that the "
                                    "eforest graph leaves unordered"
                                ),
                                tasks=(str(a), str(b)),
                                region=(
                                    f"{region_label(region)}, rows "
                                    f"{_rows_summary(rows)}"
                                ),
                            )
                        )
                        break
            if not rows_found:
                n_false += 1
    stats = {
        "n_sstar_edges": sstar.n_edges,
        "n_sstar_edges_kept": n_kept,
        "n_sstar_edges_false_dependence": n_false,
        "n_eforest_edges": eforest.n_edges,
        "n_eforest_redundant_edges": (
            eforest.n_edges - eforest.transitive_reduction().n_edges
        ),
        "n_sstar_redundant_edges": (
            sstar.n_edges - sstar.transitive_reduction().n_edges
        ),
    }
    return findings, stats

"""Static read/write footprints of factorization and solve tasks.

Every task of the 1-D block task model touches a set of *(region, scalar
rows)* pairs; a region is a dense block-column panel (region id = block
column), the shared pivot bookkeeping array ``orig_at``
(:data:`ORIG_AT_REGION`), or — for the solve phase — one RHS block row.
The race checker (:mod:`repro.analysis.races`) declares two tasks
conflicting when one writes a (region, row) the other reads or writes;
:func:`repro.analysis.races.check_races` then demands DAG ordering for
every such pair.

Soundness
---------
The footprints are *static overapproximations* of the accesses
:class:`repro.numeric.factor.LUFactorization` actually performs, for any
pivot sequence. The engine's dynamic behaviour is value-dependent (pivot
renames, the LazyS+ zero-block skip, the GEMM ``active``-row filter), so
the model leans on the George-Ng containment property: the static fill
``Ā`` contains the nonzeros of ``PA = LU`` for every partial-pivoting
``P``, and structural zeros are *exact* floating-point zeros (they are
never produced by cancellation — every contributing term is zero). Hence
at any point of any execution, a nonzero value in panel ``k`` sits in a
row with a stored ``Ā`` entry in one of supernode ``k``'s columns. The
task footprints follow:

``F(k)``
    Reads and writes the whole candidate sub-panel (stored rows
    ``≥ starts[k]`` of panel ``k`` — the pivot search scans padded rows
    too). Reads/writes ``orig_at`` at the *fill-supported* rows of
    supernode ``k``: pivot renames only ever move value-nonzero rows, and
    value-nonzero ⊆ fill-supported.
``U(k, j)``
    Reads the whole sub-panel of ``k`` (multipliers, including padding).
    In panel ``j`` it reads and writes the fill-supported rows of
    supernode ``k`` that panel ``j`` stores: the TRSM writes all of block
    ``(k, j)`` (supernode ``k``'s row range is fill-supported — diagonals
    are always stored in ``Ā``), the GEMM writes the ``active`` subset of
    the below-diagonal stored rows (value-nonzero ⊆ fill-supported; the
    engine skips padded rows precisely so independent-subtree updates
    never touch each other's rows), and the rename scatter moves
    value-nonzero rows only.
step ``k``
    The unit every engine runs: ``F(k)`` then every ``U(k, j)``, so its
    footprint is the union of theirs (:func:`step_footprints`). Steps are
    ordered by the block eforest alone (step ``k`` follows its children),
    which :func:`repro.analysis.runner.analyze_plan` race-checks.
``FS(k)`` / ``BS(k)``
    RHS block-row granularity: ``FS(k)`` writes ``y_k`` and reads ``y_i``
    for every stored lower block ``B̄(k, i)``; ``BS(k)`` overwrites the
    same storage with ``x_k`` (the anti-dependence) and reads ``x_j`` for
    every stored upper block ``B̄(k, j)``.

Tightness matters as much as soundness: modelling the GEMM write set as
*all* stored below-diagonal rows (padding included) would flag
write/write conflicts between independent-subtree updates that the
engine's active-row filter provably avoids — spurious races on every
amalgamated matrix. Fill-supported rows are exactly the set the paper's
Theorem 4 ancestor chains serialize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Mapping

import numpy as np
import numpy.typing as npt

from repro.symbolic.static_fill import StaticFill
from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.tasks import Task, _upper_blocks_by_source, enumerate_tasks
from repro.taskgraph.solve_graph import backward_task, forward_task

IntArray = npt.NDArray[np.int64]

#: Region id of the shared ``orig_at`` pivot bookkeeping array (block-column
#: panels use their own non-negative block index as region id).
ORIG_AT_REGION = -1

_EMPTY: IntArray = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)


@dataclass(frozen=True)
class TaskFootprint:
    """Sorted, unique scalar-row sets per region, split into reads/writes.

    ``writes[r]`` ⊆ ``reads[r] ∪ writes[r]`` is not required — the race
    checker treats a row as *accessed* when it appears in either map and
    as *written* when it appears in ``writes``.
    """

    reads: Dict[int, IntArray] = field(default_factory=dict)
    writes: Dict[int, IntArray] = field(default_factory=dict)
    # Memoized read∪write per region: the race checker queries each
    # (task, region) access set once per conflicting pair, and the union
    # is the inner-loop cost on paper-scale matrices.
    _accessed: Dict[int, IntArray] = field(
        default_factory=dict, compare=False, repr=False
    )

    def regions(self) -> set[int]:
        return set(self.reads) | set(self.writes)

    def written(self, region: int) -> IntArray:
        return self.writes.get(region, _EMPTY)

    def accessed(self, region: int) -> IntArray:
        hit = self._accessed.get(region)
        if hit is not None:
            return hit
        r = self.reads.get(region, _EMPTY)
        w = self.writes.get(region, _EMPTY)
        if not r.size:
            out = w
        elif not w.size:
            out = r
        else:
            out = np.union1d(r, w)
        self._accessed[region] = out
        return out


def region_label(region: int) -> str:
    """Display name of a factorization region id."""
    return "orig_at" if region == ORIG_AT_REGION else f"panel {region}"


def solve_region_label(region: int) -> str:
    """Display name of a solve-phase region id (RHS block rows)."""
    return f"rhs block {region}"


def _frozen(arr: np.ndarray) -> IntArray:
    out = np.asarray(arr, dtype=np.int64)
    out.setflags(write=False)
    return out


def stored_rows(bp: BlockPattern, j: int) -> IntArray:
    """Global row ids stored by panel ``j``, ascending (padding included)."""
    starts = bp.partition.starts
    blocks = bp.col_blocks(j)
    if not blocks.size:
        return _EMPTY
    return np.concatenate(
        [np.arange(starts[b], starts[b + 1], dtype=np.int64) for b in blocks]
    )


def candidate_rows(bp: BlockPattern, k: int) -> IntArray:
    """Rows of the candidate sub-panel of ``k`` (stored rows ``≥ starts[k]``),
    the region ``F(k)`` pivots over — :meth:`BlockLayout.sub_rows` without
    the layout object."""
    rows = stored_rows(bp, k)
    return rows[rows >= bp.partition.starts[k]]


def supported_rows(bp: BlockPattern, fill: StaticFill) -> list[IntArray]:
    """Fill-supported rows per block column: sorted unique rows ``r ≥
    starts[k]`` with a stored ``Ā`` entry in one of supernode ``k``'s
    columns. Always contains the full diagonal range (diagonals are stored),
    so this is also the TRSM write extent."""
    starts = bp.partition.starts
    out: list[IntArray] = []
    for k in range(bp.n_blocks):
        lo, hi = int(starts[k]), int(starts[k + 1])
        cols = [fill.pattern.col_rows(c) for c in range(lo, hi)]
        rows = np.unique(np.concatenate(cols)) if cols else _EMPTY
        out.append(_frozen(rows[rows >= lo]))
    return out


def factor_footprints(
    bp: BlockPattern, fill: StaticFill
) -> dict[Task, TaskFootprint]:
    """Footprints of every ``F``/``U`` task of ``bp`` (see module docstring)."""
    if fill.n != bp.partition.n:
        raise ValueError(
            f"fill covers {fill.n} columns, partition covers {bp.partition.n}"
        )
    support = supported_rows(bp, fill)
    stored = [stored_rows(bp, j) for j in range(bp.n_blocks)]
    candidates = {
        k: _frozen(stored[k][stored[k] >= bp.partition.starts[k]])
        for k in range(bp.n_blocks)
    }
    out: dict[Task, TaskFootprint] = {}
    upper = _upper_blocks_by_source(bp)
    for k in range(bp.n_blocks):
        sub = candidates[k]
        out[Task("F", k, k)] = TaskFootprint(
            reads={k: sub, ORIG_AT_REGION: support[k]},
            writes={k: sub, ORIG_AT_REGION: support[k]},
        )
        for j in upper[k]:
            touched = _frozen(
                np.intersect1d(support[k], stored[j], assume_unique=True)
            )
            out[Task("U", k, j)] = TaskFootprint(
                reads={k: sub, j: touched},
                writes={j: touched},
            )
    return out


def step_footprints(
    bp: BlockPattern, task_footprints: Mapping[Hashable, TaskFootprint]
) -> dict[int, TaskFootprint]:
    """Footprint of block step ``k`` (keyed ``k``): the union of ``F(k)``'s
    and every ``U(k, j)``'s in ``task_footprints`` — :func:`factor_footprints`,
    or the sanitizer's, which add the step's own pivot slot."""
    upper = _upper_blocks_by_source(bp)
    out: dict[int, TaskFootprint] = {}
    for k in range(bp.n_blocks):
        parts = [task_footprints[Task("F", k, k)]]
        parts += [task_footprints[Task("U", k, j)] for j in upper[k]]
        out[k] = TaskFootprint(
            reads=_union(fp.reads for fp in parts),
            writes=_union(fp.writes for fp in parts),
        )
    return out


def _union(maps: "Iterable[Dict[int, IntArray]]") -> Dict[int, IntArray]:
    by_region: Dict[int, list[IntArray]] = {}
    for m in maps:
        for region, rows in m.items():
            by_region.setdefault(region, []).append(rows)
    return {
        region: rows[0] if len(rows) == 1 else _frozen(np.unique(np.concatenate(rows)))
        for region, rows in by_region.items()
    }


def unit_name(unit: Hashable) -> str:
    """Display name of an execution unit: a task, or block step ``k``."""
    return f"step({unit})" if isinstance(unit, int) else str(unit)


def two_d_footprints(bp: BlockPattern, fill: StaticFill) -> dict:
    """Footprints of every 2-D ``F``/``SL``/``SU``/``UP`` task of ``bp``.

    The 2-D refinement (:func:`repro.parallel.two_d.build_2d_graph`) splits
    each 1-D update ``U(k, j)`` into ``SU(k, j)`` (renames + TRSM) plus one
    ``UP(k, i, j)`` GEMM per stored lower block row, and adds the read-only
    ``SL(k, i)`` mask tasks. Region ids are unchanged (block-column panels
    plus :data:`ORIG_AT_REGION`); the per-block sets refine the 1-D ones:

    ``F(k)``
        Identical to the 1-D footprint — the panel pivot is not split.
    ``SL(k, i)``
        Reads block ``i``'s rows of panel ``k`` (the multiplier block whose
        active-row mask it publishes). No shared writes: the memoized mask
        is engine-private and recomputed locally by remote ranks.
    ``SU(k, j)``
        Reads panel ``k``'s diagonal block (the TRSM triangle); reads and
        writes the same fill-supported rows of panel ``j`` as the 1-D
        ``U(k, j)`` — the rename scatter may move any value-nonzero row of
        the column, which is why the 2-D graph serializes a column's steps
        through its ``SU`` tasks.
    ``UP(k, i, j)``
        Reads block ``i``'s rows of panel ``k`` (multipliers) and block
        ``k``'s rows of panel ``j`` (the ``U`` block the TRSM produced);
        writes the fill-supported rows of block ``i`` in panel ``j``.
        Write sets of one step's UPs land in distinct block rows — the
        disjointness the 2-D mapping exploits.
    """
    from repro.parallel.two_d import Task2D  # lazy: parallel imports analysis

    if fill.n != bp.partition.n:
        raise ValueError(
            f"fill covers {fill.n} columns, partition covers {bp.partition.n}"
        )
    n = bp.n_blocks
    starts = bp.partition.starts
    support = supported_rows(bp, fill)
    stored = [stored_rows(bp, j) for j in range(n)]
    stored_sets = [set(int(b) for b in bp.col_blocks(j)) for j in range(n)]
    upper = _upper_blocks_by_source(bp)

    def block_range(i: int) -> IntArray:
        return np.arange(starts[i], starts[i + 1], dtype=np.int64)

    out: dict = {}
    for k in range(n):
        sub = _frozen(stored[k][stored[k] >= starts[k]])
        out[Task2D("F", k, k, k)] = TaskFootprint(
            reads={k: sub, ORIG_AT_REGION: support[k]},
            writes={k: sub, ORIG_AT_REGION: support[k]},
        )
        col = bp.col_blocks(k)
        lower_blocks = [int(i) for i in col[col > k]]
        diag = _frozen(block_range(k))
        for i in lower_blocks:
            out[Task2D("SL", k, i, k)] = TaskFootprint(
                reads={k: _frozen(block_range(i))}
            )
        for j in upper[k]:
            j = int(j)
            touched = _frozen(
                np.intersect1d(support[k], stored[j], assume_unique=True)
            )
            out[Task2D("SU", k, k, j)] = TaskFootprint(
                reads={k: diag, j: touched},
                writes={j: touched},
            )
            for i in lower_blocks:
                if i not in stored_sets[j]:
                    continue
                bi = block_range(i)
                out[Task2D("UP", k, i, j)] = TaskFootprint(
                    reads={k: _frozen(bi), j: diag},
                    writes={
                        j: _frozen(
                            np.intersect1d(support[k], bi, assume_unique=True)
                        )
                    },
                )
    return out


def solve_footprints(bp: BlockPattern) -> dict[Task, TaskFootprint]:
    """Footprints of every ``FS``/``BS`` task over RHS block-row regions.

    Region ``i`` is the block-row slice of the right-hand-side storage that
    holds ``b_i`` → ``y_i`` → ``x_i`` in turn; rows are block ids (one
    element per region) since solve tasks own whole block rows.
    """
    n = bp.n_blocks
    upper = _upper_blocks_by_source(bp)
    lower: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        col = bp.col_blocks(i)
        for k in col[col > i]:
            lower[int(k)].append(i)
    own = [_frozen(np.array([i], dtype=np.int64)) for i in range(n)]
    out: dict[Task, TaskFootprint] = {}
    for k in range(n):
        out[forward_task(k)] = TaskFootprint(
            reads={i: own[i] for i in lower[k]} | {k: own[k]},
            writes={k: own[k]},
        )
        out[backward_task(k)] = TaskFootprint(
            reads={int(j): own[int(j)] for j in upper[k]} | {k: own[k]},
            writes={k: own[k]},
        )
    return out


def footprint_stats(footprints: dict[Task, TaskFootprint]) -> dict[str, int]:
    """Informational sizes for analysis reports."""
    n_regions = len({r for fp in footprints.values() for r in fp.regions()})
    n_rows = sum(
        int(fp.accessed(r).size)
        for fp in footprints.values()
        for r in fp.regions()
    )
    return {
        "n_tasks_with_footprints": len(footprints),
        "n_regions": n_regions,
        "n_footprint_rows": n_rows,
    }


def expected_factor_tasks(bp: BlockPattern) -> set[Task]:
    """The complete task set of one factorization of ``bp``."""
    return set(enumerate_tasks(bp))


def expected_2d_tasks(bp: BlockPattern) -> set:
    """The complete 2-D task set of one factorization of ``bp`` (what the
    liveness gates compare a 2-D graph against)."""
    from repro.parallel.two_d import build_2d_graph  # lazy: import cycle

    return set(build_2d_graph(bp).tasks())


def expected_solve_tasks(n_blocks: int) -> set[Task]:
    """The complete task set of one forward+backward solve."""
    out: set[Task] = set()
    for k in range(n_blocks):
        out.add(forward_task(k))
        out.add(backward_task(k))
    return out

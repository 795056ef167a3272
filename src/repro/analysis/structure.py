"""Structural invariant linter for symbolic artifacts.

One checker per invariant, each returning a list of
:class:`~repro.analysis.report.Finding` (empty = clean) instead of
raising, so a single run can report everything wrong with a structure and
``repro.verify``'s selfcheck can reuse the same code as its source of
truth. The invariants mirror the paper's definitions:

* CSC patterns: monotone ``indptr``, strictly increasing in-range row
  indices per column (sorted + unique).
* Elimination forests: ``parent(j) > j`` or ``-1`` (Definition 1 makes
  the parent the first *later* column of row ``j`` of ``Ū``).
  The forest a fill carries (the merge emitted it) must equal the one
  Definition 1 derives from the fill's pattern.
* Postorder: every subtree occupies a contiguous label interval ending at
  its root (§3 — what makes supernodes mergeable and the BTF blocks
  contiguous).
* Supernode partitions: consecutive, non-empty, covering ``0..n``.
* BTF: no stored entry below the block diagonal of the tree-induced
  block upper triangular form (Theorem 3's corollary).
* :class:`~repro.serve.plan.SymbolicPlan`: permutation round-trips,
  frozen pattern consistency, layout and task-graph sizes agreeing with
  the block pattern.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.analysis.report import Finding
from repro.sparse.csc import CSCMatrix
from repro.symbolic.supernodes import SupernodePartition
from repro.taskgraph.tasks import enumerate_tasks

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids an import cycle
    from repro.serve.plan import SymbolicPlan


def check_csc(pattern: CSCMatrix, *, name: str = "pattern") -> list[Finding]:
    """Sorted/unique/in-range column structure of a CSC pattern."""
    findings: list[Finding] = []
    indptr = np.asarray(pattern.indptr)
    indices = np.asarray(pattern.indices)
    if indptr.size != pattern.n_cols + 1 or indptr[0] != 0:
        findings.append(
            Finding(
                check="csc.indptr_shape",
                message=f"{name}: indptr must have n_cols+1 entries starting at 0",
                detail={"indptr_size": int(indptr.size), "n_cols": pattern.n_cols},
            )
        )
        return findings
    if np.any(np.diff(indptr) < 0) or indptr[-1] != indices.size:
        findings.append(
            Finding(
                check="csc.indptr_monotone",
                message=f"{name}: indptr must be non-decreasing and end at nnz",
                detail={"last": int(indptr[-1]), "nnz": int(indices.size)},
            )
        )
        return findings
    if indices.size and (indices.min() < 0 or indices.max() >= pattern.n_rows):
        findings.append(
            Finding(
                check="csc.rows_in_range",
                message=f"{name}: row indices fall outside [0, {pattern.n_rows})",
                detail={
                    "min_row": int(indices.min()),
                    "max_row": int(indices.max()),
                },
            )
        )
    bad_cols = [
        j
        for j in range(pattern.n_cols)
        if np.any(np.diff(indices[indptr[j] : indptr[j + 1]]) <= 0)
    ]
    for j in bad_cols[:10]:
        findings.append(
            Finding(
                check="csc.column_sorted_unique",
                message=(
                    f"{name}: column {j} has unsorted or duplicate row indices"
                ),
                detail={"column": j},
            )
        )
    if len(bad_cols) > 10:
        findings.append(
            Finding(
                check="csc.column_sorted_unique",
                message=(
                    f"{name}: {len(bad_cols) - 10} further columns are "
                    "unsorted or duplicated"
                ),
                detail={"n_columns": len(bad_cols)},
            )
        )
    return findings


def check_forest(parent: np.ndarray, *, name: str = "eforest") -> list[Finding]:
    """Parent monotonicity ``parent(j) > j`` (or ``-1``), parents in range."""
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    findings: list[Finding] = []
    bad = np.nonzero((parent != -1) & ((parent <= np.arange(n)) | (parent >= n)))[0]
    for j in bad[:10]:
        findings.append(
            Finding(
                check="forest.parent_monotone",
                message=(
                    f"{name}: parent({int(j)}) = {int(parent[j])} violates "
                    "parent(j) > j (Definition 1 orders parents after children)"
                ),
                detail={"node": int(j), "parent": int(parent[j])},
            )
        )
    if bad.size > 10:
        findings.append(
            Finding(
                check="forest.parent_monotone",
                message=f"{name}: {int(bad.size) - 10} further nodes violate monotonicity",
                detail={"n_nodes": int(bad.size)},
            )
        )
    return findings


def check_forest_matches(stored: np.ndarray, derived: np.ndarray) -> list[Finding]:
    """``stored`` (the forest a fill carries) equals ``derived`` (the one
    Definition 1 reads off the fill's pattern), node for node."""
    if np.array_equal(stored, derived):
        return []
    stored = np.asarray(stored)
    if stored.shape == np.shape(derived):
        bad = np.flatnonzero(stored != derived)
    else:
        bad = np.arange(stored.size)
    return [
        Finding(
            check="forest.matches_pattern",
            message=(
                "fill.parent differs from Definition 1 on the fill pattern at "
                f"{bad.size} of {np.size(derived)} nodes (first: {bad[:5].tolist()})"
            ),
            detail={"n_nodes": int(bad.size), "nodes": bad[:10].tolist()},
        )
    ]


def check_postorder(parent: np.ndarray, *, name: str = "eforest") -> list[Finding]:
    """Subtree contiguity of a (monotone) postordered parent array.

    In a postorder, ``T[v]`` occupies exactly ``[v - |T[v]| + 1, v]``. One
    ascending pass accumulates subtree sizes and first descendants into
    parents (children carry smaller labels when monotone — checked first,
    since the size recurrence is meaningless otherwise).
    """
    findings = check_forest(parent, name=name)
    if findings:
        return findings
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    size = np.ones(n, dtype=np.int64)
    first = np.arange(n, dtype=np.int64)
    for v in range(n):
        p = int(parent[v])
        if p >= 0:
            size[p] += size[v]
            first[p] = min(first[p], first[v])
    bad = np.nonzero(first != np.arange(n) - size + 1)[0]
    for v in bad[:10]:
        findings.append(
            Finding(
                check="postorder.subtree_contiguous",
                message=(
                    f"{name}: subtree of node {int(v)} spans labels "
                    f"[{int(first[v])}, {int(v)}] but has {int(size[v])} "
                    "nodes — not a postorder"
                ),
                detail={
                    "node": int(v),
                    "subtree_size": int(size[v]),
                    "first_descendant": int(first[v]),
                },
            )
        )
    if bad.size > 10:
        findings.append(
            Finding(
                check="postorder.subtree_contiguous",
                message=f"{name}: {int(bad.size) - 10} further subtrees are non-contiguous",
                detail={"n_nodes": int(bad.size)},
            )
        )
    return findings


def check_partition(
    partition: SupernodePartition, n: int, *, name: str = "partition"
) -> list[Finding]:
    """Supernode contiguity: boundaries start at 0, strictly increase, end at n."""
    starts = np.asarray(partition.starts, dtype=np.int64)
    findings: list[Finding] = []
    if starts.size < 1 or starts[0] != 0:
        findings.append(
            Finding(
                check="supernodes.starts_at_zero",
                message=f"{name}: boundaries must begin with 0",
            )
        )
    if np.any(np.diff(starts) <= 0):
        findings.append(
            Finding(
                check="supernodes.contiguous",
                message=f"{name}: boundaries must strictly increase "
                "(every supernode a non-empty consecutive column run)",
            )
        )
    if starts.size and starts[-1] != n:
        findings.append(
            Finding(
                check="supernodes.covers_matrix",
                message=f"{name}: boundaries end at {int(starts[-1])}, matrix has {n} columns",
                detail={"last_boundary": int(starts[-1]), "n": n},
            )
        )
    return findings


def check_btf(
    pattern: CSCMatrix,
    blocks: list[tuple[int, int]],
    *,
    name: str = "btf",
) -> list[Finding]:
    """Block triangularity of the tree-induced BTF decomposition."""
    findings: list[Finding] = []
    pos = 0
    for start, stop in blocks:
        if start != pos or stop <= start:
            findings.append(
                Finding(
                    check="btf.blocks_cover",
                    message=(
                        f"{name}: diagonal blocks must be consecutive "
                        f"non-empty ranges covering the matrix; got "
                        f"({start}, {stop}) after {pos}"
                    ),
                    detail={"start": start, "stop": stop, "expected_start": pos},
                )
            )
            return findings
        pos = stop
    if pos != pattern.n_cols:
        findings.append(
            Finding(
                check="btf.blocks_cover",
                message=f"{name}: blocks cover {pos} of {pattern.n_cols} columns",
                detail={"covered": pos, "n": pattern.n_cols},
            )
        )
        return findings
    block_of = np.empty(pattern.n_cols, dtype=np.int64)
    for b, (start, stop) in enumerate(blocks):
        block_of[start:stop] = b
    for j in range(pattern.n_cols):
        rows = pattern.col_rows(j)
        below = rows[block_of[rows] > block_of[j]] if rows.size else rows
        if below.size:
            findings.append(
                Finding(
                    check="btf.upper_triangular",
                    message=(
                        f"{name}: column {j} stores entries below the block "
                        "diagonal (cross-tree L̄ entries contradict the "
                        "branch property)"
                    ),
                    region=f"column {j}, rows "
                    + "{" + ", ".join(str(int(r)) for r in below[:6]) + "}",
                    detail={"column": j, "n_entries_below": int(below.size)},
                )
            )
            if len(findings) >= 10:
                break
    return findings


def check_plan(plan: "SymbolicPlan") -> list[Finding]:
    """Internal consistency of a frozen :class:`SymbolicPlan`."""
    findings: list[Finding] = []
    n = plan.n
    findings += _check_permutation(plan.row_perm, n, "row_perm")
    findings += _check_permutation(plan.col_perm, n, "col_perm")
    if not findings:
        if not np.array_equal(
            np.asarray(plan.row_perm)[np.asarray(plan.row_perm_inv)],
            np.arange(n, dtype=np.int64),
        ):
            findings.append(
                Finding(
                    check="plan.perm_round_trip",
                    message="row_perm_inv is not the inverse of row_perm",
                )
            )
    findings += check_csc(plan.fill.pattern, name="fill")
    findings += check_partition(plan.partition, n)
    if plan.fill.n != n:
        findings.append(
            Finding(
                check="plan.fill_shape",
                message=f"fill covers {plan.fill.n} columns, plan covers {n}",
                detail={"fill_n": plan.fill.n, "n": n},
            )
        )
    if plan.layout.n_blocks != plan.bp.n_blocks or plan.layout.n != n:
        findings.append(
            Finding(
                check="plan.layout_matches",
                message="block layout does not match the plan's block pattern",
                detail={
                    "layout_blocks": plan.layout.n_blocks,
                    "bp_blocks": plan.bp.n_blocks,
                },
            )
        )
    n_expected = len(enumerate_tasks(plan.bp))
    if plan.graph.n_tasks != n_expected:
        findings.append(
            Finding(
                check="plan.task_count",
                message=(
                    f"task graph holds {plan.graph.n_tasks} tasks, the block "
                    f"pattern enumerates {n_expected}"
                ),
                detail={"graph": plan.graph.n_tasks, "expected": n_expected},
            )
        )
    return findings


def _check_permutation(
    perm: Optional[np.ndarray], n: int, name: str
) -> list[Finding]:
    if perm is None:
        return [
            Finding(check="plan.perm_missing", message=f"{name} is missing")
        ]
    perm = np.asarray(perm, dtype=np.int64)
    if perm.size != n or not np.array_equal(
        np.sort(perm), np.arange(n, dtype=np.int64)
    ):
        return [
            Finding(
                check="plan.perm_valid",
                message=f"{name} is not a permutation of 0..{n - 1}",
                detail={"size": int(perm.size), "n": n},
            )
        ]
    return []

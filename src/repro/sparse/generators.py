"""Synthetic analogs of the paper's benchmark matrices (Table 1).

The paper evaluates on seven Harwell-Boeing / Davis-collection matrices that
are not redistributable here, so we generate *structural analogs* from the
same application domains the paper names:

* ``sherman3``, ``sherman5``, ``orsreg1``, ``saylr4`` — oil-reservoir
  simulation: 3-D structured grids with a 7-point stencil, random coefficient
  unsymmetry, and (for the sherman pair) stencil thinning to match the
  published nonzero density.
* ``lnsp3937``, ``lns3937`` — linearized Navier-Stokes fluid-flow problems:
  a 2-D staggered grid with three coupled unknowns per cell (u, v, p) whose
  cross-variable coupling is structurally unsymmetric.
* ``goodwin`` — a 2-D finite-element fluid-mechanics mesh: assembled
  overlapping element cliques giving the ~44 nonzeros/row of the original.

Each analog reproduces the original's order and nonzero count to first order
at ``scale=1.0`` and shrinks smoothly with ``scale`` so tests and quick
benchmarks stay fast. The generators only promise *structure*: grid topology,
bandwidth, unsymmetry, and density — exactly the features the symbolic and
task-graph algorithms consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sparse.coo import COOBuilder
from repro.sparse.csc import CSCMatrix
from repro.util.rng import make_rng


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def _grid_index(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray, ny: int, nz: int):
    return (ix * ny + iy) * nz + iz


def reservoir_matrix(
    nx: int,
    ny: int,
    nz: int,
    *,
    keep_offdiag: float = 1.0,
    unsym: float = 0.35,
    seed=None,
) -> CSCMatrix:
    """Unsymmetric 7-point stencil on an ``nx x ny x nz`` grid.

    Parameters
    ----------
    keep_offdiag:
        Probability of keeping each off-diagonal stencil entry; the sherman
        matrices store fewer couplings than a full 7-point operator, and
        thinning reproduces their density. The diagonal is always kept, so
        the matrix stays structurally nonsingular.
    unsym:
        Relative magnitude of the value perturbation that breaks symmetry
        (upwinding in the reservoir model). Structure is already unsymmetric
        once ``keep_offdiag < 1`` because each direction is dropped
        independently.
    """
    rng = make_rng(seed)
    n = nx * ny * nz
    builder = COOBuilder(n, n)

    ix, iy, iz = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    ix, iy, iz = ix.ravel(), iy.ravel(), iz.ravel()
    center = _grid_index(ix, iy, iz, ny, nz)

    offsets = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]
    degree = np.zeros(n)
    neighbor_entries = []
    for dx, dy, dz in offsets:
        jx, jy, jz = ix + dx, iy + dy, iz + dz
        valid = (
            (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny) & (jz >= 0) & (jz < nz)
        )
        keep = valid & (rng.random(n) < keep_offdiag)
        rows = center[keep]
        cols = _grid_index(jx[keep], jy[keep], jz[keep], ny, nz)
        vals = -(1.0 + unsym * rng.standard_normal(rows.size))
        neighbor_entries.append((rows, cols, vals))
        np.add.at(degree, rows, 1.0)

    # Diagonal dominance with a small random deficit so pivoting is exercised.
    diag = degree + 1.0 + 0.5 * rng.random(n)
    weak = rng.random(n) < 0.02  # a few weak pivots force row swaps
    diag[weak] *= 0.01
    builder.extend(center, center, diag)
    for rows, cols, vals in neighbor_entries:
        builder.extend(rows, cols, vals)
    return builder.to_csc()


def fluid_flow_matrix(
    gx: int,
    gy: int,
    *,
    n_fields: int = 3,
    coupling: float = 0.6,
    keep_offdiag: float = 1.0,
    seed=None,
) -> CSCMatrix:
    """Linearized Navier-Stokes-like operator on a ``gx x gy`` grid.

    Each cell carries ``n_fields`` unknowns (velocities + pressure). Field 0
    and 1 couple to their own 5-point stencil neighborhoods; the last field
    (pressure) couples one-directionally into the velocities (the transpose
    coupling is kept only with probability ``coupling``), producing the
    strong structural unsymmetry of the lnsp/lns matrices. ``keep_offdiag``
    additionally thins the stencil couplings (upwinding drops terms), which
    controls how many independent trees the LU eforest decomposes into.
    """
    rng = make_rng(seed)
    n_cells = gx * gy
    n = n_cells * n_fields
    builder = COOBuilder(n, n)

    def uid(cx: np.ndarray, cy: np.ndarray, f: int) -> np.ndarray:
        return (cx * gy + cy) * n_fields + f

    cx, cy = np.meshgrid(np.arange(gx), np.arange(gy), indexing="ij")
    cx, cy = cx.ravel(), cy.ravel()

    # Diagonal for every unknown.
    for f in range(n_fields):
        ids = uid(cx, cy, f)
        builder.extend(ids, ids, 4.0 + rng.random(ids.size))

    offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    for f in range(n_fields - 1):  # velocity fields: 5-point stencils
        for dx, dy in offsets:
            jx, jy = cx + dx, cy + dy
            valid = (
                (jx >= 0)
                & (jx < gx)
                & (jy >= 0)
                & (jy < gy)
                & (rng.random(n_cells) < keep_offdiag)
            )
            rows = uid(cx[valid], cy[valid], f)
            cols = uid(jx[valid], jy[valid], f)
            builder.extend(rows, cols, -(1.0 + 0.3 * rng.standard_normal(rows.size)))

    # Pressure gradient into velocities (always) and divergence constraint
    # back (dropped with probability 1-coupling => structural unsymmetry).
    p = n_fields - 1
    for f in range(n_fields - 1):
        rows = uid(cx, cy, f)
        cols = uid(cx, cy, p)
        builder.extend(rows, cols, rng.standard_normal(rows.size))
        back = rng.random(n_cells) < coupling
        builder.extend(cols[back], rows[back], rng.standard_normal(int(back.sum())))
        # Divergence uses neighbor velocities too.
        dx, dy = offsets[f % len(offsets)]
        jx, jy = cx + dx, cy + dy
        valid = (
            (jx >= 0)
            & (jx < gx)
            & (jy >= 0)
            & (jy < gy)
            & (rng.random(n_cells) < keep_offdiag)
        )
        rows = uid(cx[valid], cy[valid], p)
        cols = uid(jx[valid], jy[valid], f)
        builder.extend(rows, cols, rng.standard_normal(rows.size))
    return builder.to_csc()


def finite_element_matrix(
    mx: int,
    my: int,
    *,
    patch: int = 3,
    seed=None,
) -> CSCMatrix:
    """Assembled 2-D finite-element operator on an ``mx x my`` node grid.

    Overlapping ``patch x patch`` node blocks play the role of high-order
    elements: every pair of nodes sharing an element is coupled, giving the
    dense ~``(2*patch+1)^2``-entry rows of the goodwin matrix. Values are
    random element stiffness contributions summed by the COO builder, with a
    dominant diagonal and scattered weak pivots.
    """
    rng = make_rng(seed)
    n = mx * my
    builder = COOBuilder(n, n)
    for ex in range(0, mx - patch + 1, patch - 1 if patch > 1 else 1):
        for ey in range(0, my - patch + 1, patch - 1 if patch > 1 else 1):
            nodes = np.array(
                [
                    (ex + ax) * my + (ey + ay)
                    for ax in range(patch)
                    for ay in range(patch)
                ]
            )
            k = nodes.size
            elem = rng.standard_normal((k, k)) * 0.5
            elem[np.arange(k), np.arange(k)] = k + rng.random(k)
            rows = np.repeat(nodes, k)
            cols = np.tile(nodes, k)
            builder.extend(rows, cols, elem.ravel())
    # Guarantee every node appears (edge remainders when patch doesn't tile).
    ids = np.arange(n)
    builder.extend(ids, ids, 1.0 + rng.random(n))
    return builder.to_csc()


# ---------------------------------------------------------------------------
# Large-n pattern families (symbolic scaling benchmarks)
# ---------------------------------------------------------------------------
#
# The three families below are *pattern-only* (no values) and built fully
# vectorized so n = 10⁶ instances assemble in well under a second. Each has
# a zero-free diagonal by construction, so the large-n symbolic benchmarks
# skip the maximum-transversal stage entirely. They stress the symbolic
# pipeline in complementary ways:
#
# * banded — chain column etree, fill confined near the diagonal: the
#   least fill per column.
# * arrow — chain etree plus a dense last column: every elimination step
#   adds one entry to the last column (historically the worst case for the
#   uncompressed column etree).
# * grid — tiled 5-point stencil whose interior tiles are independent
#   column-etree subtrees: the widest merge frontier of the three.


def _pattern_from_entries(
    n: int, rows: np.ndarray, cols: np.ndarray
) -> CSCMatrix:
    """Sorted pattern-only CSC from unique (row, col) int64 entry arrays."""
    from repro.sparse.csc import INDEX_DTYPE

    order = np.lexsort((rows, cols))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    return CSCMatrix(
        n, n, indptr, rows[order].astype(INDEX_DTYPE), None, check=False
    )


def banded_pattern(
    n: int, *, band: int = 4, keep: float = 0.6, seed=None
) -> CSCMatrix:
    """Random banded pattern: diagonal plus thinned band of half-width ``band``.

    Each off-diagonal position within the band is kept independently with
    probability ``keep``; the diagonal is always stored. The column etree
    is (near-)chain-shaped, so this family exercises pure streaming — long
    sequential merges with short tails — without any subtree parallelism.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if band < 1:
        raise ValueError(f"band must be >= 1, got {band}")
    rng = make_rng(seed)
    diag = np.arange(n, dtype=np.int64)
    rows_parts = [diag]
    cols_parts = [diag]
    for d in range(-band, band + 1):
        if d == 0:
            continue
        cols = diag[max(0, -d) : n - max(0, d)]
        kept = cols[rng.random(cols.size) < keep]
        rows_parts.append(kept + d)
        cols_parts.append(kept)
    return _pattern_from_entries(
        n, np.concatenate(rows_parts), np.concatenate(cols_parts)
    )


def arrow_pattern(n: int, *, band: int = 1) -> CSCMatrix:
    """Band of half-width ``band`` plus a dense last column.

    The banded part builds a chain column etree (``parent[i] = i + 1``) and
    the dense last column then couples every row into it — the worst case
    for the uncompressed etree walk (timed by
    ``benchmarks/bench_symbolic.py``); in the static fill every
    elimination step emits one entry of the last column.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    diag = np.arange(n - 1, dtype=np.int64)  # banded part spares column n-1
    rows_parts = [diag]
    cols_parts = [diag]
    for d in range(-band, band + 1):
        if d == 0:
            continue
        cols = diag[max(0, -d) : diag.size]
        rows = cols + d
        valid = rows < n
        rows_parts.append(rows[valid])
        cols_parts.append(cols[valid])
    rows_parts.append(np.arange(n, dtype=np.int64))  # dense last column
    cols_parts.append(np.full(n, n - 1, dtype=np.int64))
    return _pattern_from_entries(
        n, np.concatenate(rows_parts), np.concatenate(cols_parts)
    )


def grid_pattern(nx: int, ny: int = 16, *, tiles: int = 8) -> CSCMatrix:
    """Tiled 5-point stencil on an ``nx × ny`` strip grid.

    The x-lines are split into ``tiles`` contiguous tiles separated by
    two-line interfaces; interior columns are numbered tile by tile and the
    interface columns last (a one-level domain decomposition ordering).
    Because the interfaces are two lines wide, interior nodes of different
    tiles are at graph distance ≥ 3 and therefore never couple in ``AᵀA``
    — each tile interior is a union of complete column-etree subtrees.
    ``n = nx * ny``.
    """
    if nx < 3 * tiles:
        raise ValueError(f"nx must be >= 3 * tiles, got nx={nx}, tiles={tiles}")
    if ny < 1 or tiles < 1:
        raise ValueError(f"ny and tiles must be >= 1, got ny={ny}, tiles={tiles}")
    n = nx * ny
    bounds = np.linspace(0, nx, tiles + 1).astype(np.int64)
    sep = np.zeros(nx, dtype=bool)
    for t in range(1, tiles):
        sep[bounds[t] - 2 : bounds[t]] = True
    # New x order: interiors ascending (tiles are contiguous, so this also
    # groups them by tile), then the interface lines ascending.
    order_x = np.concatenate([np.nonzero(~sep)[0], np.nonzero(sep)[0]])
    inv_x = np.empty(nx, dtype=np.int64)
    inv_x[order_x] = np.arange(nx, dtype=np.int64)

    gx, gy = np.meshgrid(
        np.arange(nx, dtype=np.int64), np.arange(ny, dtype=np.int64),
        indexing="ij",
    )
    gx, gy = gx.ravel(), gy.ravel()
    center = inv_x[gx] * ny + gy
    rows_parts = [center]
    cols_parts = [center]
    for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        jx, jy = gx + dx, gy + dy
        valid = (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny)
        rows_parts.append(inv_x[jx[valid]] * ny + jy[valid])
        cols_parts.append(center[valid])
    return _pattern_from_entries(
        n, np.concatenate(rows_parts), np.concatenate(cols_parts)
    )


def random_sparse(
    n: int,
    *,
    density: float = 0.05,
    zero_free_diagonal: bool = True,
    seed=None,
) -> CSCMatrix:
    """Uniformly random unsymmetric sparse matrix (tests, property checks)."""
    rng = make_rng(seed)
    builder = COOBuilder(n, n)
    n_off = int(density * n * n)
    if n_off:
        rows = rng.integers(0, n, n_off)
        cols = rng.integers(0, n, n_off)
        builder.extend(rows, cols, rng.standard_normal(n_off))
    if zero_free_diagonal:
        ids = np.arange(n)
        builder.extend(ids, ids, n * 0.5 + rng.random(n))
    return builder.to_csc()


# ---------------------------------------------------------------------------
# Paper analogs (Table 1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PaperMatrixSpec:
    """Registry entry mapping a paper matrix to its synthetic analog."""

    name: str
    domain: str
    paper_order: int
    paper_nnz: int
    builder: Callable[[float, int], CSCMatrix]


def _scaled(dim: int, scale: float, axis_share: float) -> int:
    """Scale one grid dimension so total size shrinks roughly like ``scale``."""
    return max(2, int(round(dim * scale**axis_share)))


def _sherman3(scale: float, seed: int) -> CSCMatrix:
    # Original: 35 x 11 x 13 black-oil grid, 20033 nnz (~4.0 per row).
    return reservoir_matrix(
        _scaled(35, scale, 1 / 3),
        _scaled(11, scale, 1 / 3),
        _scaled(13, scale, 1 / 3),
        keep_offdiag=0.50,
        seed=seed,
    )


def _sherman5(scale: float, seed: int) -> CSCMatrix:
    # Original: 16 x 23 x 3 grid with 3 unknowns per cell, 20793 nnz; highly
    # unsymmetric black-oil couplings.
    return reservoir_matrix(
        _scaled(16, scale, 1 / 3),
        _scaled(23, scale, 1 / 3),
        _scaled(9, scale, 1 / 3),
        keep_offdiag=0.70,
        unsym=0.6,
        seed=seed,
    )


def _lnsp3937(scale: float, seed: int) -> CSCMatrix:
    return fluid_flow_matrix(
        _scaled(37, scale, 1 / 2),
        _scaled(36, scale, 1 / 2),
        coupling=0.60,
        keep_offdiag=0.65,
        seed=seed,
    )


def _lns3937(scale: float, seed: int) -> CSCMatrix:
    return fluid_flow_matrix(
        _scaled(37, scale, 1 / 2),
        _scaled(36, scale, 1 / 2),
        coupling=0.45,
        keep_offdiag=0.55,
        seed=seed + 1,
    )


def _orsreg1(scale: float, seed: int) -> CSCMatrix:
    # Original: 21 x 21 x 5 reservoir grid, 14133 nnz (7-point stencil).
    return reservoir_matrix(
        _scaled(21, scale, 1 / 3),
        _scaled(21, scale, 1 / 3),
        _scaled(5, scale, 1 / 3),
        keep_offdiag=0.85,
        seed=seed,
    )


def _saylr4(scale: float, seed: int) -> CSCMatrix:
    # Original: 33 x 6 x 18 grid, 22316 nnz.
    return reservoir_matrix(
        _scaled(33, scale, 1 / 3),
        _scaled(6, scale, 1 / 3),
        _scaled(18, scale, 1 / 3),
        keep_offdiag=0.80,
        seed=seed,
    )


def _goodwin(scale: float, seed: int) -> CSCMatrix:
    # Original: 7320 nodes, 324772 nnz (~44 per row) finite-element mesh.
    return finite_element_matrix(
        _scaled(61, scale, 1 / 2), _scaled(120, scale, 1 / 2), patch=4, seed=seed
    )


PAPER_MATRICES: dict[str, PaperMatrixSpec] = {
    "sherman3": PaperMatrixSpec("sherman3", "oil reservoir", 5005, 20033, _sherman3),
    "sherman5": PaperMatrixSpec("sherman5", "oil reservoir", 3312, 20793, _sherman5),
    "lnsp3937": PaperMatrixSpec("lnsp3937", "fluid flow", 3937, 25407, _lnsp3937),
    "lns3937": PaperMatrixSpec("lns3937", "fluid flow", 3937, 25407, _lns3937),
    "orsreg1": PaperMatrixSpec("orsreg1", "oil reservoir", 2205, 14133, _orsreg1),
    "saylr4": PaperMatrixSpec("saylr4", "oil reservoir", 3564, 22316, _saylr4),
    "goodwin": PaperMatrixSpec("goodwin", "finite element", 7320, 324772, _goodwin),
}


def paper_matrix(name: str, *, scale: float = 1.0, seed: int | None = None) -> CSCMatrix:
    """Build the synthetic analog of a Table 1 matrix.

    Parameters
    ----------
    name:
        One of :data:`PAPER_MATRICES` (``sherman3``, ``sherman5``,
        ``lnsp3937``, ``lns3937``, ``orsreg1``, ``saylr4``, ``goodwin``).
    scale:
        Size multiplier; ``1.0`` matches the published order to first order,
        smaller values shrink the underlying grid proportionally (used by the
        fast test/bench configurations).
    seed:
        Value randomness; defaults to the library seed so benchmark rows are
        reproducible.
    """
    try:
        spec = PAPER_MATRICES[name]
    except KeyError:
        raise KeyError(
            f"unknown matrix {name!r}; choose from {sorted(PAPER_MATRICES)}"
        ) from None
    if seed is None:
        # Stable per-name seed so different matrices differ but runs repeat
        # (hash() is salted per-process; crc32 is not).
        import zlib

        base_seed = zlib.crc32(name.encode()) % (2**31 - 1)
    else:
        base_seed = seed
    return spec.builder(scale, int(base_seed))

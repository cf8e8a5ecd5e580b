"""Single-layer potential on a triangulated surface: the dense operator,
the density solve, the distance moment and the capacity.

The operator maps a piecewise-constant surface density mu to the boundary
values of ``integral mu(p) / |p - r| dsigma(p)`` collocated at triangle
centroids.  In this representation the normal-derivative jump of the
potential across the surface is ``4 pi mu``; every formula downstream uses
that convention.

``mu0`` (boundary data -1) gives the capacity.  The boundary data of the
higher densities of the small-wavenumber expansion live with that
expansion, in :func:`hardscatter.lowfreq.solve_expansion_densities`.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .geometry import SolverError, TriMesh, _dot3, _squared_distances

__all__ = [
    "SolverError",
    "SingleLayerOperator",
    "SurfaceDensity",
    "assemble_single_layer",
    "solve_density",
    "solve_densities",
    "mu0",
    "capacity",
    "distance_moment",
]

# Residual bound for every density solve, relative max-norm.
RESIDUAL_TOL = 1e-10
# Reciprocal condition estimate below this is treated as a singular system.
RCOND_FLOOR = 1e-14

# Degree-2 symmetric 3-point rule on the reference triangle.
_NEAR_RULE = np.array([
    [2 / 3, 1 / 6, 1 / 6],
    [1 / 6, 2 / 3, 1 / 6],
    [1 / 6, 1 / 6, 2 / 3],
])

_ASSEMBLY_BLOCK = 256


@dataclass(frozen=True)
class SurfaceDensity:
    """Piecewise-constant real field on the triangles of a mesh."""

    values: np.ndarray
    mesh: TriMesh

    def __post_init__(self):
        if len(self.values) != self.mesh.n_triangles:
            raise ValueError("density length does not match triangle count")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite density values")

    def integral(self) -> float:
        """Surface integral, sum of value * area."""
        return float(np.sum(self.values * self.mesh.areas))

    def moment(self, coordinate_values: np.ndarray) -> float:
        """Surface integral weighted by a per-triangle coordinate field."""
        return float(np.sum(coordinate_values * self.values * self.mesh.areas))


@dataclass
class SingleLayerOperator:
    """Dense collocation matrix of the 1/|p - r| single layer.

    Entry (i, j) approximates the integral of ``1/|p - c_i|`` over triangle
    j: exact edge-decomposition formula on the diagonal, a symmetric 3-point
    rule for close pairs, one-point quadrature otherwise.  The matrix is
    stored column-major, the order LAPACK factorises in.

    :meth:`factorize` overwrites the matrix with its LU factors and sets
    ``matrix`` to None, so the chain holds one n x n array.  Products with
    the matrix are then formed on rows regenerated block by block
    (:func:`_row_block_products`), bit for bit the rows assembly wrote.
    They need, besides the centroids and areas:

    * ``near``, the near/far split ``(ii, jj, distance)``: the close pairs
      (i, j), sorted by row, and, per pair, the sum of ``|q - c_i|`` over
      the three rule nodes q on triangle j, which :func:`distance_moment`
      reads;
    * ``near_values``, the matrix entries of those pairs;
    * ``diagonal``, the self-integrals.
    """

    mesh: TriMesh
    matrix: np.ndarray | None
    near: tuple = field(repr=False)
    near_values: np.ndarray = field(repr=False)
    diagonal: np.ndarray = field(repr=False)
    _lu: tuple | None = field(default=None, repr=False)
    _rcond: float | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.mesh.n_triangles

    def factorize(self):
        """LU-factorize once, in place; raise SolverError for a matrix with
        a non-finite entry and for singular systems.

        The 1-norm is NaN or inf when any entry is, so it doubles as the
        finiteness check.  Returns ``(lu, piv)`` as ``scipy.linalg.lu_factor``
        does.
        """
        if self._lu is None:
            anorm = float(lapack.dlange("1", self.matrix))
            if not np.isfinite(anorm):
                raise SolverError(f"non-finite single-layer matrix (1-norm {anorm})")
            lu, piv, info = lapack.dgetrf(self.matrix, overwrite_a=True)
            self.matrix = None
            if info < 0:
                raise SolverError(f"LU factorization failed: dgetrf info {info}")
            # an exactly zero pivot (info > 0) gives rcond 0
            rcond, info = lapack.dgecon(lu, anorm)
            if info != 0 or not np.isfinite(rcond) or rcond < RCOND_FLOOR:
                raise SolverError(
                    f"singular single-layer system (rcond estimate {rcond:.3e}); "
                    "the mesh is likely degenerate"
                )
            self._lu = (lu, piv)
            self._rcond = float(rcond)
        return self._lu


def _triangle_self_integral(mesh: TriMesh) -> np.ndarray:
    """Exact integral of 1/|p - c| over each planar triangle from its own
    centroid, summed edge by edge in polar form."""
    p0, p1, p2 = mesh.corners()
    cent = mesh.centroids
    total = np.zeros(mesh.n_triangles)
    for a, b in ((p0, p1), (p1, p2), (p2, p0)):
        tangent = b - a
        length = np.linalg.norm(tangent, axis=1)
        that = tangent / length[:, None]
        sa = _dot3(a - cent, that)
        sb = _dot3(b - cent, that)
        foot = a - sa[:, None] * that
        dist = np.linalg.norm(foot - cent, axis=1)
        ra = np.linalg.norm(a - cent, axis=1)
        rb = np.linalg.norm(b - cent, axis=1)
        total += dist * np.log((rb + sb) / (ra + sa))
    return total


# The cell list's cubes are this much wider than the search radius, and its
# squared-distance prefilter keeps pairs up to this much past it: far above
# the rounding of a cell index (a few 2^-53 times the at most 2 n + 1 cells
# along an axis) and of a squared distance.
_CELL_SLACK = 1.0 + 2.0**-20
# The 13 neighbour cells of the half stencil, and the cell itself.
_HALF_STENCIL = [d for d in itertools.product((-1, 0, 1), repeat=3) if d >= (0, 0, 0)]


def _axis_cells(x: np.ndarray, width: float) -> tuple[np.ndarray, int]:
    """Cell indices of the coordinates ``x`` along one axis, and the number
    of cells.

    The sorted coordinates fall into runs whose neighbours lie at most
    ``width`` apart; a coordinate's cell is ``floor((x - start) / width)``
    in its run, and each run begins two cells past the last one's end, so
    two coordinates within ``width`` of each other are in the same or
    adjacent cells, and there are at most ``2 len(x) + 1`` cells however
    far apart the runs lie.  Cell 0 and the last cell stay empty.
    """
    order = np.argsort(x)
    xs = x[order]
    starts = np.ones(len(xs), dtype=bool)
    starts[1:] = np.diff(xs) > width
    run = np.cumsum(starts) - 1
    local = np.floor((xs - xs[starts][run]) / width).astype(np.int64)
    span = local[np.append(np.flatnonzero(starts[1:]), len(xs) - 1)] + 2
    base = np.cumsum(span) - span + 1
    cells = np.empty(len(x), dtype=np.int64)
    cells[order] = base[run] + local
    return cells, int(base[-1] + span[-1])


def _near_pairs(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Ordered index pairs (i, j), i != j, with ``|c_i - c_j| <= 2
    max(diam_i, diam_j)`` for the centroids c and the triangle diameters;
    both orders included, sorted by i, then j.

    The centroids are binned on a cell list (Hockney & Eastwood 1981) of
    cubes a hair wider than the search radius ``2 max diam``
    (:func:`_axis_cells`), and each cell meets its 13 neighbours of a half
    stencil and itself, one offset at a time.  A squared-distance prefilter
    with slack keeps the candidates within the radius; the square roots of
    their :func:`~hardscatter.geometry._squared_distances` equal
    ``np.linalg.norm``'s distances bit for bit, and the exact rule above
    decides.
    """
    diam = mesh.triangle_diameters()
    cent = mesh.centroids
    n = len(cent)
    radius = 2.0 * float(diam.max())
    key = np.zeros(n, dtype=np.int64)
    stride = np.zeros(3, dtype=np.int64)
    for axis in range(3):
        cells, size = _axis_cells(cent[:, axis], radius * _CELL_SLACK)
        if int(key.max()) * size + size >= 2**63:
            raise SolverError(f"{n} panels are too many for the near-pair cell list")
        key = key * size + cells
        stride = stride * size
        stride[axis] = 1
    order = np.argsort(key)
    key = key[order]
    xyz = np.ascontiguousarray(cent[order].T)
    first = np.ones(n, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    start = np.flatnonzero(first)
    cell_key, count = key[start], np.diff(np.append(start, n))
    cell = np.cumsum(first) - 1             # of each point, in sorted order

    bound = radius * radius * _CELL_SLACK
    found_i, found_j, found_d2 = [], [], []
    for offset in _HALF_STENCIL:
        step = int(np.dot(offset, stride))
        if step == 0:
            # the points after each one in its own cell
            points = np.arange(n)
            lo = points + 1
            width = start[cell] + count[cell] - lo
        else:
            target = cell_key + step
            # a target past the last key wraps round to the first: no match
            other = np.searchsorted(cell_key, target) % len(cell_key)
            points = np.flatnonzero((cell_key[other] == target)[cell])
            lo = start[other[cell[points]]]
            width = count[other[cell[points]]]
        total = int(width.sum())
        i = np.repeat(points, width)
        j = np.arange(total) + np.repeat(lo - (np.cumsum(width) - width), width)
        d2 = _squared_distances(xyz.take(i, axis=1), xyz.take(j, axis=1))
        keep = d2 <= bound
        found_i.append(i[keep])
        found_j.append(j[keep])
        found_d2.append(d2[keep])
    i = order[np.concatenate(found_i)]
    j = order[np.concatenate(found_j)]
    keep = np.sqrt(np.concatenate(found_d2)) <= 2.0 * np.maximum(diam[i], diam[j])
    i, j = i[keep], j[keep]
    pair = np.sort(np.concatenate([i * n + j, j * n + i]))
    ii = pair // n
    return ii, pair - ii * n


def _centred_centroids(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Centroids ``c`` centred on their mean, and ``|c|^2``.

    A distance ``d`` taken as ``sqrt(|c_i|^2 + |c_j|^2 - 2 c_i.c_j)`` loses
    about ``|c|^2 / d^2`` ulps, so ``|c|`` must be the body's size, not its
    distance from the origin.
    """
    c = mesh.centroids - mesh.centroids.mean(axis=0)
    return c, _dot3(c, c)


def _centroid_distances(mesh: TriMesh):
    """Yield ``(i0, i1, dist)`` with ``dist`` the distances from centroids
    ``i0:i1`` to every centroid, one row block at a time.

    Entry (i, j) of a block is ``sqrt(max((-2 c_i.c_j + |c_i|^2) + |c_j|^2,
    0))`` in centred coordinates, from one GEMM, with an exactly-zero
    diagonal; no (rows, n, 3) array is formed.  The block buffer is reused,
    so consume each block before asking for the next.
    """
    c, sq = _centred_centroids(mesh)
    n = mesh.n_triangles
    block = np.empty((min(_ASSEMBLY_BLOCK, n), n))
    for i0 in range(0, n, _ASSEMBLY_BLOCK):
        i1 = min(i0 + _ASSEMBLY_BLOCK, n)
        dist = block[: i1 - i0]
        np.matmul(-2.0 * c[i0:i1], c.T, out=dist)
        dist += sq[i0:i1, None]
        dist += sq
        np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
        dist[np.arange(i1 - i0), np.arange(i0, i1)] = 0.0
        yield i0, i1, dist


def _near_rule_sums(mesh: TriMesh):
    """Near pairs ``(i, j)`` and, per pair, the sums of ``1/|q - c_i|`` and
    of ``|q - c_i|`` over the three nodes q of the near rule on triangle j."""
    ii, jj = _near_pairs(mesh)
    cent = mesh.centroids
    p0, p1, p2 = mesh.corners()
    inverse = np.zeros(len(ii))
    distance = np.zeros(len(ii))
    for w0, w1, w2 in _NEAR_RULE:
        q = w0 * p0[jj] + w1 * p1[jj] + w2 * p2[jj]
        r = np.linalg.norm(q - cent[ii], axis=1)
        inverse += 1.0 / r
        distance += r
    return ii, jj, inverse, distance


def _dense_solve_bytes(n: int, near_pairs: int = 0) -> int:
    """Bytes of the dense chain at n panels and ``near_pairs`` ordered near
    pairs: the matrix, factorised in place, one row block, and the working
    set of :func:`_near_rule_sums` during assembly, counted as 16 words a
    pair; the operator keeps four words a pair of that (``near`` and
    ``near_values``)."""
    return 8 * (n * n + min(_ASSEMBLY_BLOCK, n) * n) + 128 * near_pairs


def _available_bytes() -> int:
    """``MemAvailable`` from ``/proc/meminfo``, else the physical memory."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key == "MemAvailable":
                    return int(value.split()[0]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def assemble_single_layer(mesh: TriMesh) -> SingleLayerOperator:
    """Assemble the dense collocation matrix for the 1/r kernel.

    Raises SolverError, before the matrix is allocated, when the dense chain
    would not fit in the available memory.
    """
    n = mesh.n_triangles
    ii, jj, inverse, distance = _near_rule_sums(mesh)
    need, have = _dense_solve_bytes(n, len(ii)), _available_bytes()
    if need > have:
        raise SolverError(
            f"job does not fit in memory: {n} panels need about "
            f"{need / 2**20:.1f} MiB, {have / 2**20:.1f} MiB available"
        )
    areas = mesh.areas
    c, sq = _centred_centroids(mesh)
    minus_2c = -2.0 * c
    matrix = np.empty((n, n), order="F")
    # Row j of the C-contiguous view matrix.T is column j of the matrix.
    # Its entry i is areas[j] over the distance that _centroid_distances
    # gives for (i, j), with the same rounding: |c_i|^2 is added first.
    for j0 in range(0, n, _ASSEMBLY_BLOCK):
        j1 = min(j0 + _ASSEMBLY_BLOCK, n)
        cols = matrix.T[j0:j1]
        np.matmul(c[j0:j1], minus_2c.T, out=cols)
        cols += sq
        cols += sq[j0:j1, None]
        np.sqrt(np.maximum(cols, 0.0, out=cols), out=cols)
        with np.errstate(divide="ignore"):  # the diagonal is set below
            np.divide(areas[j0:j1, None], cols, out=cols)

    near_values = (areas[jj] / 3.0) * inverse
    matrix[ii, jj] = near_values

    diag = _triangle_self_integral(mesh)
    if np.any(diag <= 0.0):
        raise SolverError("non-positive self-integral; degenerate triangle")
    matrix[np.arange(n), np.arange(n)] = diag
    return SingleLayerOperator(mesh, matrix, (ii, jj, distance), near_values, diag)


def _row_block_products(operator: SingleLayerOperator, columns=None, weighted=None):
    """``S @ columns`` for an (n, m) ``columns``, and the distance moment
    ``D @ weighted``, from one pass over the row blocks of
    :func:`_centroid_distances`; either may be None, and so is its result.

    A block first meets ``weighted`` as the distance block, its near entries
    replaced by their 3-point means.  It then becomes ``areas / dist``, with
    the near values and the diagonal written over it, so its rows equal the
    assembled matrix's bit for bit, and meets ``columns``.
    """
    mesh = operator.mesh
    ii, jj, distance = operator.near
    product = None if columns is None else np.empty((operator.n, columns.shape[1]))
    moment = None if weighted is None else np.empty(operator.n)
    for i0, i1, dist in _centroid_distances(mesh):
        lo, hi = np.searchsorted(ii, (i0, i1))
        rows, cols = ii[lo:hi] - i0, jj[lo:hi]
        if weighted is not None:
            dist[rows, cols] = distance[lo:hi] / 3.0
            moment[i0:i1] = dist @ weighted
        if columns is not None:
            with np.errstate(divide="ignore"):  # the diagonal is set below
                np.divide(mesh.areas, dist, out=dist)
            dist[rows, cols] = operator.near_values[lo:hi]
            k = np.arange(i1 - i0)
            dist[k, i0 + k] = operator.diagonal[i0:i1]
            product[i0:i1] = dist @ columns
    return product, moment


def _boundary_data(operator: SingleLayerOperator, data) -> np.ndarray:
    g = np.asarray(data, dtype=float)
    if g.shape != (operator.n,):
        raise ValueError(f"data must have shape ({operator.n},)")
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite boundary data")
    return g


def solve_densities(operator: SingleLayerOperator, data, moment: bool = False):
    """Solve ``S mu = g`` for each boundary data ``g`` in ``data`` by the
    dense LU, with one refinement pass per solution if needed.

    Each relative max-norm residual must come out below ``RESIDUAL_TOL``.
    The residuals are taken on regenerated rows (:func:`_row_block_products`),
    all in one pass.  With ``moment``, that pass also gives
    ``distance_moment(operator, densities[0])``, bit for bit, and the
    densities and that moment are returned; otherwise the densities.
    """
    gs = [_boundary_data(operator, g) for g in data]
    lu = operator.factorize()
    xs = [sla.lu_solve(lu, g, check_finite=False) for g in gs]
    areas = operator.mesh.areas
    product, first_moment = _row_block_products(
        operator, np.column_stack(xs), xs[0] * areas if moment else None)
    for col, g in enumerate(gs):
        scale = float(np.abs(g).max()) or 1.0
        residual = g - product[:, col]
        if float(np.abs(residual).max()) / scale < RESIDUAL_TOL:
            continue
        x = xs[col] = xs[col] + sla.lu_solve(lu, residual, check_finite=False)
        again = moment and col == 0  # the moment of the refined first density
        sx, refined_moment = _row_block_products(operator, x[:, None],
                                                 x * areas if again else None)
        value = float(np.abs(sx[:, 0] - g).max()) / scale
        if value >= RESIDUAL_TOL:
            raise SolverError(
                f"solve residual {value:.3e} exceeds {RESIDUAL_TOL:g} "
                f"(rcond {operator._rcond:.3e})"
            )
        if again:
            first_moment = refined_moment
    densities = [SurfaceDensity(x, operator.mesh) for x in xs]
    return (densities, first_moment) if moment else densities


def solve_density(operator: SingleLayerOperator, data: np.ndarray) -> SurfaceDensity:
    """Solve S mu = data by dense LU, with one refinement pass if needed.

    The first solve factorises the matrix in place
    (:meth:`SingleLayerOperator.factorize`).  The relative max-norm residual,
    taken on regenerated rows, must come out below ``RESIDUAL_TOL``; see
    :func:`solve_densities`.
    """
    return solve_densities(operator, [data])[0]


def mu0(mesh: TriMesh) -> SurfaceDensity:
    """Density with unit negative boundary potential (data -1)."""
    return solve_density(assemble_single_layer(mesh), -np.ones(mesh.n_triangles))


def capacity(mesh: TriMesh) -> float:
    """Electrostatic capacity; a sphere of radius a gives a."""
    value = -mu0(mesh).integral()
    if value <= 0:
        raise SolverError(f"non-positive capacity {value:g}")
    return value


def distance_moment(operator: SingleLayerOperator, density: SurfaceDensity) -> np.ndarray:
    """Collocated values of ``integral |p - r| density(p) dsigma(p)``.

    Same near/far split as the operator, read from ``operator.near``: near
    entries of each distance block are replaced by the 3-point mean before
    the block meets the density.  The kernel is regular, so the diagonal
    uses the centroid value, exactly zero.
    """
    return _row_block_products(operator, weighted=density.values * operator.mesh.areas)[1]

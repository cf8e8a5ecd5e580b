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

import os
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack
from scipy.spatial import cKDTree

from .geometry import TriMesh

__all__ = [
    "SolverError",
    "SingleLayerOperator",
    "SurfaceDensity",
    "assemble_single_layer",
    "solve_density",
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

_ASSEMBLY_BLOCK = 2048


class SolverError(Exception):
    """Dense solve failed: singular system or unacceptable residual."""


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
    """

    mesh: TriMesh
    matrix: np.ndarray
    _lu: tuple | None = field(default=None, repr=False)
    _rcond: float | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.mesh.n_triangles

    def factorize(self):
        """LU-factorize once; raise SolverError for singular systems."""
        if self._lu is None:
            anorm = float(lapack.dlange("1", self.matrix))
            try:
                with warnings.catch_warnings():
                    # exact singularity is reported via rcond below
                    warnings.simplefilter("ignore", sla.LinAlgWarning)
                    lu, piv = sla.lu_factor(self.matrix)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"LU factorization failed: {exc}") from exc
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
        sa = np.einsum("ij,ij->i", a - cent, that)
        sb = np.einsum("ij,ij->i", b - cent, that)
        foot = a - sa[:, None] * that
        dist = np.linalg.norm(foot - cent, axis=1)
        ra = np.linalg.norm(a - cent, axis=1)
        rb = np.linalg.norm(b - cent, axis=1)
        total += dist * np.log((rb + sb) / (ra + sa))
    return total


def _near_pairs(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Ordered index pairs (i, j), i != j, closer than twice the larger
    triangle diameter; both orders included."""
    diam = mesh.triangle_diameters()
    tree = cKDTree(mesh.centroids)
    pairs = tree.query_pairs(2.0 * float(diam.max()), output_type="ndarray")
    if len(pairs) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    i, j = pairs[:, 0], pairs[:, 1]
    dist = np.linalg.norm(mesh.centroids[i] - mesh.centroids[j], axis=1)
    keep = dist <= 2.0 * np.maximum(diam[i], diam[j])
    i, j = i[keep], j[keep]
    return np.concatenate([i, j]), np.concatenate([j, i])


def _centred_centroids(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Centroids ``c`` centred on their mean, and ``|c|^2``.

    A distance ``d`` taken as ``sqrt(|c_i|^2 + |c_j|^2 - 2 c_i.c_j)`` loses
    about ``|c|^2 / d^2`` ulps, so ``|c|`` must be the body's size, not its
    distance from the origin.
    """
    c = mesh.centroids - mesh.centroids.mean(axis=0)
    return c, np.einsum("ij,ij->i", c, c)


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


def _near_rule_sums(mesh: TriMesh, kernel):
    """Near pairs ``(i, j)`` and, per pair, the sum of ``kernel(|q - c_i|)``
    over the three nodes q of the near rule on triangle j."""
    ii, jj = _near_pairs(mesh)
    cent = mesh.centroids
    p0, p1, p2 = mesh.corners()
    acc = np.zeros(len(ii))
    for w0, w1, w2 in _NEAR_RULE:
        q = w0 * p0[jj] + w1 * p1[jj] + w2 * p2[jj]
        acc += kernel(np.linalg.norm(q - cent[ii], axis=1))
    return ii, jj, acc


def _dense_solve_bytes(n: int, near_pairs: int = 0) -> int:
    """Bytes of the dense chain at n panels and ``near_pairs`` ordered near
    pairs: the matrix, the copy that ``lu_factor`` makes, one distance
    block, and the working set of :func:`_near_rule_sums`, which
    ``distance_moment`` holds next to the other three.  That working set
    is ``ii``, ``jj``, ``acc`` and the ``(pairs, 3)`` node temporaries,
    counted as 16 words a pair (``tracemalloc`` sees 122 bytes)."""
    return 8 * (2 * n * n + min(_ASSEMBLY_BLOCK, n) * n) + 128 * near_pairs


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
    ii, jj, acc = _near_rule_sums(mesh, lambda r: 1.0 / r)
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

    matrix[ii, jj] = (areas[jj] / 3.0) * acc

    diag = _triangle_self_integral(mesh)
    if np.any(diag <= 0.0):
        raise SolverError("non-positive self-integral; degenerate triangle")
    matrix[np.arange(n), np.arange(n)] = diag
    return SingleLayerOperator(mesh, matrix)


def solve_density(operator: SingleLayerOperator, data: np.ndarray) -> SurfaceDensity:
    """Solve S mu = data by dense LU, with one refinement pass if needed.

    The relative max-norm residual must come out below ``RESIDUAL_TOL``.
    """
    g = np.asarray(data, dtype=float)
    if g.shape != (operator.n,):
        raise ValueError(f"data must have shape ({operator.n},)")
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite boundary data")
    lu = operator.factorize()
    x = sla.lu_solve(lu, g)
    scale = float(np.abs(g).max()) or 1.0
    residual = float(np.abs(operator.matrix @ x - g).max()) / scale
    if residual >= RESIDUAL_TOL:
        x = x + sla.lu_solve(lu, g - operator.matrix @ x)
        residual = float(np.abs(operator.matrix @ x - g).max()) / scale
        if residual >= RESIDUAL_TOL:
            raise SolverError(
                f"solve residual {residual:.3e} exceeds {RESIDUAL_TOL:g} "
                f"(rcond {operator._rcond:.3e})"
            )
    return SurfaceDensity(x, operator.mesh)


def mu0(mesh: TriMesh) -> SurfaceDensity:
    """Density with unit negative boundary potential (data -1)."""
    return solve_density(assemble_single_layer(mesh), -np.ones(mesh.n_triangles))


def capacity(mesh: TriMesh) -> float:
    """Electrostatic capacity; a sphere of radius a gives a."""
    value = -mu0(mesh).integral()
    if value <= 0:
        raise SolverError(f"non-positive capacity {value:g}")
    return value


def distance_moment(mesh: TriMesh, density: SurfaceDensity) -> np.ndarray:
    """Collocated values of ``integral |p - r| density(p) dsigma(p)``.

    Same near/far split as the operator: near entries of each distance
    block are replaced by the 3-point mean before the block meets the
    density.  The kernel is regular, so the diagonal uses the centroid value,
    exactly zero.
    """
    weighted = density.values * mesh.areas
    out = np.empty(mesh.n_triangles)
    ii, jj, acc = _near_rule_sums(mesh, lambda r: r)
    for i0, i1, dist in _centroid_distances(mesh):
        rows = (ii >= i0) & (ii < i1)
        dist[ii[rows] - i0, jj[rows]] = acc[rows] / 3.0
        out[i0:i1] = dist @ weighted
    return out

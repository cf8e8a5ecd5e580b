"""Single-layer potential on a triangulated surface: the operator, the
density solve, the distance moment and the capacity.

The operator maps a piecewise-constant surface density mu to the boundary
values of ``integral mu(p) / |p - r| dsigma(p)`` collocated at triangle
centroids.  In this representation the normal-derivative jump of the
potential across the surface is ``4 pi mu``; every formula downstream uses
that convention.  One entry rule (:func:`_entries`) forms every matrix
entry, in the blocks and in the regenerated residual rows alike: a far entry
is the panel's area over the centroid distance, and a listed entry (a close
pair, or a panel with itself) takes its value from the 3-point near rule or
from the exact self-integral.

Mirror symmetry (Allgower, Boehmer, Georg & Miranda, SIAM J. Numer. Anal.
29, 534, 1992): the coordinate sign flips that map the mesh's vertex set
and face set onto themselves, coordinates compared exactly, form a group
(:func:`_mirror_group`), and the operator commutes with the panel
permutations they induce.  Data are split into the group's characters, and
each part is solved on a dense block with one row and one column per orbit
of panels that carries the character, a column being the signed sum of the
orbit's images; the solution is expanded back to every panel.  Every
generated sphere and ellipsoid has all eight flips, so the blocks of its
low-k chain have about n/8 unknowns.  The mirror planes must pass through
the origin: a mesh off the origin, or without mirror planes, has only the
identity, and its one block is the whole n x n matrix.

Every dense product of the chain (the distance blocks, the distance moment
and the residual rows) calls ``scipy.linalg.blas``, the library whose LAPACK
factorises the blocks.  numpy's and scipy's wheels each bundle their own
OpenBLAS, and each library keeps its own thread pool, whose workers spin for
a while after every call; a chain that switched between the two would run
each library's threads beside the other's spinning ones.  The products are
written as the Fortran-ordered transposes of C-ordered buffers, into which
``dgemm``/``dgemv`` write in place.  Their operands come in the order in
which numpy's ``matmul`` passes them to BLAS, so the distances and the
moment equal the tests' numpy references bit for bit.

``mu0`` (boundary data -1) gives the capacity.  The boundary data of the
higher densities of the small-wavenumber expansion live with that
expansion, in :func:`hardscatter.lowfreq.solve_expansion_densities`.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas, lapack

from .geometry import SolverError, TriMesh, _dot3, _ranges, _squared_distances

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

# A part of the boundary data (one character's) is left unsolved when it is
# smaller than this times the largest part: rounding in the centroids and
# areas of mirrored panels leaves parts of about 1e-16 in data that is
# symmetric in exact arithmetic.  The residual check counts what is left.
_NEGLIGIBLE_PART = 1e-13


@dataclass(frozen=True)
class SurfaceDensity:
    """Piecewise-constant real field on the triangles of a mesh."""

    values: np.ndarray
    mesh: TriMesh

    def __post_init__(self):
        # a column (n, 1) would broadcast against the areas in integral()
        if np.shape(self.values) != (self.mesh.n_triangles,):
            raise ValueError(f"density must have shape ({self.mesh.n_triangles},)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite density values")

    def integral(self) -> float:
        """Surface integral, sum of value * area."""
        return float(np.sum(self.values * self.mesh.areas))

    def moment(self, coordinate_values: np.ndarray) -> float:
        """Surface integral weighted by a per-triangle coordinate field."""
        return float(np.sum(coordinate_values * self.values * self.mesh.areas))


class MirrorGroup(NamedTuple):
    """Coordinate sign flips that map a mesh onto itself, and their action
    on its panels.

    * ``signs``, (g, 3): the flips, the identity first;
    * ``images``, (g, n): flip h maps panel i onto panel ``images[h, i]``;
    * ``reps``, (m,): the least panel of each orbit, ascending;
    * ``characters``, (g, g): the group's characters, each the product of
      the flipped signs over some set of axes (even in every axis first,
      so ``characters[0]`` is 1 everywhere);
    * ``admissible``, (g, m): an orbit carries a character unless a flip
      that fixes its representative has the value -1 there.

    An orbit of k panels carries k of the g characters, so the blocks of
    all characters have n rows between them.
    """

    signs: np.ndarray
    images: np.ndarray
    reps: np.ndarray
    characters: np.ndarray
    admissible: np.ndarray


def _group(signs: np.ndarray, images: np.ndarray) -> MirrorGroup:
    """The :class:`MirrorGroup` of the flips ``signs`` and their panel
    permutations ``images``."""
    n = images.shape[1]
    reps = np.flatnonzero(images.min(axis=0) == np.arange(n))
    odd = np.array(list(itertools.product((False, True), repeat=3)))
    values = np.prod(np.where(odd[:, None, :], signs[None], 1.0), axis=2)
    # unique rows in descending order: the all-ones character first
    characters = np.unique(values, axis=0)[::-1]
    fixed = images[:, reps] == reps
    admissible = ~np.any((characters[:, :, None] < 0.0) & fixed[None], axis=1)
    return MirrorGroup(signs, images, reps, characters, admissible)


def _mirror_group(mesh: TriMesh) -> MirrorGroup:
    """The coordinate sign flips that map the vertex set and the face set
    of ``mesh`` onto themselves.

    Coordinates must match exactly; the lexicographic sort and the
    comparisons are by value, so ``-0.0`` matches ``0.0``.  A face matches
    its image as a set of vertices (a reflection reverses the winding).
    A flip that passes brings its products with the flips found before it,
    whose panel images are composed, not searched.
    """
    v, t = mesh.vertices, mesh.triangles
    faces = np.sort(t, axis=1)
    face_order = np.lexsort(faces.T[::-1])
    vertex_order = np.lexsort(v.T[::-1])
    flips = list(itertools.product((1.0, -1.0), repeat=3))
    found = {flips[0]: np.arange(len(t))}
    for flip in flips[1:]:
        if flip in found:
            continue
        w = v * np.array(flip)
        order = np.lexsort(w.T[::-1])
        if not np.array_equal(w[order], v[vertex_order]):
            continue
        to = np.empty(len(v), dtype=np.int64)
        to[order] = vertex_order
        mapped = np.sort(to[t], axis=1)
        mapped_order = np.lexsort(mapped.T[::-1])
        if not np.array_equal(mapped[mapped_order], faces[face_order]):
            continue
        image = np.empty(len(t), dtype=np.int64)
        image[mapped_order] = face_order
        found.update({tuple(np.multiply(flip, other).tolist()): image[other_image]
                      for other, other_image in list(found.items())})
    group = [flip for flip in flips if flip in found]
    return _group(np.array(group), np.array([found[flip] for flip in group]))


@dataclass
class SingleLayerOperator:
    """Collocation operator of the 1/|p - r| single layer, kept as its
    listed entries and the mirror group; its dense blocks are assembled and
    factorised on demand, one per character (:meth:`factorize`).

    Entry (i, j) of the full matrix approximates the integral of
    ``1/|p - c_i|`` over triangle j by the one entry rule (:func:`_entries`):
    its listed value if (i, j) is listed, else ``area_j / |c_i - c_j|``.
    Only the representatives' rows are ever formed: the blocks
    (:func:`_assemble_block`) and the residual rows, regenerated block by
    block (:func:`_row_block_products`) bit for bit as the identity group's
    block holds them.  Besides the centroids and areas they read:

    * ``mirrors``, the :class:`MirrorGroup` of the mesh;
    * ``near``, the listed entries ``(rows, jj, distance)``: the close pairs
      (reps[rows], jj) and each representative's own panel, sorted by row,
      and per entry the sum of ``|q - c_i|`` over the three rule nodes q on
      triangle jj (0 on the own panel), which :func:`distance_moment` reads;
    * ``near_values``, their values: the 3-point rule's on a close pair, the
      exact self-integral on the own panel.
    """

    mesh: TriMesh
    mirrors: MirrorGroup = field(repr=False)
    near: tuple = field(repr=False)
    near_values: np.ndarray = field(repr=False)
    _lu: dict = field(default_factory=dict, repr=False)
    _rcond: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.mesh.n_triangles

    def factorize(self, character: int):
        """Assemble the block of ``characters[character]`` and LU-factorize
        it in place, once; raise SolverError for a block with a non-finite
        entry and for singular systems.

        The 1-norm is NaN or inf when any entry is, so it doubles as the
        finiteness check.  Returns ``(lu, piv)`` as ``scipy.linalg.lu_factor``
        does.
        """
        if character not in self._lu:
            matrix = _assemble_block(self, character)
            anorm = float(lapack.dlange("1", matrix))
            if not np.isfinite(anorm):
                raise SolverError(f"non-finite single-layer matrix (1-norm {anorm})")
            lu, piv, info = lapack.dgetrf(matrix, overwrite_a=True)
            if info < 0:
                raise SolverError(f"LU factorization failed: dgetrf info {info}")
            # an exactly zero pivot (info > 0) gives rcond 0
            rcond, info = lapack.dgecon(lu, anorm)
            if info != 0 or not np.isfinite(rcond) or rcond < RCOND_FLOOR:
                raise SolverError(
                    f"singular single-layer system (rcond estimate {rcond:.3e}); "
                    "the mesh is likely degenerate"
                )
            self._lu[character] = (lu, piv)
            self._rcond[character] = float(rcond)
        return self._lu[character]


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


def _near_pairs(mesh: TriMesh, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (k, j) with ``j != rows[k]`` and ``|c_i - c_j| <= 2
    max(diam_i, diam_j)``, i = rows[k], for the centroids c and the triangle
    diameters; sorted by k, then j.

    The centroids are binned on a cell list (Hockney & Eastwood 1981) of
    cubes a hair wider than the search radius ``2 max diam``
    (:func:`_axis_cells`), and the cell of each panel of ``rows`` meets the
    27 cells of the stencil around it, one offset at a time.  A
    squared-distance prefilter with slack keeps the candidates within the
    radius, and the exact rule above decides.  The square roots of
    :func:`~hardscatter.geometry._squared_distances` equal
    ``np.linalg.norm``'s distances bit for bit, and are the same for (i, j)
    as for (j, i): ``p - q`` is exactly ``-(q - p)``.
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
    sorted_key = key[order]
    xyz = np.ascontiguousarray(cent[order].T)
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_key[1:] != sorted_key[:-1]
    start = np.flatnonzero(first)
    cell_key, count = sorted_key[start], np.diff(np.append(start, n))
    query, query_key = np.ascontiguousarray(cent[rows].T), key[rows]

    bound = radius * radius * _CELL_SLACK
    found = []
    for offset in itertools.product((-1, 0, 1), repeat=3):
        target = query_key + int((stride * offset).sum())
        # a target past the last key wraps round to the first: no match
        other = np.searchsorted(cell_key, target) % len(cell_key)
        points = np.flatnonzero(cell_key[other] == target)
        width = count[other[points]]
        k = np.repeat(points, width)
        j = _ranges(start[other[points]], width)
        d2 = _squared_distances(query.take(k, axis=1), xyz.take(j, axis=1))
        keep = d2 <= bound
        k, j, d2 = k[keep], order[j[keep]], d2[keep]
        i = rows[k]
        keep = (j != i) & (np.sqrt(d2) <= 2.0 * np.maximum(diam[i], diam[j]))
        found.append(k[keep] * n + j[keep])
    pair = np.sort(np.concatenate(found))
    k = pair // n
    return k, pair - k * n


def _centred_centroids(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Centroids ``c`` centred on their mean, and ``|c|^2``.

    A distance ``d`` taken as ``sqrt(|c_i|^2 + |c_j|^2 - 2 c_i.c_j)`` loses
    about ``|c|^2 / d^2`` ulps, so ``|c|`` must be the body's size, not its
    distance from the origin.
    """
    c = mesh.centroids - mesh.centroids.mean(axis=0)
    return c, _dot3(c, c)


def _centroid_distances(mesh: TriMesh, rows: np.ndarray):
    """Yield ``(k0, k1, dist)`` with ``dist`` the distances from the
    centroids of the panels ``rows[k0:k1]`` to every centroid, one row block
    at a time.

    Entry (k, j) of a block is ``sqrt(max((-2 c_i.c_j + |c_i|^2) + |c_j|^2,
    0))`` in centred coordinates, i = rows[k], from one GEMM, with an
    exactly-zero entry at j = i; no (rows, n, 3) array is formed.  The block
    buffer is reused, so consume each block before asking for the next.
    """
    c, sq = _centred_centroids(mesh)
    n, m = mesh.n_triangles, len(rows)
    block = np.empty((min(_ASSEMBLY_BLOCK, m), n))
    for k0 in range(0, m, _ASSEMBLY_BLOCK):
        k1 = min(k0 + _ASSEMBLY_BLOCK, m)
        panels = rows[k0:k1]
        dist = block[: k1 - k0]
        # dist.T is Fortran-ordered: dgemm fills it in place
        blas.dgemm(1.0, c.T, (-2.0 * c[panels]).T, c=dist.T, trans_a=True, overwrite_c=True)
        dist += sq[panels, None]
        dist += sq
        np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
        dist[np.arange(k1 - k0), panels] = 0.0
        yield k0, k1, dist


def _near_rule_sums(mesh: TriMesh, ii: np.ndarray, jj: np.ndarray):
    """Per near pair ``(i, j)``, the sums of ``1/|q - c_i|`` and of
    ``|q - c_i|`` over the three nodes q of the near rule on triangle j."""
    cent = mesh.centroids
    p0, p1, p2 = mesh.corners()
    inverse = np.zeros(len(ii))
    distance = np.zeros(len(ii))
    for w0, w1, w2 in _NEAR_RULE:
        q = w0 * p0[jj] + w1 * p1[jj] + w2 * p2[jj]
        r = np.linalg.norm(q - cent[ii], axis=1)
        inverse += 1.0 / r
        distance += r
    return inverse, distance


def _dense_solve_bytes(n: int, reps: int, pairs: int) -> int:
    """Bytes of the dense chain at n panels in ``reps`` orbits, with
    ``pairs`` near pairs in the representatives' rows.

    The blocks, factorised in place, add up to at most ``reps * n`` entries
    (an orbit of k panels is a row in k of them, and no block has more than
    ``reps`` rows); one block of regenerated rows has ``min(256, reps) * n``.
    Every pair counts 16 words: the working set of the near-pair search, of
    :func:`_near_rule_sums` and of the block assembly, of which the operator
    keeps four words a pair (``near`` and ``near_values``).  With the
    identity group (``reps = n``) this is the full matrix, one row block and
    16 words a pair.
    """
    return 8 * (reps * n + min(_ASSEMBLY_BLOCK, reps) * n) + 128 * pairs


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
    """Find the mesh's mirror group and the near field of its
    representatives' rows, searched from those rows only
    (:func:`_near_pairs`); the blocks follow on demand
    (:meth:`SingleLayerOperator.factorize`).

    Raises SolverError, after the search and before the near rule runs,
    when the dense chain would not fit in the available memory.
    """
    n = mesh.n_triangles
    mirrors = _mirror_group(mesh)
    m = len(mirrors.reps)
    rows, jj = _near_pairs(mesh, mirrors.reps)
    need = _dense_solve_bytes(n, m, len(rows))
    have = _available_bytes()
    if need > have:
        raise SolverError(
            f"job does not fit in memory: {n} panels need about "
            f"{need / 2**20:.1f} MiB, {have / 2**20:.1f} MiB available"
        )
    inverse, distance = _near_rule_sums(mesh, mirrors.reps[rows], jj)
    diag = _triangle_self_integral(mesh)
    if np.any(diag <= 0.0):
        raise SolverError("non-positive self-integral; degenerate triangle")
    # each representative's own panel is listed first in its row
    at = np.searchsorted(rows, np.arange(m))
    near = (np.insert(rows, at, np.arange(m)), np.insert(jj, at, mirrors.reps),
            np.insert(distance, at, 0.0))
    near_values = np.insert((mesh.areas[jj] / 3.0) * inverse, at, diag[mirrors.reps])
    return SingleLayerOperator(mesh, mirrors, near, near_values)


def _entries(block: np.ndarray, areas: np.ndarray, rows, cols, values) -> None:
    """Turn a block of centroid distances into single-layer entries, in
    place: ``areas / distance``, then the listed ``values`` at ``(rows,
    cols)``.  The listed entries hold every zero distance."""
    with np.errstate(divide="ignore"):
        np.divide(areas, block, out=block)
    block[rows, cols] = values


def _assemble_block(operator: SingleLayerOperator, character: int) -> np.ndarray:
    """The dense block of ``characters[character]``, column-major.

    Its rows and columns are the orbits that carry the character.  Entry
    (k, l) is ``sum chi(h) S[r_k, images[h, r_l]]`` over the distinct
    images of the representative r_l, h the first flip that reaches each.
    The columns are filled 256 at a time, flip by flip: a column block of S
    comes from one GEMM of distances and :func:`_entries`, and every flip
    after the identity adds its block, signed, to the identity's.  A listed
    entry is keyed to every flip that takes the column's representative
    onto its panel; the images after the first are weighted 0.  With the
    identity group the block is the full matrix, entry for entry as the
    rows of :func:`_row_block_products`.
    """
    mesh, mirrors = operator.mesh, operator.mirrors
    rows = np.flatnonzero(mirrors.admissible[character])
    reps = mirrors.reps[rows]
    b = len(reps)
    images = mirrors.images[:, reps]
    # chi(h) on the images that no earlier flip reached, 0 on the others
    new = np.array([np.all(images[:h] != images[h], axis=0) for h in range(len(images))])
    weight = mirrors.characters[character][:, None] * new

    # the listed entries of the block's rows, keyed by flip and column
    pair_rows, jj, _ = operator.near
    position = np.full(len(mirrors.reps), -1)
    position[rows] = np.arange(b)
    orbit = np.searchsorted(mirrors.reps, mirrors.images[:, jj].min(axis=0))
    row, col = position[pair_rows], position[orbit]
    inside = np.flatnonzero((row >= 0) & (col >= 0))
    flip, pair = np.nonzero(images[:, col[inside]] == jj[inside])
    pair = inside[pair]
    key = flip * b + col[pair]
    order = np.argsort(key, kind="stable")
    key, row, values = key[order], row[pair[order]], operator.near_values[pair[order]]

    c, sq = _centred_centroids(mesh)
    minus_2c = -2.0 * c[reps]
    row_sq = sq[reps]
    matrix = np.empty((b, b), order="F")
    scratch = np.empty((min(_ASSEMBLY_BLOCK, b), b))
    # Row l of the C-contiguous view matrix.T is column l of the block.  Its
    # entry k is areas[j] over the distance of (reps[k], j), with the
    # rounding of _centroid_distances: |c_k|^2 is added first.
    for h in range(len(images)):
        for l0 in range(0, b, _ASSEMBLY_BLOCK):
            l1 = min(l0 + _ASSEMBLY_BLOCK, b)
            j = images[h, l0:l1]
            block = matrix.T[l0:l1] if h == 0 else scratch[: l1 - l0]
            blas.dgemm(1.0, minus_2c.T, c[j].T, c=block.T, trans_a=True, overwrite_c=True)
            block += row_sq
            block += sq[j, None]
            np.sqrt(np.maximum(block, 0.0, out=block), out=block)
            lo, hi = np.searchsorted(key, (h * b + l0, h * b + l1))
            _entries(block.T, mesh.areas[j], row[lo:hi], key[lo:hi] - (h * b + l0),
                     values[lo:hi])
            if h:
                block *= weight[h, l0:l1, None]
                matrix.T[l0:l1] += block
    return matrix


def _split(mirrors: MirrorGroup, g: np.ndarray) -> np.ndarray:
    """The parts of the field ``g`` by character, on the representatives:
    part c at orbit k is ``(1/g) sum_h chi_c(h) g[images[h, reps[k]]]``."""
    values = g[mirrors.images[:, mirrors.reps]]
    return np.add.reduce(mirrors.characters[:, :, None] * values, axis=1) / len(values)


def _expand(mirrors: MirrorGroup, character: int, x: np.ndarray) -> np.ndarray:
    """The full field of a block's solution ``x``: ``chi(h) x_k`` on the
    image under flip h of the representative of orbit k, and zero on the
    orbits that do not carry the character."""
    reps = mirrors.reps[mirrors.admissible[character]]
    full = np.zeros(mirrors.images.shape[1])
    for image, sign in zip(mirrors.images, mirrors.characters[character]):
        full[image[reps]] = sign * x
    return full


def _row_block_products(operator: SingleLayerOperator, columns=None, weighted=None):
    """``S @ columns`` on the representatives' rows for an (n, p)
    ``columns``, and the distance moment ``D @ weighted`` on every row, from
    one pass over the row blocks of :func:`_centroid_distances`; either may
    be None, and so is its result.

    A block first meets ``weighted`` as the distance block, its listed
    entries replaced by their 3-point means: the row of a representative r
    meets ``weighted[images[h]]`` for each flip h, which gives the moment on
    the row images[h, r], as the operator commutes with the flips.  It then
    becomes operator entries (:func:`_entries`), so its rows equal the
    identity group's block bit for bit, and meets ``columns``.
    """
    mesh, mirrors = operator.mesh, operator.mirrors
    rows, jj, distance = operator.near
    reps = mirrors.reps
    product = None if columns is None else np.empty((len(reps), columns.shape[1]))
    if weighted is not None:
        flipped = weighted[mirrors.images]
        moments = np.empty((len(flipped), len(reps)))
    for k0, k1, dist in _centroid_distances(mesh, reps):
        lo, hi = np.searchsorted(rows, (k0, k1))
        block_rows, cols = rows[lo:hi] - k0, jj[lo:hi]
        if weighted is not None:
            dist[block_rows, cols] = distance[lo:hi] / 3.0
            for h, w in enumerate(flipped):
                blas.dgemv(1.0, dist.T, w, y=moments[h, k0:k1], trans=True, overwrite_y=True)
        if columns is not None:
            _entries(dist, mesh.areas, block_rows, cols, operator.near_values[lo:hi])
            blas.dgemm(1.0, columns.T, dist.T, c=product.T[:, k0:k1], overwrite_c=True)
    moment = None
    if weighted is not None:
        moment = np.empty(operator.n)
        for image, values in zip(mirrors.images, moments):
            moment[image[reps]] = values
    return product, moment


def _block_solve(operator: SingleLayerOperator, character: int, g: np.ndarray) -> np.ndarray:
    """The solution, on its block's orbits, of the part ``g`` of the data
    of one character, given on the representatives' rows."""
    return sla.lu_solve(operator.factorize(character),
                        g[operator.mirrors.admissible[character]], check_finite=False)


def solve_densities(operator: SingleLayerOperator, data, moment: bool = False):
    """Solve ``S mu = g`` for each boundary data ``g`` in ``data`` on the
    blocks of its parts (:func:`_split`), with one refinement round if
    needed.

    A part is solved by the LU of its character's block and expanded to
    every panel (:func:`_expand`); a part below ``_NEGLIGIBLE_PART`` times
    the largest is left unsolved.  The residuals are taken on regenerated
    representatives' rows (:func:`_row_block_products`), one pass a round
    for all the solutions still pending.  For each solution, the magnitudes
    of its parts' residuals and of its unsolved parts, summed per row, bound
    its residual on every row of that row's orbit, and their max-norm
    relative to the data's must come out below ``RESIDUAL_TOL``; the
    solutions that miss it are refined together, once.  With ``moment``,
    the pass that computes the first density also gives
    ``distance_moment(operator, densities[0])``, bit for bit, and the
    densities and that moment are returned; otherwise the densities.
    """
    gs = [np.asarray(g, dtype=float) for g in data]
    mirrors = operator.mirrors
    parts, unsolved = [], []  # per data: its parts (character, data, solution)
    for g in gs:
        if g.shape != (operator.n,):
            raise ValueError(f"data must have shape ({operator.n},)")
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite boundary data")
        split = _split(mirrors, g)
        size = np.abs(split).max(axis=1)
        solve = size >= _NEGLIGIBLE_PART * size.max()
        parts.append([(c, split[c], _block_solve(operator, c, split[c]))
                      for c in np.flatnonzero(solve).tolist()])
        unsolved.append(np.abs(split[~solve]).sum(axis=0))
    pending, xs, first_moment = list(range(len(gs))), [None] * len(gs), None
    for refined in (False, True):
        fulls = [[_expand(mirrors, c, x) for c, _, x in parts[i]] for i in pending]
        for i, full in zip(pending, fulls):
            xs[i] = np.add.reduce(full)
        weighted = xs[0] * operator.mesh.areas if moment and pending[0] == 0 else None
        product, taken = _row_block_products(operator, np.column_stack(sum(fulls, [])), weighted)
        if weighted is not None:
            first_moment = taken
        failed, start = [], 0
        for i in pending:
            own = product[:, start:start + len(parts[i])]
            start += len(parts[i])
            total = unsolved[i] + sum(np.abs(g - own[:, k]) for k, (_, g, _) in enumerate(parts[i]))
            value = float(total.max()) / (float(np.abs(gs[i]).max()) or 1.0)
            if value < RESIDUAL_TOL:
                continue
            if refined:
                rcond = min(operator._rcond[c] for c, _, _ in parts[i])
                raise SolverError(
                    f"solve residual {value:.3e} exceeds {RESIDUAL_TOL:g} "
                    f"(rcond {rcond:.3e})"
                )
            parts[i] = [(c, g, x + _block_solve(operator, c, g - own[:, k]))
                        for k, (c, g, x) in enumerate(parts[i])]
            failed.append(i)
        if not failed:
            break
        pending = failed
    densities = [SurfaceDensity(x, operator.mesh) for x in xs]
    return (densities, first_moment) if moment else densities


def solve_density(operator: SingleLayerOperator, data: np.ndarray) -> SurfaceDensity:
    """Solve S mu = data on the blocks of the data's parts, with one
    refinement pass if needed.

    A solve factorises the blocks it needs, in place
    (:meth:`SingleLayerOperator.factorize`).  The residual, taken on
    regenerated rows, must come out below ``RESIDUAL_TOL``; see
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
    """Collocated values of ``integral |p - r| density(p) dsigma(p)`` on
    every panel.

    Same near/far split as the operator, read from ``operator.near``: near
    entries of each distance block are replaced by the 3-point mean before
    the block meets the density.  The kernel is regular, so the diagonal
    uses the centroid value, exactly zero.  The rows are the
    representatives'; the others follow by the flips
    (:func:`_row_block_products`).
    """
    return _row_block_products(operator, weighted=density.values * operator.mesh.areas)[1]

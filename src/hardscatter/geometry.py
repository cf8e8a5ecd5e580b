"""Closed triangulated surfaces: generators, OFF I/O, validation, and the
projection/reflection operations the scattering pipeline is built on.

All meshes are closed, consistently wound, outward-oriented triangle soups
with per-triangle centroid/normal/area caches.  Coordinates are plain
lengths; the incident direction used everywhere else in the package is the
+z axis.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "MeshError",
    "MeshFormatError",
    "MeshTopologyError",
    "MeshOrientationError",
    "MeshDegeneracyError",
    "SolverError",
    "TrustRegionError",
    "TriMesh",
    "Sphere",
    "Ellipsoid",
    "CappedCylinder",
    "make_body",
    "load_mesh",
    "loads_mesh",
    "save_mesh",
    "dumps_mesh",
    "mesh_volume",
    "reflect",
    "shadow_area",
]

# Relative area floor for degeneracy detection (fraction of the square of
# the triangle's longest edge).
AREA_EPS = 1e-12
# Most vertices in a leaf of a mesh's vertex tree (_vertex_leaves)
_TREE_LEAF = 32


def _dot3(a, b):
    """Row-wise dot products of (n, 3) arrays of any layout, or of one
    against a 3-vector, summed as ``(x x' + z z') + y y'``.

    That is the order of numpy 2.4's ``einsum("ij,ij->i")`` and
    ``einsum("ij,j->i")`` over C-contiguous rows on x86-64 with AVX-512;
    over Fortran-ordered rows einsum sums ``(x x' + y y') + z z'`` instead.
    Every dot product of 3-vectors in the package goes through here, so its
    bits do not depend on the layout of the rows (the ray tracer keeps its
    rays coordinate-major).  test_dot3_sums_as_einsum fails on a numpy that
    sums in another order.
    """
    ax, ay, az = a.T
    bx, by, bz = b.T
    return (ax * bx + az * bz) + ay * by


class MeshError(Exception):
    """Base class for mesh ingestion and validation failures."""


class MeshFormatError(MeshError):
    """Malformed OFF text."""


class MeshTopologyError(MeshError):
    """No triangles, an open surface or a non-manifold edge."""


class MeshOrientationError(MeshError):
    """Inconsistent winding or inward-facing orientation."""


class MeshDegeneracyError(MeshError):
    """Triangle with (near-)zero area."""


# The errors of the other engines live here too, beside MeshError, so that
# the ray tracer (whose TrappingError is a SolverError) and the CLI can catch
# them without importing scipy; potential and lowfreq re-export them.


class SolverError(Exception):
    """Dense solve failed: singular system or unacceptable residual."""


class TrustRegionError(ValueError):
    """k * diameter outside the validated range of the low-k expansion."""


@dataclass(frozen=True)
class TriMesh:
    """Validated closed triangulated surface with per-triangle caches.

    Attributes
    ----------
    vertices : (nv, 3) float array
    triangles : (nt, 3) int array of vertex indices, outward wound
    centroids, normals : (nt, 3) float arrays
    areas : (nt,) float array
    diameter : max pairwise vertex distance
    tree : the vertices' median-split tree (:func:`_vertex_tree`), which
        the diameter search and the ray tracer's supporting-face test read
    """

    vertices: np.ndarray
    triangles: np.ndarray
    centroids: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)
    areas: np.ndarray = field(repr=False)
    diameter: float
    tree: _VertexTree = field(repr=False, compare=False)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def corners(self):
        """The three (nt, 3) corner arrays, in winding order."""
        v, t = self.vertices, self.triangles
        return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    def triangle_diameters(self) -> np.ndarray:
        """Longest edge of each triangle."""
        p0, p1, p2 = self.corners()
        edges = np.stack([
            np.linalg.norm(p1 - p0, axis=1),
            np.linalg.norm(p2 - p1, axis=1),
            np.linalg.norm(p0 - p2, axis=1),
        ])
        return edges.max(axis=0)

    @classmethod
    def from_arrays(cls, vertices, triangles) -> "TriMesh":
        """Build and fully validate a mesh from raw arrays.

        Raises the specific :class:`MeshError` subclass for open surfaces,
        non-manifold or inconsistently wound edges, inward orientation, and
        degenerate triangles: those whose area is at most ``AREA_EPS`` times
        the square of their longest edge.
        """
        v = np.ascontiguousarray(np.asarray(vertices, dtype=float))
        t = np.ascontiguousarray(np.asarray(triangles, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshFormatError(f"vertex array must be (n, 3), got {v.shape}")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshFormatError(f"triangle array must be (n, 3), got {t.shape}")
        if not np.all(np.isfinite(v)):
            raise MeshFormatError("non-finite vertex coordinates")
        if t.min(initial=0) < 0 or t.max(initial=-1) >= len(v):
            raise MeshFormatError("triangle index out of range")

        _check_topology(t)

        p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
        cross = np.cross(p1 - p0, p2 - p0)
        areas = 0.5 * np.linalg.norm(cross, axis=1)
        longest_sq = _sq_norms(np.stack([p1 - p0, p2 - p1, p0 - p2])).max(axis=0)
        bad = np.nonzero(areas <= AREA_EPS * longest_sq)[0]
        if bad.size:
            raise MeshDegeneracyError(
                f"{bad.size} degenerate triangle(s), first index {bad[0]}"
            )
        normals = cross / (2.0 * areas)[:, None]
        centroids = (p0 + p1 + p2) / 3.0

        signed_volume = np.sum(_dot3(centroids, normals) * areas) / 3.0
        if signed_volume <= 0.0:
            raise MeshOrientationError(
                f"signed volume {signed_volume:g} <= 0; winding is inward"
            )
        tree = _vertex_tree(v)
        return cls(v, t, centroids, normals, areas, _point_set_diameter(v, tree), tree)


def _check_topology(triangles: np.ndarray) -> None:
    """Closed manifold check: every edge in exactly two faces, opposite ways."""
    a = triangles
    if not len(a):
        raise MeshTopologyError("mesh has no triangles")
    edges = np.concatenate([a[:, [0, 1]], a[:, [1, 2]], a[:, [2, 0]]])
    lo = edges.min(axis=1)
    hi = edges.max(axis=1)
    if np.any(lo == hi):
        raise MeshDegeneracyError("triangle with a repeated vertex")
    key = lo * (edges.max() + 1) + hi
    order = np.argsort(key, kind="stable")
    key_sorted = key[order]
    uniq, start, counts = np.unique(key_sorted, return_index=True, return_counts=True)
    if np.any(counts != 2):
        i = np.nonzero(counts != 2)[0][0]
        e = edges[order[start[i]]]
        kind = "open surface" if counts[i] == 1 else "non-manifold edge"
        raise MeshTopologyError(f"{kind} at edge ({e[0]}, {e[1]})")
    # Opposite traversal: the two directed copies must differ.
    first_fwd = edges[order[start], 0] == lo[order[start]]
    second_fwd = edges[order[start + 1], 0] == lo[order[start + 1]]
    clash = np.nonzero(first_fwd == second_fwd)[0]
    if clash.size:
        e = edges[order[start[clash[0]]]]
        raise MeshOrientationError(
            f"edge ({e[0]}, {e[1]}) traversed twice in the same direction"
        )


def _vertex_leaves(vertices):
    """The vertices cut into 2^j leaves of at most ``_TREE_LEAF`` each, by
    median splits along each box's longest side: their indices as (2^j, m)
    rows.  The last rows repeat a few vertices to fill.  Rows 2k and 2k + 1
    are the halves of row k of the level above, so ``rows.reshape(2^i, -1)``
    gives the nodes of level i of the tree."""
    levels = max(0, int(np.ceil(np.log2(len(vertices) / _TREE_LEAF))))
    size = -(-len(vertices) // 2**levels)
    rows = np.resize(np.arange(len(vertices)), 2**levels * size)[None, :]
    for _ in range(levels):
        p = vertices[rows]
        axis = np.argmax(p.max(axis=1) - p.min(axis=1), axis=1)
        key = np.take_along_axis(p, axis[:, None, None], axis=2)[:, :, 0]
        rows = np.take_along_axis(rows, np.argsort(key, axis=1), axis=1)
        rows = rows.reshape(2 * len(rows), -1)
    return rows


class _VertexTree(NamedTuple):
    """A point set cut into leaves by :func:`_vertex_leaves`."""

    rows: np.ndarray     # (2^j, m) point indices of the leaves
    center: np.ndarray   # the points' mean
    centred: np.ndarray  # (2^j, m, 3): the leaves' points less ``center``


def _vertex_tree(points) -> _VertexTree:
    rows = _vertex_leaves(points)
    center = points.mean(axis=0)
    return _VertexTree(rows, center, points[rows] - center)


# about how many pair values the diameter search forms at once: 1 MiB an
# array, so the temporaries stay in cache
_DIAMETER_BATCH = 2**17


def _squared_distances(p, q):
    """``(dx^2 + dy^2) + dz^2`` between coordinate-major points ``p`` and
    ``q``, (3, ...) arrays that broadcast: the arithmetic of scipy's
    ``cdist(..., "sqeuclidean")`` and of the sum of squares inside
    ``np.linalg.norm(..., axis=1)``."""
    total = p[0] - q[0]
    total *= total
    for k in (1, 2):
        d = p[k] - q[k]
        d *= d
        total += d
    return total


def _sq_norms(v):
    """Squared lengths of the 3-vectors along the last axis, in any order of
    summation: for bounds and floors only."""
    return np.einsum("...k,...k->...", v, v)


def _ranges(starts, counts):
    """The integer ranges ``starts[i] .. starts[i] + counts[i] - 1``, one
    after the other."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _point_set_diameter(points: np.ndarray, tree: _VertexTree) -> float:
    """Max pairwise distance: the square root of the largest
    :func:`_squared_distances` value over pairs of points, so
    ``sqrt(cdist(points, points, "sqeuclidean").max())`` bit for bit.

    Two farthest-point sweeps give a lower bound, itself a pair's value.
    The points' ``tree`` of median splits (:func:`_vertex_tree`) is walked
    down in pairs of nodes, dropping each pair whose bound on its squared
    distances falls below the lower bound.  With ``g`` the difference of
    the two nodes' mean points and ``rho`` their radii about them, the
    bound is ``(|g| + rho_a + rho_b)^2`` above the leaves.  At the leaves it is
    ``|g|^2 + 2 max_a g.(p - m_a) - 2 min_b g.(q - m_b) + (rho_a + rho_b)^2``,
    tight to second order, so near-antipodal caps of a sphere are not all
    kept.  The bounds are formed in coordinates centred on the points' mean
    and carry a slack of 2^-30 times the largest centred |p|^2, which is
    far above their rounding, that of the centring, and that of a pair's
    value.  The leaf pairs left are evaluated, largest bound first, until
    the bounds fall below the largest value found.  Up to 362 points, all
    pairs are evaluated at once.
    """
    xyz = np.ascontiguousarray(points.T)
    if len(points) ** 2 <= _DIAMETER_BATCH:
        return float(np.sqrt(_squared_distances(xyz[:, :, None], xyz[:, None]).max()))
    best, i = 0.0, 0
    for _ in range(2):
        d2 = _squared_distances(xyz, xyz[:, i : i + 1])
        i = int(np.argmax(d2))
        best = max(best, float(d2[i]))

    rows, centred = tree.rows, tree.centred
    slack = 2.0**-30 * float(_sq_norms(centred).max())
    a = b = np.zeros(1, dtype=np.int64)
    depth = len(rows).bit_length() - 1
    for level in range(depth + 1):
        node = centred.reshape(2**level, -1, 3)
        mean = node.mean(axis=1)
        v = node - mean[:, None]
        radius = np.sqrt(_sq_norms(v).max(axis=1))
        g = mean[a] - mean[b]
        reach = radius[a] + radius[b]
        if level < depth:
            keep = (np.sqrt(_sq_norms(g)) + reach) ** 2 + slack >= best
            # the four child pairs, less the mirror image of a node with itself
            a = (2 * a[keep, None] + (0, 0, 1, 1)).ravel()
            b = (2 * b[keep, None] + (0, 1, 0, 1)).ravel()
            keep = a <= b
            a, b = a[keep], b[keep]
    bound = _sq_norms(g) + reach * reach + slack
    step = max(1, _DIAMETER_BATCH // v.shape[1])
    for k in range(0, len(a), step):
        part = slice(k, k + step)
        bound[part] += 2.0 * (np.einsum("pmk,pk->pm", v[a[part]], g[part]).max(axis=1)
                              - np.einsum("pmk,pk->pm", v[b[part]], g[part]).min(axis=1))

    # (3, leaf size, leaves): the pairs of a batch run along the last axis
    leaves = np.ascontiguousarray(points[rows.T].transpose(2, 0, 1))
    batch = max(1, _DIAMETER_BATCH // rows.shape[1] ** 2)
    order = np.argsort(-bound)
    for k in range(0, len(order), batch):
        pairs = order[k : k + batch]
        if bound[pairs[0]] < best:
            break
        p = np.take(leaves, a[pairs], axis=2)
        q = np.take(leaves, b[pairs], axis=2)
        best = max(best, float(_squared_distances(p[:, :, None], q[:, None]).max()))
    return float(np.sqrt(best))


# ---------------------------------------------------------------------------
# analytic bodies and generators


# Dimensions of an analytic body that the float kernels handle: the tracer
# squares and multiplies lengths, so each dimension lies in
# [_MIN_LENGTH, _MAX_LENGTH], and an ellipsoid's largest semi-axis is at
# most _MAX_ELLIPSOID_RATIO times its smallest, past which a grid-256 trace
# traps or its discriminant cancels at some scales.
_MIN_LENGTH, _MAX_LENGTH = 1e-50, 1e50
_MAX_ELLIPSOID_RATIO = 1e5


def _check_lengths(what: str, *lengths) -> None:
    if not all(_MIN_LENGTH <= v <= _MAX_LENGTH for v in lengths):
        raise ValueError(f"{what} must lie in [{_MIN_LENGTH:g}, {_MAX_LENGTH:g}]")


@dataclass(frozen=True)
class Sphere:
    radius: float

    def __post_init__(self):
        _check_lengths("sphere radius", self.radius)


@dataclass(frozen=True)
class Ellipsoid:
    """Semi-axes a, b, c along x, y, z."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        axes = (self.a, self.b, self.c)
        _check_lengths("ellipsoid semi-axes", *axes)
        if max(axes) > _MAX_ELLIPSOID_RATIO * min(axes):
            raise ValueError("ellipsoid semi-axes must lie within a ratio of "
                             f"{_MAX_ELLIPSOID_RATIO:g} of each other")


@dataclass(frozen=True)
class CappedCylinder:
    """Circular cylinder with flat caps, axis along z, centered at the origin."""

    radius: float
    height: float

    def __post_init__(self):
        _check_lengths("cylinder radius and height", self.radius, self.height)


_GOLD = (1.0 + np.sqrt(5.0)) / 2.0

# most triangles on a capped cylinder's side, the level-7 icosphere's count:
# the side's count grows with height / radius, and past this it would build
# millions of vertices.  A (1, 2) cylinder at level 6, the CLI's finest, has
# 41984.
_MAX_SIDE_TRIANGLES = 81_920


def _icosahedron():
    p = _GOLD
    v = np.array(
        [
            [-1, p, 0], [1, p, 0], [-1, -p, 0], [1, -p, 0],
            [0, -1, p], [0, 1, p], [0, -1, -p], [0, 1, -p],
            [p, 0, -1], [p, 0, 1], [-p, 0, -1], [-p, 0, 1],
        ],
        dtype=float,
    )
    v /= np.linalg.norm(v[0])
    f = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return v, f


def _subdivide(vertices, faces):
    """Split every triangle at its edge midpoints (faces x4).

    The edges are met face by face, in the order ab, bc, ca, and each new
    midpoint vertex is numbered where its edge is first met.
    """
    v = np.asarray(vertices, dtype=float)
    f = np.asarray(faces, dtype=np.int64)
    edges = np.sort(f[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, first, inverse = np.unique(edges[:, 0] * len(v) + edges[:, 1],
                                  return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(v), len(v) + len(first))
    ab, bc, ca = rank[inverse].reshape(-1, 3).T
    a, b, c = f.T
    out = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)
    i, j = edges[np.sort(first)].T
    return np.concatenate([v, (v[i] + v[j]) / 2.0]), out.reshape(-1, 3)


def _unit_icosphere(level: int):
    # level 1 is the bare icosahedron (level 0 is accepted as an alias);
    # each further level quadruples the face count, so faces = 20 * 4**(level-1).
    v, f = _icosahedron()
    for _ in range(max(level - 1, 0)):
        v, f = _subdivide(v, f)
        v /= np.linalg.norm(v, axis=1)[:, None]
    return v, f


def _disc_triangulation(n_phi: int, n_r: int):
    """Structured unit-disc mesh, counterclockwise in the plane.

    Concentric rings with the angular count halved whenever panels would
    get thin toward the center; the rim ring (radius 1, ``n_phi`` points at
    angles 2 pi j / n_phi) occupies the first ``n_phi`` point slots so a
    caller can splice it onto existing rim vertices.
    """
    counts = [n_phi]
    for m in range(1, n_r):
        c = counts[-1]
        r = (n_r - m) / n_r
        if c % 2 == 0 and c >= 16 and 2.0 * np.pi * r / c < 0.55 / n_r:
            c //= 2
        counts.append(c)
    points: list[np.ndarray] = []
    rings = []
    for m, c in enumerate(counts):
        r = (n_r - m) / n_r
        ang = 2.0 * np.pi * np.arange(c) / c
        rings.append(len(points) + np.arange(c, dtype=np.int64))
        points.extend(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
    center = len(points)
    points.append(np.zeros(2))
    tris: list[list[int]] = []
    for m in range(n_r - 1):
        outer, inner = rings[m], rings[m + 1]
        co, ci = counts[m], counts[m + 1]
        if co == ci:
            for j in range(co):
                jn = (j + 1) % co
                tris.append([outer[j], outer[jn], inner[jn]])
                tris.append([outer[j], inner[jn], inner[j]])
        else:  # ci == co // 2, aligned every other point
            for k in range(ci):
                f0, f1 = outer[2 * k], outer[2 * k + 1]
                f2 = outer[(2 * k + 2) % co]
                c0, c1 = inner[k], inner[(k + 1) % ci]
                tris.append([f0, f1, c0])
                tris.append([f1, c1, c0])
                tris.append([f1, f2, c1])
    innermost = rings[-1]
    for j in range(counts[-1]):
        tris.append([center, innermost[j], innermost[(j + 1) % counts[-1]]])
    return np.asarray(points), np.asarray(tris, dtype=np.int64)


def _cylinder_mesh(radius: float, height: float, level: int):
    n_phi = 8 * 2 ** max(level - 1, 0)
    # even band count keeps the triangulation mirror-symmetric in z
    n_z = 2 * max(1, round(n_phi * height / (4.0 * np.pi * radius)))
    if 2 * n_phi * n_z > _MAX_SIDE_TRIANGLES:
        raise MeshError(
            f"a cylinder of height / radius {height / radius:g} at level {level} "
            f"needs {2 * n_phi * n_z:.3g} side triangles, more than "
            f"{_MAX_SIDE_TRIANGLES}"
        )
    n_r = max(1, round(n_phi / (2.0 * np.pi)))
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    zs = -height / 2.0 + height * np.arange(n_z + 1) / n_z

    verts: list[np.ndarray] = []
    side = np.empty((n_z + 1, n_phi), dtype=np.int64)
    for i, z in enumerate(zs):
        side[i] = len(verts) + np.arange(n_phi, dtype=np.int64)
        verts.extend(
            np.column_stack(
                [radius * np.cos(phi), radius * np.sin(phi), np.full(n_phi, z)]
            )
        )

    faces: list[list[int]] = []
    for i in range(n_z):
        for j in range(n_phi):
            jn = (j + 1) % n_phi
            a, b = side[i, j], side[i, jn]
            c, d = side[i + 1, jn], side[i + 1, j]
            if i < n_z // 2:
                faces.append([a, b, c])
                faces.append([a, c, d])
            else:  # mirrored diagonal in the upper half
                faces.append([a, b, d])
                faces.append([b, c, d])

    disc_points, disc_tris = _disc_triangulation(n_phi, n_r)
    for sign, z_cap, rim in ((-1, zs[0], side[0]), (1, zs[-1], side[-1])):
        index_map = np.empty(len(disc_points), dtype=np.int64)
        index_map[:n_phi] = rim
        for p in range(n_phi, len(disc_points)):
            index_map[p] = len(verts)
            verts.append(
                np.array([radius * disc_points[p, 0], radius * disc_points[p, 1], z_cap])
            )
        for a, b, c in disc_tris:
            if sign > 0:
                faces.append([index_map[a], index_map[b], index_map[c]])
            else:
                faces.append([index_map[a], index_map[c], index_map[b]])
    return np.asarray(verts), np.asarray(faces, dtype=np.int64)


def make_body(body: Sphere | Ellipsoid | CappedCylinder, level: int) -> TriMesh:
    """Triangulate an analytic body, inscribed, at the given refinement level.

    Sphere and ellipsoid meshes are subdivided icosahedra with
    ``20 * 4**(level-1)`` faces (level <= 1 gives the base solid); the
    capped cylinder uses ring bands plus fan caps, roughly quadrupling
    faces per level; one whose side would need more than
    ``_MAX_SIDE_TRIANGLES`` raises :class:`MeshError` before it is built.
    """
    if level < 0:
        raise ValueError("refinement level must be >= 0")
    if isinstance(body, Sphere):
        v, f = _unit_icosphere(level)
        return TriMesh.from_arrays(v * body.radius, f)
    if isinstance(body, Ellipsoid):
        v, f = _unit_icosphere(level)
        return TriMesh.from_arrays(v * np.array([body.a, body.b, body.c]), f)
    if isinstance(body, CappedCylinder):
        v, f = _cylinder_mesh(body.radius, body.height, level)
        return TriMesh.from_arrays(v, f)
    raise TypeError(f"not an analytic body: {body!r}")


# ---------------------------------------------------------------------------
# OFF interchange


def loads_mesh(text: str) -> TriMesh:
    """Parse OFF text (triangles only) into a validated TriMesh."""
    tokens_per_line = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens_per_line.append((lineno, line.split()))
    if not tokens_per_line:
        raise MeshFormatError("empty OFF document")
    lineno, head = tokens_per_line[0]
    if head != ["OFF"]:
        raise MeshFormatError(f"line {lineno}: expected 'OFF' header")
    if len(tokens_per_line) < 2:
        raise MeshFormatError("missing counts line")
    lineno, counts = tokens_per_line[1]
    if len(counts) != 3:
        raise MeshFormatError(f"line {lineno}: counts line must be 'nv nf ne'")
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except ValueError as exc:
        raise MeshFormatError(f"line {lineno}: bad counts line") from exc
    if nv < 0 or nf < 0:
        raise MeshFormatError(f"line {lineno}: negative count")
    body = tokens_per_line[2:]
    if len(body) != nv + nf:
        raise MeshFormatError(
            f"expected {nv} vertex and {nf} face lines, found {len(body)}"
        )
    verts = np.empty((nv, 3))
    for i, (lineno, tok) in enumerate(body[:nv]):
        if len(tok) != 3:
            raise MeshFormatError(f"line {lineno}: vertex needs 3 coordinates")
        try:
            verts[i] = [float(s) for s in tok]
        except ValueError as exc:
            raise MeshFormatError(f"line {lineno}: bad vertex coordinate") from exc
    tris = np.empty((nf, 3), dtype=np.int64)
    for i, (lineno, tok) in enumerate(body[nv:]):
        if len(tok) != 4 or tok[0] != "3":
            raise MeshFormatError(f"line {lineno}: faces must be triangles '3 i j k'")
        try:
            tris[i] = [int(s) for s in tok[1:]]
        except ValueError as exc:
            raise MeshFormatError(f"line {lineno}: bad vertex index") from exc
    return TriMesh.from_arrays(verts, tris)


def load_mesh(path) -> TriMesh:
    """Read an OFF file from disk.  A file that cannot be opened or is not
    UTF-8 text is a :class:`MeshFormatError` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshFormatError(f"cannot read {path}: {exc}") from exc
    return loads_mesh(text)


def dumps_mesh(mesh: TriMesh) -> str:
    """Serialize to OFF text with 17 significant digits."""
    out = io.StringIO()
    out.write("OFF\n")
    out.write(f"{len(mesh.vertices)} {len(mesh.triangles)} 0\n")
    for x, y, z in mesh.vertices:
        out.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
    for a, b, c in mesh.triangles:
        out.write(f"3 {a} {b} {c}\n")
    return out.getvalue()


def save_mesh(mesh: TriMesh, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_mesh(mesh))


# ---------------------------------------------------------------------------
# operations


def mesh_volume(mesh: TriMesh) -> float:
    """Enclosed volume via the divergence theorem, (1/3) sum (c.n) A."""
    return float(
        np.sum(_dot3(mesh.centroids, mesh.normals) * mesh.areas) / 3.0
    )


def reflect(mesh: TriMesh) -> TriMesh:
    """Mirror the body through the z = 0 plane, keeping outward winding."""
    v = mesh.vertices.copy()
    v[:, 2] = -v[:, 2]
    t = mesh.triangles[:, [0, 2, 1]]
    return TriMesh.from_arrays(v, t)


def shadow_area(mesh: TriMesh, grid: int = 1024) -> float:
    """Area of the projection onto the plane perpendicular to the z axis.

    Rasterizes every projected triangle onto a ``grid x grid`` lattice over
    the shadow bounding box and counts cells whose center is covered.  The
    error is O(1/grid).
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    xy = mesh.vertices[:, :2]
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    span = hi - lo
    if span[0] <= 0 or span[1] <= 0:
        return 0.0
    cell = span / grid
    covered = np.zeros((grid, grid), dtype=bool)
    p0, p1, p2 = (c[:, :2] for c in mesh.corners())
    det = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (
        p1[:, 1] - p0[:, 1]
    ) * (p2[:, 0] - p0[:, 0])
    eps = 1e-12
    for k in range(len(p0)):
        d = det[k]
        if abs(d) < eps * max(cell[0], cell[1]) ** 2:
            continue  # edge-on triangle, measure-zero shadow
        tri = np.array([p0[k], p1[k], p2[k]])
        tlo = np.maximum(np.floor((tri.min(axis=0) - lo) / cell - 0.5), 0).astype(int)
        thi = np.minimum(
            np.ceil((tri.max(axis=0) - lo) / cell - 0.5), grid - 1
        ).astype(int)
        if np.any(thi < tlo):
            continue
        xs = lo[0] + (np.arange(tlo[0], thi[0] + 1) + 0.5) * cell[0]
        ys = lo[1] + (np.arange(tlo[1], thi[1] + 1) + 0.5) * cell[1]
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        # barycentric coordinates relative to the projected triangle
        w1 = ((X - p0[k, 0]) * (p2[k, 1] - p0[k, 1]) - (Y - p0[k, 1]) * (p2[k, 0] - p0[k, 0])) / d
        w2 = ((Y - p0[k, 1]) * (p1[k, 0] - p0[k, 0]) - (X - p0[k, 0]) * (p1[k, 1] - p0[k, 1])) / d
        inside = (w1 >= -eps) & (w2 >= -eps) & (w1 + w2 <= 1 + eps)
        covered[tlo[0] : thi[0] + 1, tlo[1] : thi[1] + 1] |= inside
    return float(covered.sum()) * float(cell[0] * cell[1])

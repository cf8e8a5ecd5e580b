"""Classical scattering by ray tracing: shadow cross section, resistance,
and the squared classical amplitude as a direction histogram.

A uniform grid of rays covers the shadow bounding box; every ray travels
along +z (the incident direction used package-wide), bounces specularly
``k+ = k - 2 (k.n) n`` until it escapes, and contributes its cell area to
whatever direction bin it leaves through.  The two classical observables

    sigma_cl = |shadow|                 (hit area)
    R_cl     = integral (1 - e.k+) dx   (momentum transfer)

use the momentum-transfer form as authoritative; the cos(theta)-weighted
direction integral is also reported since the two differ (only the former
matches the flat-cap identity R_cl = 2 sigma_cl and the high-k limit of
the transport cross section).

A ray that leaves a supporting face is done.  A face is supporting when
every vertex of the body lies behind its plane, within 1e-12 * diameter;
every point of an analytic body is.  A ray that hits a supporting face from
its front (d.n < 0) leaves into the half-space in front of it, which the
body does not reach, so after that reflection the tracer records its
direction and drops it from the next bounce pass.  On a convex body every
ray is done after one reflection and a block takes one pass.  The front
side matters: a ray that slips through a crease meets a face from behind.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _THREAD_VARS
from ._table import write_csv
from .geometry import CappedCylinder, Ellipsoid, SolverError, Sphere, TriMesh, _dot3, _ranges
from .sphere_oracle import fig1_sweep

__all__ = [
    "TrappingError",
    "RayTraceResult",
    "FclHistogram",
    "trace",
    "Theorem2Report",
    "theorem2_check",
    "trace_to_csv",
    "histogram_to_csv",
]

# Reflections a ray may take before the trace raises a TrappingError
DEFAULT_BOUNCE_CAP = 64
DEFAULT_BINS = (64, 64)

_RAY_CHUNK = 1_000_000       # rays per chunk of grid rows; sums are per chunk
# Most rays in one block of the trace lattice, the unit of work a thread
# bounces; the bounce loop's temporaries for a million rays would take
# about 150 MiB.
_PART_BLOCK = 131_072
# Meshes: ray*triangle pairs per block of the bounding-sphere cull (a block
# of rays against every triangle), per group of the lattice cull (give or
# take one triangle's pairs) and per Moller-Trumbore batch, so that a
# block's arrays stay in cache.  It is per worker: each thread of a trace
# works on its own block.  A cull block has at least _MIN_BLOCK_RAYS rays,
# so that a large mesh does not loop over blocks of a few rays.
_PAIR_BUDGET = 32_768
_MIN_BLOCK_RAYS = 8


class TrappingError(SolverError):
    """A ray exceeded the bounce cap (trapping geometry).

    A :class:`~hardscatter.geometry.SolverError`, so the CLI reports it as
    a solver error (exit code 4)."""

    def __init__(self, entry_xy, cap):
        self.entry_xy = tuple(float(v) for v in entry_xy)
        super().__init__(
            f"ray entering at (x, y) = {self.entry_xy} still bouncing "
            f"after {cap} reflections"
        )


@dataclass(frozen=True)
class FclHistogram:
    """|f_cl|^2 on an equal-area direction grid (cos(theta) x phi bins)."""

    values: np.ndarray   # (n_cos, n_phi), area mapped into bin / bin solid angle
    counts: np.ndarray   # (n_cos, n_phi) ray counts
    n_cos: int
    n_phi: int
    bin_solid_angle: float

    def cos_centers(self) -> np.ndarray:
        return -1.0 + (np.arange(self.n_cos) + 0.5) * (2.0 / self.n_cos)

    def phi_centers(self) -> np.ndarray:
        return -np.pi + (np.arange(self.n_phi) + 0.5) * (2.0 * np.pi / self.n_phi)


@dataclass(frozen=True)
class RayTraceResult:
    """Outcome of one grid trace.

    ``r_cl`` is the momentum-transfer integral; ``r_cl_cos_weighted`` is the
    direction-space cos(theta) integral reported for comparison.  The rays
    themselves are not kept: ``histogram`` holds their ``DEFAULT_BINS``
    counts.
    """

    sigma_cl: float
    r_cl: float
    r_cl_cos_weighted: float
    rays_total: int
    rays_hit: int
    max_bounces_seen: int
    histogram: FclHistogram


def _body_box(body):
    """Bounds ``((xmin, xmax), (ymin, ymax), zmin)`` and length scale of the
    body."""
    if isinstance(body, TriMesh):
        lo = body.vertices.min(axis=0)
        hi = body.vertices.max(axis=0)
        return ((lo[0], hi[0]), (lo[1], hi[1]), lo[2]), body.diameter
    if isinstance(body, Sphere):
        a = body.radius
        return ((-a, a), (-a, a), -a), 2.0 * a
    if isinstance(body, Ellipsoid):
        bounds = (-body.a, body.a), (-body.b, body.b), -body.c
        return bounds, 2.0 * max(body.a, body.b, body.c)
    if isinstance(body, CappedCylinder):
        r = body.radius
        bounds = (-r, r), (-r, r), -body.height / 2.0
        return bounds, float(np.hypot(2.0 * r, body.height))
    raise TypeError(f"cannot trace body of type {type(body).__name__}")


# ---------------------------------------------------------------------------
# first-hit kernels.  Each takes (n, 3) origins and directions of any
# layout and returns the rays that hit, ``(idx, points, normals)``: their
# indices, ascending, and their hit points and outward normals as
# coordinate-major (3, len(idx)) arrays.  The bounce loop keeps its rays
# coordinate-major, as (3, n) arrays, and hands the kernels their
# transposed views, so the kernels read coordinate rows through ``.T``.

# Moller-Trumbore's barycentric slack; a hit within it of an edge is retraced
_BARY_EPS = 1e-12


def _cross(a, b):
    """Cross products of coordinate-major (3, m) arrays, as (3, m), each
    component evaluated as ``np.cross`` does (``a1 b2 - a2 b1``, ...)."""
    out = np.empty_like(a)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(a[j] * b[k], a[k] * b[j], out=out[i])
    return out


def _hit_points(origins, dirs, t):
    """The rays that hit (finite ``t``) and their hit points, (3, m)."""
    idx = np.flatnonzero(np.isfinite(t))
    return idx, origins.T.take(idx, axis=1) + t[idx] * dirs.T.take(idx, axis=1)


def _nearest_root(aa, bb, cc, t_min, keep=None):
    """Per ray, the smaller root t > t_min of aa t^2 + 2 bb t + cc = 0, or
    +inf; ``keep(t)``, if given, masks the roots that count."""
    disc = bb * bb - aa * cc
    real = disc >= 0.0
    root = np.sqrt(np.maximum(disc, 0.0))
    t = np.full(len(bb), np.inf)
    for candidate in ((-bb - root) / aa, (-bb + root) / aa):
        ok = real & (candidate > t_min) & (candidate < t)
        if keep is not None:
            ok &= keep(candidate)
        t = np.where(ok, candidate, t)
    return t


def _sphere_hit(body: Sphere, origins, dirs, t_min):
    t = _nearest_root(1.0, _dot3(origins, dirs),
                      _dot3(origins, origins) - body.radius**2, t_min)
    idx, pts = _hit_points(origins, dirs, t)
    return idx, pts, pts / body.radius


def _ellipsoid_hit(body: Ellipsoid, origins, dirs, t_min):
    s = np.array([body.a, body.b, body.c])
    o = origins / s
    d = dirs / s
    t = _nearest_root(_dot3(d, d), _dot3(o, d), _dot3(o, o) - 1.0, t_min)
    idx, pts = _hit_points(origins, dirs, t)
    grad = pts / (s**2)[:, None]
    gx, gy, gz = grad
    # np.linalg.norm(axis=1)'s order, not _dot3's
    return idx, pts, grad / np.sqrt((gx * gx + gy * gy) + gz * gz)


def _cylinder_hit(body: CappedCylinder, origins, dirs, t_min):
    r, half = body.radius, body.height / 2.0
    ox, oy, oz = origins.T
    dx, dy, dz = dirs.T
    # a ray parallel to the axis (aa = 0) or to the caps (dz = 0) divides by
    # zero; its nan and infinite roots fail t_min < t < inf
    with np.errstate(divide="ignore", invalid="ignore"):
        # side wall, between the caps
        t = _nearest_root(dx**2 + dy**2, ox * dx + oy * dy, ox**2 + oy**2 - r * r,
                          t_min, lambda s: np.abs(oz + s * dz) <= half)
        cap = np.zeros(len(t))   # the z of the normal of the cap hit, if any
        for z_cap, nz in ((-half, -1.0), (half, 1.0)):
            candidate = (z_cap - oz) / dz
            x = ox + candidate * dx
            y = oy + candidate * dy
            better = (x * x + y * y <= r * r) & (candidate > t_min) & (candidate < t)
            t = np.where(better, candidate, t)
            cap[better] = nz
    idx, pts = _hit_points(origins, dirs, t)
    normal = np.zeros_like(pts)
    normal[2] = cap[idx]
    side = normal[2] == 0.0
    normal[:2, side] = pts[:2, side] / r
    return idx, pts, normal


def _sphere_cull(mesh: TriMesh, origins, dirs):
    """Candidate pairs of arbitrary rays, as flat indices ``ray * n_tri +
    tri``, a group of blocks of rays at a time: those whose ray, the
    half-line from its origin, meets the triangle's bounding sphere.  A
    group holds a multiple of ``_PAIR_BUDGET`` pairs, at most one block's
    more than that, but the last.  The pairs ascend, so each ray's
    triangles ascend, as :func:`_mesh_hit` needs.

    Each triangle's sphere has centre = centroid and radius = farthest
    corner, padded by a relative 1e-6 plus 1e-9 * diameter.  Per block of
    rays the test comes from two small matrix products over all triangles,
    in coordinates centred on the mesh.
    """
    p0, p1, p2 = mesh.corners()
    n_tri = mesh.n_triangles
    # bounding spheres and rays in coordinates centred on the mesh, so the
    # expanded |o|^2 - 2 o.c + |c|^2 does not cancel far from the origin
    center = mesh.tree.center
    corners = np.stack([p0, p1, p2]) - center
    c = corners.mean(axis=0)
    radius = np.sqrt(np.max(np.sum((corners - c) ** 2, axis=2), axis=0))
    radius = radius * (1.0 + 1e-6) + 1e-9 * mesh.diameter
    # with w = c - o: [d_hat, -o.d_hat] . [c, 1] = w.d_hat and
    # [o, 1, |o|^2] . [-2c, |c|^2 - r^2, 1] = |w|^2 - r^2
    tri_along = np.vstack([c.T, np.ones(n_tri)])
    tri_gap = np.vstack(
        [-2.0 * c.T, _dot3(c, c) - radius**2, np.ones(n_tri)]
    )

    block = max(_MIN_BLOCK_RAYS, _PAIR_BUDGET // n_tri)
    group, count = [], 0
    # the rays' operands, a slab of 32 blocks at a time
    for r0 in range(0, len(origins), 32 * block):
        oc = origins[r0:r0 + 32 * block] - center
        d = dirs[r0:r0 + 32 * block]
        d_hat = d / np.linalg.norm(d, axis=1)[:, None]
        ray_along = np.column_stack([d_hat, -_dot3(oc, d_hat)])
        ray_gap = np.column_stack([oc, np.ones(len(oc)), _dot3(oc, oc)])
        for s0 in range(0, len(oc), block):
            along = ray_along[s0:s0 + block] @ tri_along
            gap = ray_gap[s0:s0 + block] @ tri_gap
            # the ray meets the sphere: min over s >= 0 of |w - s d_hat|^2,
            # which is |w|^2 - max(w.d_hat, 0)^2, is at most r^2
            np.maximum(along, 0.0, out=along)
            keep = gap <= np.square(along, out=along)
            group.append(np.flatnonzero(keep) + (r0 + s0) * n_tri)
            count += len(group[-1])
            if count >= _PAIR_BUDGET:
                # whole batches of the test; the rest goes on to the next
                pairs = np.concatenate(group)
                cut = count - count % _PAIR_BUDGET
                yield pairs[:cut]
                group, count = [pairs[cut:]], count - cut
    if count:
        yield np.concatenate(group)


def _lattice_pairs(mesh: TriMesh, lattice):
    """Candidate pairs of a block of +z rays on the trace lattice, as flat
    indices ``ray * n_tri + tri``, one group of consecutive triangles at a
    time: those whose ray lies in the triangle's padded xy bounding box.

    ``lattice = (xs, ys, first, n)``: ray k < n of the block starts at
    ``(xs[g // len(ys)], ys[g % len(ys)])``, g = first + k, so a block can
    start and end mid-row.  A group holds at most ``_PAIR_BUDGET`` pairs plus
    one triangle's, whatever the grid or the triangles.  The pairs of a
    group come triangle by triangle and the groups in triangle order, so
    each ray's triangles ascend across the groups, as :func:`_mesh_hit`
    needs.
    """
    xs, ys, first, n = lattice
    n_cols = len(ys)
    n_tri = mesh.n_triangles
    corners = np.stack(mesh.corners())
    pad = 1e-6 * mesh.diameter
    lo = corners.min(axis=0) - pad
    hi = corners.max(axis=0) + pad
    # each triangle's rows, clipped to the block's, and columns
    row_lo = first // n_cols
    n_rows = (first + n - 1) // n_cols + 1 - row_lo
    r0 = np.clip(np.searchsorted(xs, lo[:, 0], "left") - row_lo, 0, n_rows)
    rows = np.clip(np.searchsorted(xs, hi[:, 0], "right") - row_lo, 0, n_rows) - r0
    c0 = np.searchsorted(ys, lo[:, 1], "left")
    width = np.searchsorted(ys, hi[:, 1], "right") - c0
    # each triangle's pairs, the partial first and last rows counted whole
    counts = rows * width
    tris = np.flatnonzero(counts)
    group = np.cumsum(counts[tris]) // _PAIR_BUDGET
    for tri in np.split(tris, np.flatnonzero(np.diff(group)) + 1):
        # one entry per triangle and row, then one per column
        row = _ranges(r0[tri], rows[tri])
        tri = np.repeat(tri, rows[tri])
        ray = _ranges((row + row_lo) * n_cols + c0[tri] - first, width[tri])
        tri = np.repeat(tri, width[tri])
        keep = (ray >= 0) & (ray < n)
        yield ray[keep] * n_tri + tri[keep]


def _closest_triangles(mesh: TriMesh, origins, dirs, t_min, lattice):
    """Moller-Trumbore on the ray/triangle pairs that survive the cull (see
    :func:`_mesh_hit`): per ray, the smallest t > t_min, +inf for a miss,
    with its triangle, the lowest on ties, and that triangle's barycentrics
    u and v.

    It runs on coordinate-major arrays: the rays' ``origins.T`` and
    ``dirs.T`` (contiguous when the bounce loop passes them) and the
    triangles' ``p0``, ``e1`` and ``e2`` as (3, n_tri) arrays, from which
    each batch takes its pairs' columns.  The cross products are evaluated
    as ``np.cross`` does (:func:`_cross`) and the dot products by
    :func:`_dot3`, so the hits equal those of the row-wise test bit for bit.
    """
    p0, p1, p2 = mesh.corners()
    n_tri = mesh.n_triangles
    n = len(origins)
    t_best = np.full(n, np.inf)
    tri_best = np.zeros(n, dtype=np.int64)
    u_best = np.zeros(n)
    v_best = np.zeros(n)

    if lattice is None:
        groups = _sphere_cull(mesh, origins, dirs)
    else:
        groups = _lattice_pairs(mesh, lattice)

    # coordinate-major rays and triangles: each batch gathers its pairs'
    # columns with one take per array
    o, d = origins.T, dirs.T
    p, e1, e2 = (np.ascontiguousarray(x.T) for x in (p0, p1 - p0, p2 - p0))
    batches = (pairs[c0:c0 + _PAIR_BUDGET]
               for pairs in groups for c0 in range(0, len(pairs), _PAIR_BUDGET))
    for batch in batches:
        ray, tri = np.divmod(batch, n_tri)
        d_r = d.take(ray, axis=1)
        a = e1.take(tri, axis=1)
        b = e2.take(tri, axis=1)
        h = _cross(d_r, b)
        det = _dot3(a.T, h.T)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / det
            s = o.take(ray, axis=1) - p.take(tri, axis=1)
            u = inv * _dot3(s.T, h.T)
            q = _cross(s, a)
            v = inv * _dot3(d_r.T, q.T)
            t = inv * _dot3(b.T, q.T)
            valid = (
                (np.abs(det) > 1e-300)
                & (u >= -_BARY_EPS)
                & (v >= -_BARY_EPS)
                & (u + v <= 1.0 + _BARY_EPS)
                & (t > t_min)
            )
        ray, tri, t, u, v = ray[valid], tri[valid], t[valid], u[valid], v[valid]
        # each ray's smallest t, lowest triangle on ties; a ray's pairs may
        # straddle batches, and a later batch holds higher triangles, so it
        # wins only with a strictly smaller t
        order = np.lexsort((tri, t, ray))
        first = order[np.diff(ray[order], prepend=-1) != 0]
        first = first[t[first] < t_best[ray[first]]]
        hit_rays = ray[first]
        t_best[hit_rays] = t[first]
        tri_best[hit_rays] = tri[first]
        u_best[hit_rays] = u[first]
        v_best[hit_rays] = v[first]
    return t_best, tri_best, u_best, v_best


def _mesh_hit(mesh: TriMesh, origins, dirs, t_min, nudge=None, lattice=None):
    """Closest intersection of each ray with the mesh: a cull, then
    Moller-Trumbore on the ray/triangle pairs that survive it
    (:func:`_closest_triangles`).  Returns the hits as ``(idx, points,
    normals, faces)``, ``faces`` the hit triangles.

    Arbitrary rays take the bounding-sphere cull (:func:`_sphere_cull`).
    A block of +z rays on the trace lattice, ``lattice = (xs, ys, first, n)``
    (see :func:`_lattice_pairs`), takes the lattice cull instead: a ray is
    a candidate of the triangles whose xy bounding box, padded by 1e-6 *
    diameter, holds it, and the index ranges come from ``np.searchsorted``
    on ``xs`` and ``ys`` themselves.  The pad is enough: Moller-Trumbore
    accepts barycentrics down to -1e-12, so an accepted hit lies within
    1e-12 * (|e1| + |e2|) <= 2e-12 * diameter of its triangle, plus the
    rounding of a few ulps of the coordinates; and a +z ray's x and y are
    those of its hit.  The sphere cull's pad likewise dwarfs the rounding
    of its products and the barycentric slack.  So neither cull drops a
    pair that Moller-Trumbore would accept, and the hits equal those of a
    test of every pair bit for bit.  Each ray takes its smallest t, the
    lowest triangle index on ties.  ``_PAIR_BUDGET`` sizes the cull's blocks
    and groups and the test's batches; it does not change the hits, because
    both culls hand each ray's triangles over in ascending order, so a later
    batch that wins with a strictly smaller t is all the tie rule needs.

    Hits landing numerically on an edge are retraced once from an origin
    nudged by 1e-9 * diameter, the documented deterministic tie-break, by a
    call with that ``nudge``: it traces the rays from their origins plus
    ``nudge``, retraces no edge, and moves each hit back onto its given
    ray, at the hit triangle's plane, so that it does not lie inside a body
    next to a face that is not coplanar.  A retraced ray that misses is a
    miss.
    """
    start = origins if nudge is None else (origins.T + nudge[:, None]).T
    t, tri, u, v = _closest_triangles(mesh, start, dirs, t_min, lattice)
    idx = np.flatnonzero(np.isfinite(t))
    t, tri = t[idx], tri[idx]
    normal = mesh.normals[tri].T
    if nudge is not None:
        # t + n.nudge / n.d (on a horizontal face n.nudge is 0, and t keeps
        # its bits)
        t = t + _dot3(normal.T, nudge) / _dot3(normal.T, dirs[idx])
    pts = origins.T.take(idx, axis=1) + t * dirs.T.take(idx, axis=1)
    if nudge is None:
        u, v = u[idx], v[idx]
        edge = np.flatnonzero(
            (np.abs(u) < _BARY_EPS)
            | (np.abs(v) < _BARY_EPS)
            | (np.abs(1.0 - u - v) < _BARY_EPS)
        )
        if len(edge):
            # irrational slope so the nudge cannot stay aligned with a
            # lattice-aligned or diagonal mesh edge
            nudge = 1e-9 * mesh.diameter * np.array([0.75487767, 0.65595059, 0.0])
            on_edge = idx[edge]
            back, pts_re, normal_re, tri_re = _mesh_hit(
                mesh, origins.T.take(on_edge, axis=1).T, dirs.T.take(on_edge, axis=1).T,
                t_min, nudge)
            kept = np.ones(len(idx), dtype=bool)
            kept[edge] = False
            edge = edge[back]
            kept[edge] = True
            pts[:, edge] = pts_re
            normal[:, edge] = normal_re
            tri[edge] = tri_re
            idx, pts, normal, tri = idx[kept], pts[:, kept], normal[:, kept], tri[kept]
    return idx, pts, normal, tri


def _first_hit(body, origins, dirs, t_min, lattice=None):
    """The rays that hit the body, as ``(idx, points, normals, faces)``:
    see the kernels.  ``faces`` holds a mesh's hit triangles, and is None
    on an analytic body, every point of which is supporting."""
    if isinstance(body, TriMesh):
        return _mesh_hit(body, origins, dirs, t_min, lattice=lattice)
    if isinstance(body, Sphere):
        kernel = _sphere_hit
    elif isinstance(body, Ellipsoid):
        kernel = _ellipsoid_hit
    elif isinstance(body, CappedCylinder):
        kernel = _cylinder_hit
    else:
        raise TypeError(f"cannot trace body of type {type(body).__name__}")
    return (*kernel(body, origins, dirs, t_min), None)


class _SupportingFaces:
    """Which faces of a mesh are supporting: every vertex v lies behind the
    face's plane, ``_dot3(v - p0, n) <= 1e-12 * diameter`` with p0 the
    face's first corner and n its normal.

    Called with the faces a bounce pass hit, it computes the flags of those
    not seen before and keeps them, so a trace pays for the faces its rays
    hit and no others.  The blocks of a trace share one; two threads may
    compute a flag at once, and both write the one value it has.

    It reads the leaves of the mesh's vertex tree (``TriMesh.tree``), and a
    face passes over each leaf whose bounding box lies behind its plane by
    a margin: a bound on ``(v - p0).n`` over the box, formed in the tree's
    coordinates centred on the mesh, at most ``1e-12 * diameter`` less
    ``1e-13 * diameter``.  Every difference of coordinates in the bound and
    in the test rounds by at most 2^-53 times the diameter, and the sums of
    a few such terms round by no more, so the margin is more than 20 times
    the rounding of both; a leaf of vertices in the plane of a face
    parallel to a coordinate plane is passed over too.  The vertices of the
    other leaves are tested one by one with the expression above, so the
    flags are those of a test of every vertex, bit for bit.
    """

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        self.flags = np.full(mesh.n_triangles, -1, dtype=np.int8)
        tree = mesh.tree
        lo, hi = tree.centred.min(axis=1), tree.centred.max(axis=1)
        # [n, |n|, -n.p] . [mid, half, 1] bounds n.(v - p) over a leaf
        self._boxes = np.vstack([((lo + hi) / 2.0).T, ((hi - lo) / 2.0).T,
                                 np.ones(len(lo))])
        self._leaf_xyz = mesh.vertices[tree.rows].transpose(2, 0, 1)

    def __call__(self, faces):
        """Whether each of ``faces`` is supporting."""
        flags = self.flags[faces]
        new = np.zeros(len(self.flags), dtype=bool)
        new[faces[flags < 0]] = True
        new = np.flatnonzero(new)
        if len(new):
            self.flags[new] = self._supporting(new)
            flags = self.flags[faces]
        return flags == 1

    def _supporting(self, faces):
        mesh = self.mesh
        normal = mesh.normals[faces]
        corner = mesh.vertices[mesh.triangles[faces, 0]]
        tolerance = 1e-12 * mesh.diameter
        out = np.ones(len(faces), dtype=bool)
        n_leaves, leaf = self._leaf_xyz.shape[1:]
        step = max(1, _PAIR_BUDGET // n_leaves)
        chunk = max(1, _PAIR_BUDGET // leaf)
        for f0 in range(0, len(faces), step):
            n, p = normal[f0:f0 + step], corner[f0:f0 + step]
            bound = np.column_stack([n, np.abs(n), -_dot3(p - mesh.tree.center, n)]) @ self._boxes
            face, near = np.nonzero(bound > tolerance - 1e-13 * mesh.diameter)
            for c0 in range(0, len(face), chunk):
                f, k = face[c0:c0 + chunk], near[c0:c0 + chunk]
                # ((x - px) nx + (z - pz) nz) + (y - py) ny, as _dot3 sums,
                # in place
                x, y, z = (coord[k] for coord in self._leaf_xyz)
                (px, py, pz), (nx, ny, nz) = p[f].T[:, :, None], n[f].T[:, :, None]
                x -= px
                x *= nx
                z -= pz
                z *= nz
                x += z
                y -= py
                y *= ny
                x += y
                out[f0 + f[(x > tolerance).any(axis=1)]] = False
        return out


# ---------------------------------------------------------------------------


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _thread_budget() -> int:
    """Worker threads of one trace: the first positive integer among the
    thread variables ``--threads`` writes, else every usable CPU, and never
    more than the usable CPUs."""
    usable = _usable_cpus()
    for var in _THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads >= 1:
            return min(threads, usable)
    return usable


def _lattice_xy(lattice, k):
    """The x and y of the rays ``k`` of a block of the trace lattice."""
    xs, ys, first, _ = lattice
    row, col = np.divmod(first + k, len(ys))
    return xs[row], ys[col]


def _bounce(body, ray, o, d, t_min, lattice, dirs, supporting):
    """One bounce pass of the coordinate-major rays ``o`` and ``d``, whose
    indices in the block are ``ray``: the indices of the rays that hit,
    whose new directions it writes into those columns of ``dirs``, and the
    rays that go on, as indices, next origins and directions.

    The reflection is specular, ``k+ = k - 2 (k.n) n``, and each next
    origin lies ``t_min`` off the surface along the hit face's outward
    normal: a step along the new direction could cross the plane of the
    face across a concave crease, and the ray would then bounce inside the
    body until the cap; the normal step leaves the hit face's side outward.
    A ray that met a supporting face from its front (k.n < 0) is done and
    does not go on; ``supporting`` flags a mesh's faces."""
    idx, pts, n_hat, faces = _first_hit(body, o.T, d.T, t_min, lattice=lattice)
    hit = ray[idx]
    d = d.take(idx, axis=1)
    dn = _dot3(d.T, n_hat.T)
    d -= 2.0 * dn * n_hat
    pts += t_min * n_hat
    # one coordinate row at a time, about twice as fast as
    # ``dirs[:, hit] = d``
    for column, values in zip(dirs, d):
        column[hit] = values
    done = dn < 0.0
    if faces is not None:
        done &= supporting(faces)
    if not done.any():
        return hit, hit, pts, d
    live = np.flatnonzero(~done)
    return hit, hit[live], pts.take(live, axis=1), d.take(live, axis=1)


def _trace_block(body, lattice, z_start, t_min, supporting):
    """Bounce one block of the trace lattice until its rays escape.

    ``lattice = (xs, ys, first, n)``: ray k of the block, g = first + k,
    starts at ``(xs[g // len(ys)], ys[g % len(ys)], z_start)`` and travels
    along +z, so a block can start and end mid-row.  The first pass hands
    the lattice to :func:`_first_hit` (see :func:`_lattice_pairs`).  A ray
    that hits a supporting face from its front is done after that
    reflection (see the module docstring); a mesh's faces are looked up in
    ``supporting``, the trace's :class:`_SupportingFaces` (None on an
    analytic body).  A ray still bouncing after ``DEFAULT_BOUNCE_CAP``
    reflections raises a :class:`TrappingError`.

    Returns the final directions of the rays that hit, in ray order, the
    number of bounce passes that had hits, and the flat ``DEFAULT_BINS``
    counts of those directions.  The directions are rounded to float32
    before binning, so that a ray near a bin edge falls where the histogram
    CSVs have always put it.  A done ray would miss on every later pass,
    so dropping it changes none of these, nor which ray traps first.
    """
    n = lattice[3]
    # the live rays, coordinate-major: their indices in the block, origins
    # and directions; ``dirs`` holds every ray's latest direction
    ray = np.arange(n)
    o = np.empty((3, n))
    o[0], o[1] = _lattice_xy(lattice, ray)
    o[2] = z_start
    d = np.zeros((3, n))
    d[2] = 1.0
    dirs = np.empty((3, n))
    struck = ray[:0]
    passes = 0   # bounce passes that had hits
    while len(ray):
        hit, ray, o, d = _bounce(body, ray, o, d, t_min, None if passes else lattice,
                                 dirs, supporting)
        if not len(hit):
            break
        if passes == DEFAULT_BOUNCE_CAP:
            x, y = _lattice_xy(lattice, hit[:1])
            raise TrappingError((x[0], y[0]), DEFAULT_BOUNCE_CAP)
        if not passes:
            struck = hit
        passes += 1
    out = dirs.take(struck, axis=1).T
    return out, passes, _bin_counts(out.astype(np.float32))


def trace(body, grid: int = 1024) -> RayTraceResult:
    """Trace one ray per grid cell through the shadow bounding box.

    Parameters
    ----------
    body : TriMesh or analytic body (Sphere, Ellipsoid, CappedCylinder)
    grid : rays per side of the shadow bounding box (>= 64)

    A ray still bouncing after ``DEFAULT_BOUNCE_CAP`` reflections raises a
    :class:`TrappingError`.

    Each chunk of grid rows is cut into blocks of at most ``_PART_BLOCK``
    rays, and at least as many blocks as the thread budget
    (:func:`_thread_budget`) has threads; a pool of that many threads
    bounces them, each block building its own rays, and a budget of 1
    starts no thread.  Rays are independent and every sum is formed per
    chunk in ray order, so the result does not depend on the budget, bit
    for bit.  Of several blocks that trap, the first raises its
    :class:`TrappingError`.

    A ray that hits a supporting face from its front is done after that
    reflection: a face is supporting when every vertex of the body lies
    behind its plane, within 1e-12 * diameter, and every point of an
    analytic body is.  Such a ray would miss the body on every later pass,
    so the result is the one a trace of every pass gives, but a convex body
    takes one pass.  A mesh's flags are computed for the faces its rays
    hit, once per trace, and the blocks share them.

    The rays are not kept: each block bins its rays' final directions into
    ``DEFAULT_BINS``, and the result holds the summed counts, so the memory
    of a trace grows with ``_RAY_CHUNK`` and the blocks in flight, not with
    the grid.
    """
    if grid < 64:
        raise ValueError("grid must be >= 64")
    ((x0, x1), (y0, y1), z_low), scale = _body_box(body)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("body has an empty shadow bounding box")
    t_min = 1e-9 * scale
    cell = ((x1 - x0) / grid) * ((y1 - y0) / grid)
    z_start = z_low - 0.5 * scale
    xs = x0 + (np.arange(grid) + 0.5) * (x1 - x0) / grid
    ys = y0 + (np.arange(grid) + 0.5) * (y1 - y0) / grid
    workers = _thread_budget()
    supporting = _SupportingFaces(body) if isinstance(body, TriMesh) else None

    def trace_block(lattice):
        return _trace_block(body, lattice, z_start, t_min, supporting)

    rays_hit = 0
    max_bounces = 0
    r_sum = 0.0
    cos_sum = 0.0
    counts = np.zeros(DEFAULT_BINS[0] * DEFAULT_BINS[1], dtype=np.int64)

    chunk = max(1, _RAY_CHUNK // grid) * grid
    # the pool starts its threads on the first submit, so a budget of 1,
    # which maps in this thread, starts none
    with ThreadPoolExecutor(workers) as pool:
        run = map if workers == 1 else pool.map
        for c0 in range(0, grid * grid, chunk):
            m = min(chunk, grid * grid - c0)
            block = min(_PART_BLOCK, -(-m // workers))
            results = list(run(trace_block, [(xs, ys, c0 + b0, min(block, m - b0))
                                             for b0 in range(0, m, block)]))
            out = np.concatenate([r[0] for r in results])
            max_bounces = max(max_bounces, *(r[1] for r in results))
            rays_hit += len(out)
            r_sum += float(np.sum(1.0 - out[:, 2]))
            cos_sum += float(np.sum(out[:, 2]))
            for _, _, block_counts in results:
                counts += block_counts

    return RayTraceResult(
        sigma_cl=cell * rays_hit,
        r_cl=cell * r_sum,
        r_cl_cos_weighted=cell * cos_sum,
        rays_total=grid * grid,
        rays_hit=rays_hit,
        max_bounces_seen=max_bounces,
        histogram=_histogram(counts, cell),
    )


def _bin_counts(directions) -> np.ndarray:
    """Rays per ``DEFAULT_BINS`` direction bin, flat (cos(theta) major), of
    the float32 unit ``directions``."""
    n_cos, n_phi = DEFAULT_BINS
    ct = np.clip(directions[:, 2].astype(float), -1.0, 1.0)
    phi = np.arctan2(directions[:, 1].astype(float), directions[:, 0].astype(float))
    i_ct = np.minimum(((ct + 1.0) / 2.0 * n_cos).astype(np.int64), n_cos - 1)
    i_phi = np.minimum(((phi + np.pi) / (2.0 * np.pi) * n_phi).astype(np.int64), n_phi - 1)
    return np.bincount(i_ct * n_phi + i_phi, minlength=n_cos * n_phi)


def _histogram(counts, cell) -> FclHistogram:
    """|f_cl|^2 from the flat ``DEFAULT_BINS`` counts: in each bin, the
    initial area mapped into it divided by its solid angle, the
    measure-ratio form of the Jacobian definition of the classical
    amplitude."""
    n_cos, n_phi = DEFAULT_BINS
    counts = counts.reshape(n_cos, n_phi)
    omega = (2.0 / n_cos) * (2.0 * np.pi / n_phi)
    return FclHistogram(
        values=counts * (cell / omega),
        counts=counts,
        n_cos=n_cos,
        n_phi=n_phi,
        bin_solid_angle=omega,
    )


@dataclass(frozen=True)
class Theorem2Report:
    """High-k comparison of the sphere oracle against the classical values."""

    ka: np.ndarray
    sigma_ratio: np.ndarray        # sigma / (2 sigma_cl)
    sigma_t_ratio: np.ndarray      # sigma_T / R_cl
    transport_below_total: bool    # sigma_T < sigma on the whole grid


def theorem2_check(radius: float, ka_values, grid: int = 1024) -> Theorem2Report:
    """Check the high-frequency limits on an ascending ka grid in [10, 300]."""
    ka_values = np.asarray(ka_values, dtype=float)
    if not np.all((10.0 <= ka_values) & (ka_values <= 300.0)):  # NaN too
        raise ValueError("ka_values must lie within [10, 300]")
    if np.any(np.diff(ka_values) <= 0):
        raise ValueError("ka_values must be strictly ascending")
    classical = trace(Sphere(radius), grid)
    rows = fig1_sweep(ka_values / radius, radius)
    sigma, sigma_t = rows["sigma"], rows["sigma_T"]
    sigma_ratio = sigma / (2.0 * classical.sigma_cl)
    sigma_t_ratio = sigma_t / classical.r_cl
    return Theorem2Report(
        ka=ka_values,
        sigma_ratio=sigma_ratio,
        sigma_t_ratio=sigma_t_ratio,
        transport_below_total=bool(np.all(sigma_t < sigma)),
    )


# ---------------------------------------------------------------------------


def trace_to_csv(result: RayTraceResult, path, header_lines=()) -> None:
    """One-row summary CSV for a trace."""
    write_csv(path, header_lines, {
        "sigma_cl": [result.sigma_cl],
        "R_cl": [result.r_cl],
        "R_cl_cos_weighted": [result.r_cl_cos_weighted],
        "rays_total": [result.rays_total],
        "rays_hit": [result.rays_hit],
        "max_bounces": [result.max_bounces_seen],
    })


def histogram_to_csv(hist: FclHistogram, path, header_lines=()) -> None:
    """Per-bin CSV: cos_theta_center, phi_center, fcl_sq, ray_count."""
    write_csv(path, header_lines, {
        "cos_theta_center": np.repeat(hist.cos_centers(), hist.n_phi),
        "phi_center": np.tile(hist.phi_centers(), hist.n_cos),
        "fcl_sq": hist.values.ravel(),
        "ray_count": hist.counts.ravel(),
    })

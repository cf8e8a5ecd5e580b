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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import write_csv
from .geometry import CappedCylinder, Ellipsoid, Sphere, TriMesh
from .potential import SolverError
from .sphere_oracle import fig1_sweep

__all__ = [
    "TrappingError",
    "RayTraceResult",
    "FclHistogram",
    "trace",
    "fcl_histogram",
    "Theorem2Report",
    "theorem2_check",
    "trace_to_csv",
    "histogram_to_csv",
]

DEFAULT_BOUNCE_CAP = 64
DEFAULT_BINS = (64, 64)

_RAY_CHUNK = 1_000_000       # rays processed per block (analytic bodies)
# Meshes: ray*triangle pairs per block of the bounding-sphere cull (a block
# of rays against every triangle) and per Moller-Trumbore batch of the pairs
# it keeps, so that a block's arrays stay in cache.  A cull block has at
# least _MIN_BLOCK_RAYS rays, so that a large mesh does not loop over blocks
# of a few rays.
_PAIR_BUDGET = 65_536
_MIN_BLOCK_RAYS = 8


class TrappingError(SolverError):
    """A ray exceeded the bounce cap (trapping geometry).

    A :class:`~hardscatter.potential.SolverError`, so the CLI reports it as
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
    direction-space cos(theta) integral reported for comparison.  Outgoing
    unit directions of the hitting rays are kept (float32) so histograms can
    be rebinned.
    """

    sigma_cl: float
    r_cl: float
    r_cl_cos_weighted: float
    rays_total: int
    rays_hit: int
    max_bounces_seen: int
    cell_area: float
    outgoing: np.ndarray
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
# first-hit kernels; each returns (t, normal) with t = +inf for misses


def _sphere_hit(body: Sphere, origins, dirs, t_min):
    b = np.einsum("ij,ij->i", origins, dirs)
    c = np.einsum("ij,ij->i", origins, origins) - body.radius**2
    disc = b * b - c
    root = np.sqrt(np.maximum(disc, 0.0))
    t = np.full(len(origins), np.inf)
    for candidate in (-b - root, -b + root):
        ok = (disc >= 0.0) & (candidate > t_min) & (candidate < t)
        t[ok] = candidate[ok]
    hit = np.isfinite(t)
    normal = np.zeros_like(origins)
    pts = origins[hit] + t[hit, None] * dirs[hit]
    normal[hit] = pts / body.radius
    return t, normal


def _ellipsoid_hit(body: Ellipsoid, origins, dirs, t_min):
    s = np.array([body.a, body.b, body.c])
    o = origins / s
    d = dirs / s
    aa = np.einsum("ij,ij->i", d, d)
    bb = np.einsum("ij,ij->i", o, d)
    cc = np.einsum("ij,ij->i", o, o) - 1.0
    disc = bb * bb - aa * cc
    root = np.sqrt(np.maximum(disc, 0.0))
    t = np.full(len(origins), np.inf)
    for candidate in ((-bb - root) / aa, (-bb + root) / aa):
        ok = (disc >= 0.0) & (candidate > t_min) & (candidate < t)
        t[ok] = candidate[ok]
    hit = np.isfinite(t)
    normal = np.zeros_like(origins)
    pts = origins[hit] + t[hit, None] * dirs[hit]
    grad = pts / s**2
    normal[hit] = grad / np.linalg.norm(grad, axis=1)[:, None]
    return t, normal


def _cylinder_hit(body: CappedCylinder, origins, dirs, t_min):
    r, half = body.radius, body.height / 2.0
    n = len(origins)
    t = np.full(n, np.inf)
    normal = np.zeros((n, 3))

    def consider(candidate, ok, nx, ny, nz):
        better = ok & (candidate > t_min) & (candidate < t)
        t[better] = candidate[better]
        normal[better] = np.stack(
            [np.broadcast_to(nx, n)[better],
             np.broadcast_to(ny, n)[better],
             np.broadcast_to(nz, n)[better]], axis=1
        )

    # side wall
    aa = dirs[:, 0] ** 2 + dirs[:, 1] ** 2
    bb = origins[:, 0] * dirs[:, 0] + origins[:, 1] * dirs[:, 1]
    cc = origins[:, 0] ** 2 + origins[:, 1] ** 2 - r * r
    quadratic = aa > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = bb * bb - aa * cc
        root = np.sqrt(np.maximum(disc, 0.0))
        for candidate in ((-bb - root) / aa, (-bb + root) / aa):
            z = origins[:, 2] + candidate * dirs[:, 2]
            ok = quadratic & (disc >= 0.0) & (np.abs(z) <= half)
            pts_x = origins[:, 0] + candidate * dirs[:, 0]
            pts_y = origins[:, 1] + candidate * dirs[:, 1]
            consider(candidate, ok, pts_x / r, pts_y / r, 0.0)
    # caps
    moving_z = dirs[:, 2] != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for z_cap, nz in ((-half, -1.0), (half, 1.0)):
            candidate = np.where(moving_z, (z_cap - origins[:, 2]) / dirs[:, 2], np.inf)
            x = origins[:, 0] + candidate * dirs[:, 0]
            y = origins[:, 1] + candidate * dirs[:, 1]
            ok = moving_z & (x * x + y * y <= r * r)
            consider(candidate, ok, 0.0, 0.0, nz)
    return t, normal


def _mesh_hit(mesh: TriMesh, origins, dirs, t_min, _retrace=True):
    """Closest intersection of each ray with the mesh: a bounding-sphere
    cull, then Moller-Trumbore on the ray/triangle pairs that survive it.

    Each triangle has a bounding sphere (centre = centroid, radius =
    farthest corner, padded by a relative 1e-6 plus 1e-9 * diameter).  A
    pair survives when the ray, the half-line from its origin, meets that
    sphere; per block of rays the test comes from two small matrix products
    over all triangles, in coordinates centred on the mesh.  The pad dwarfs
    the rounding of those products and the 1e-12 barycentric slack, so the
    cull drops no pair that Moller-Trumbore would accept, and the hits equal
    those of a test of every pair bit for bit.  Each ray takes its smallest
    t, the lowest triangle index on ties.

    Hits landing numerically on an edge are retraced once from an origin
    nudged by 1e-9 * diameter, the documented deterministic tie-break.
    """
    p0, p1, p2 = mesh.corners()
    e1 = p1 - p0
    e2 = p2 - p0
    n_tri = mesh.n_triangles
    n = len(origins)
    t_best = np.full(n, np.inf)
    tri_best = np.zeros(n, dtype=np.int64)
    u_best = np.zeros(n)
    v_best = np.zeros(n)
    bary_eps = 1e-12

    # bounding spheres and rays in coordinates centred on the mesh, so the
    # expanded |o|^2 - 2 o.c + |c|^2 does not cancel far from the origin
    center = mesh.vertices.mean(axis=0)
    corners = np.stack([p0, p1, p2]) - center
    c = corners.mean(axis=0)
    radius = np.sqrt(np.max(np.sum((corners - c) ** 2, axis=2), axis=0))
    radius = radius * (1.0 + 1e-6) + 1e-9 * mesh.diameter
    oc = origins - center
    d_hat = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    # with w = c - o: [d_hat, -o.d_hat] . [c, 1] = w.d_hat and
    # [o, 1, |o|^2] . [-2c, |c|^2 - r^2, 1] = |w|^2 - r^2
    ray_along = np.column_stack([d_hat, -np.einsum("ij,ij->i", oc, d_hat)])
    tri_along = np.vstack([c.T, np.ones(n_tri)])
    ray_gap = np.column_stack([oc, np.ones(n), np.einsum("ij,ij->i", oc, oc)])
    tri_gap = np.vstack(
        [-2.0 * c.T, np.einsum("ij,ij->i", c, c) - radius**2, np.ones(n_tri)]
    )

    # candidate pairs as flat indices ray * n_tri + tri, in ascending order
    block = max(_MIN_BLOCK_RAYS, _PAIR_BUDGET // n_tri)
    pairs = [np.empty(0, dtype=np.int64)]
    for s0 in range(0, n, block):
        along = ray_along[s0:s0 + block] @ tri_along
        gap = ray_gap[s0:s0 + block] @ tri_gap
        # the ray meets the sphere: min over s >= 0 of |w - s d_hat|^2,
        # which is |w|^2 - max(w.d_hat, 0)^2, is at most r^2
        np.maximum(along, 0.0, out=along)
        keep = gap <= np.square(along, out=along)
        pairs.append(np.flatnonzero(keep) + s0 * n_tri)
    pairs = np.concatenate(pairs)

    for c0 in range(0, len(pairs), _PAIR_BUDGET):
        ray, tri = np.divmod(pairs[c0:c0 + _PAIR_BUDGET], n_tri)
        o = origins[ray]
        d = dirs[ray]
        e1_p = e1[tri]
        e2_p = e2[tri]
        h = np.cross(d, e2_p)
        det = np.einsum("ij,ij->i", e1_p, h)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / det
            s = o - p0[tri]
            u = inv * np.einsum("ij,ij->i", s, h)
            q = np.cross(s, e1_p)
            v = inv * np.einsum("ij,ij->i", d, q)
            t = inv * np.einsum("ij,ij->i", e2_p, q)
            valid = (
                (np.abs(det) > 1e-300)
                & (u >= -bary_eps)
                & (v >= -bary_eps)
                & (u + v <= 1.0 + bary_eps)
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

    hit = np.isfinite(t_best)
    normal = np.zeros_like(origins)
    normal[hit] = mesh.normals[tri_best[hit]]
    if _retrace:
        w_best = 1.0 - u_best - v_best
        on_edge = hit & (
            (np.abs(u_best) < bary_eps)
            | (np.abs(v_best) < bary_eps)
            | (np.abs(w_best) < bary_eps)
        )
        if np.any(on_edge):
            # irrational slope so the nudge cannot stay aligned with a
            # lattice-aligned or diagonal mesh edge
            nudge = 1e-9 * mesh.diameter * np.array([0.75487767, 0.65595059, 0.0])
            t_re, n_re = _mesh_hit(
                mesh, origins[on_edge] + nudge, dirs[on_edge], t_min, _retrace=False
            )
            t_best[on_edge] = t_re
            normal[on_edge] = n_re
    return t_best, normal


def _first_hit(body, origins, dirs, t_min):
    if isinstance(body, TriMesh):
        return _mesh_hit(body, origins, dirs, t_min)
    if isinstance(body, Sphere):
        return _sphere_hit(body, origins, dirs, t_min)
    if isinstance(body, Ellipsoid):
        return _ellipsoid_hit(body, origins, dirs, t_min)
    if isinstance(body, CappedCylinder):
        return _cylinder_hit(body, origins, dirs, t_min)
    raise TypeError(f"cannot trace body of type {type(body).__name__}")


# ---------------------------------------------------------------------------


def trace(
    body,
    grid: int = 1024,
    bounce_cap: int = DEFAULT_BOUNCE_CAP,
) -> RayTraceResult:
    """Trace one ray per grid cell through the shadow bounding box.

    Parameters
    ----------
    body : TriMesh or analytic body (Sphere, Ellipsoid, CappedCylinder)
    grid : rays per side of the shadow bounding box (>= 64)
    bounce_cap : bounce budget per ray before a TrappingError is raised

    The attached histogram uses ``DEFAULT_BINS``; :func:`fcl_histogram`
    rebins the stored outgoing directions.
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

    rays_hit = 0
    max_bounces = 0
    r_sum = 0.0
    cos_sum = 0.0
    outgoing_chunks = []

    rows_per_chunk = max(1, _RAY_CHUNK // grid)
    for r0 in range(0, grid, rows_per_chunk):
        r1 = min(r0 + rows_per_chunk, grid)
        X, Y = np.meshgrid(xs[r0:r1], ys, indexing="ij")
        m = X.size
        origins = np.stack(
            [X.ravel(), Y.ravel(), np.full(m, z_start)], axis=1
        )
        entry = origins[:, :2].copy()
        dirs = np.zeros((m, 3))
        dirs[:, 2] = 1.0
        bounces = np.zeros(m, dtype=np.int32)
        alive = np.arange(m)

        for bounce in range(bounce_cap + 1):
            t, normal = _first_hit(body, origins[alive], dirs[alive], t_min)
            hit = np.isfinite(t)
            if not np.any(hit):
                break
            struck = alive[hit]
            if bounce == bounce_cap:
                raise TrappingError(entry[struck[0]], bounce_cap)
            pts = origins[struck] + t[hit, None] * dirs[struck]
            n_hat = normal[hit]
            d = dirs[struck]
            dirs[struck] = d - 2.0 * np.einsum("ij,ij->i", d, n_hat)[:, None] * n_hat
            origins[struck] = pts + t_min * dirs[struck]
            bounces[struck] += 1
            alive = struck

        hit_mask = bounces > 0
        rays_hit += int(hit_mask.sum())
        max_bounces = max(max_bounces, int(bounces.max(initial=0)))
        out = dirs[hit_mask]
        r_sum += float(np.sum(1.0 - out[:, 2]))
        cos_sum += float(np.sum(out[:, 2]))
        if len(out):
            outgoing_chunks.append(out.astype(np.float32))

    outgoing = (
        np.concatenate(outgoing_chunks)
        if outgoing_chunks
        else np.empty((0, 3), dtype=np.float32)
    )
    sigma_cl = cell * rays_hit
    result = RayTraceResult(
        sigma_cl=sigma_cl,
        r_cl=cell * r_sum,
        r_cl_cos_weighted=cell * cos_sum,
        rays_total=grid * grid,
        rays_hit=rays_hit,
        max_bounces_seen=max_bounces,
        cell_area=cell,
        outgoing=outgoing,
        histogram=_bin_directions(outgoing, cell, *DEFAULT_BINS),
    )
    return result


def _bin_directions(outgoing, cell_area, n_cos, n_phi) -> FclHistogram:
    ct = np.clip(outgoing[:, 2].astype(float), -1.0, 1.0)
    phi = np.arctan2(outgoing[:, 1].astype(float), outgoing[:, 0].astype(float))
    i_ct = np.minimum(((ct + 1.0) / 2.0 * n_cos).astype(np.int64), n_cos - 1)
    i_phi = np.minimum(((phi + np.pi) / (2.0 * np.pi) * n_phi).astype(np.int64), n_phi - 1)
    counts = np.bincount(i_ct * n_phi + i_phi, minlength=n_cos * n_phi)
    counts = counts.reshape(n_cos, n_phi)
    omega = (2.0 / n_cos) * (2.0 * np.pi / n_phi)
    return FclHistogram(
        values=counts * (cell_area / omega),
        counts=counts,
        n_cos=n_cos,
        n_phi=n_phi,
        bin_solid_angle=omega,
    )


def fcl_histogram(result: RayTraceResult, n_cos: int = 64, n_phi: int = 64) -> FclHistogram:
    """Rebin |f_cl|^2 from the stored outgoing directions.

    The estimate in each bin is (initial area mapped into the bin) divided
    by the bin solid angle, the measure-ratio form of the Jacobian
    definition of the classical amplitude.
    """
    if result.rays_hit == 0:
        raise ValueError("no hitting rays to bin")
    return _bin_directions(result.outgoing, result.cell_area, n_cos, n_phi)


@dataclass(frozen=True)
class Theorem2Report:
    """High-k comparison of the sphere oracle against the classical values."""

    ka: np.ndarray
    sigma_ratio: np.ndarray        # sigma / (2 sigma_cl)
    sigma_t_ratio: np.ndarray      # sigma_T / R_cl
    transport_below_total: bool    # sigma_T < sigma on the whole grid
    sigma_trend_decreasing: bool   # first-decile vs last-decile |ratio - 1|
    sigma_t_trend_decreasing: bool


def theorem2_check(radius: float, ka_values, grid: int = 1024) -> Theorem2Report:
    """Check the high-frequency limits on an ascending ka grid in [10, 300]."""
    ka_values = np.asarray(ka_values, dtype=float)
    if np.any(ka_values < 10.0) or np.any(ka_values > 300.0):
        raise ValueError("ka grid must lie within [10, 300]")
    if np.any(np.diff(ka_values) <= 0):
        raise ValueError("ka grid must be strictly ascending")
    classical = trace(Sphere(radius), grid)
    rows = fig1_sweep(ka_values / radius, radius)
    sigma, sigma_t = rows["sigma"], rows["sigma_T"]
    sigma_ratio = sigma / (2.0 * classical.sigma_cl)
    sigma_t_ratio = sigma_t / classical.r_cl
    decile = max(1, len(ka_values) // 10)

    def trend(ratio):
        first = float(np.mean(np.abs(ratio[:decile] - 1.0)))
        last = float(np.mean(np.abs(ratio[-decile:] - 1.0)))
        return last < first

    return Theorem2Report(
        ka=ka_values,
        sigma_ratio=sigma_ratio,
        sigma_t_ratio=sigma_t_ratio,
        transport_below_total=bool(np.all(sigma_t < sigma)),
        sigma_trend_decreasing=trend(sigma_ratio),
        sigma_t_trend_decreasing=trend(sigma_t_ratio),
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

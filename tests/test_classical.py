import dataclasses
import itertools
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hardscatter import classical
from hardscatter.classical import (
    TrappingError,
    histogram_to_csv,
    theorem2_check,
    trace,
    trace_to_csv,
)
from hardscatter.geometry import (
    CappedCylinder,
    Ellipsoid,
    Sphere,
    TriMesh,
    make_body,
    shadow_area,
)

from conftest import pinwheel_cube
from perfbench.workloads import dented_sphere

def classical_sphere_r_cl(a=1.0):
    """Oracle: integrate (1 - cos(deflection)) over the shadow disc."""

    def integrand(b):
        theta = np.pi - 2.0 * np.arcsin(b / a)
        return (1.0 - np.cos(theta)) * 2.0 * np.pi * b

    value, _ = integrate.quad(integrand, 0.0, a, epsabs=1e-12, epsrel=1e-12)
    return value


def groove_prism(notch: float = 0.5) -> TriMesh:
    """Extruded heptagon with a steep V-notch of half-width ``notch`` in the
    bottom; rays entering the notch bounce at least twice."""
    poly = [(-1, 0), (-notch, 0), (0, 0.9), (notch, 0), (1, 0), (1, 1), (-1, 1)]
    cap_tris = [(0, 1, 6), (1, 2, 6), (2, 5, 6), (2, 3, 5), (3, 4, 5)]
    n = len(poly)
    verts = [(x, -0.5, z) for x, z in poly] + [(x, 0.5, z) for x, z in poly]
    faces = []
    for i in range(n):
        j = (i + 1) % n
        faces.append([i, j + n, j])
        faces.append([i, i + n, j + n])
    for a, b, c in cap_tris:
        faces.append([a, b, c])
        faces.append([a + n, c + n, b + n])
    return TriMesh.from_arrays(np.array(verts, dtype=float), np.array(faces))


def diagonal_cube() -> TriMesh:
    """Unit cube whose faces are split along a diagonal, so whole lattice
    lines of +z rays land exactly on a shared edge."""
    verts = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=float,
    )
    tris = np.array(
        [
            [0, 2, 1], [0, 3, 2], [4, 5, 6], [4, 6, 7],
            [0, 1, 5], [0, 5, 4], [2, 3, 7], [2, 7, 6],
            [0, 4, 7], [0, 7, 3], [1, 2, 6], [1, 6, 5],
        ]
    )
    return TriMesh.from_arrays(verts, tris)


def octahedron() -> TriMesh:
    """Regular octahedron of radius 1: each face's xy bounding box is a
    quadrant of the shadow's, shared with one other face."""
    verts = np.array(
        [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=float,
    )
    ring = [(0, 1), (1, 2), (2, 3), (3, 0)]
    tris = [[a, b, 4] for a, b in ring] + [[b, a, 5] for a, b in ring]
    return TriMesh.from_arrays(verts, np.array(tris))


def brute_force_mesh_hit(mesh, origins, dirs, t_min, _retrace=True):
    """Reference first hit: Moller-Trumbore over every ray x triangle pair,
    as the tracer ran it before its bounding-sphere cull."""
    p0, p1, p2 = mesh.corners()
    e1 = p1 - p0
    e2 = p2 - p0
    n_tri = mesh.n_triangles
    chunk = max(1, 1_500_000 // n_tri)
    n = len(origins)
    t_best = np.full(n, np.inf)
    tri_best = np.zeros(n, dtype=np.int64)
    u_best = np.zeros(n)
    v_best = np.zeros(n)
    bary_eps = 1e-12

    for s0 in range(0, n, chunk):
        s1 = min(s0 + chunk, n)
        o = origins[s0:s1]
        d = dirs[s0:s1]
        h = np.cross(d[:, None, :], e2[None, :, :])
        det = np.einsum("ij,rij->ri", e1, h)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / det
            s = o[:, None, :] - p0[None, :, :]
            u = inv * np.einsum("rij,rij->ri", s, h)
            q = np.cross(s, e1[None, :, :])
            v = inv * np.einsum("rj,rij->ri", d, q)
            t = inv * np.einsum("ij,rij->ri", e2, q)
            valid = (
                (np.abs(det) > 1e-300)
                & (u >= -bary_eps)
                & (v >= -bary_eps)
                & (u + v <= 1.0 + bary_eps)
                & (t > t_min)
            )
        t = np.where(valid, t, np.inf)
        idx = np.argmin(t, axis=1)
        rows = np.arange(s1 - s0)
        t_best[s0:s1] = t[rows, idx]
        tri_best[s0:s1] = idx
        u_best[s0:s1] = u[rows, idx]
        v_best[s0:s1] = v[rows, idx]

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
            nudge = 1e-9 * mesh.diameter * np.array([0.75487767, 0.65595059, 0.0])
            t_re, n_re = brute_force_mesh_hit(
                mesh, origins[on_edge] + nudge, dirs[on_edge], t_min, _retrace=False
            )
            # back onto the original ray, at the retraced triangle's plane
            back = np.isfinite(t_re)
            n_back = n_re[back]
            t_re[back] += (np.einsum("ij,j->i", n_back, nudge)
                           / np.einsum("ij,ij->i", n_back, dirs[on_edge][back]))
            t_best[on_edge] = t_re
            normal[on_edge] = n_re
    return t_best, normal


def _row_form_nearest_root(aa, bb, cc, t_min, keep=None):
    disc = bb * bb - aa * cc
    root = np.sqrt(np.maximum(disc, 0.0))
    t = np.full(len(bb), np.inf)
    for candidate in ((-bb - root) / aa, (-bb + root) / aa):
        ok = (disc >= 0.0) & (candidate > t_min) & (candidate < t)
        if keep is not None:
            ok &= keep(candidate)
        t[ok] = candidate[ok]
    return t


def _row_form_sphere_hit(body, origins, dirs, t_min):
    b = np.einsum("ij,ij->i", origins, dirs)
    c = np.einsum("ij,ij->i", origins, origins) - body.radius**2
    t = _row_form_nearest_root(1.0, b, c, t_min)
    hit = np.isfinite(t)
    normal = np.zeros_like(origins)
    pts = origins[hit] + t[hit, None] * dirs[hit]
    normal[hit] = pts / body.radius
    return t, normal


def _row_form_ellipsoid_hit(body, origins, dirs, t_min):
    s = np.array([body.a, body.b, body.c])
    o = origins / s
    d = dirs / s
    aa = np.einsum("ij,ij->i", d, d)
    bb = np.einsum("ij,ij->i", o, d)
    cc = np.einsum("ij,ij->i", o, o) - 1.0
    t = _row_form_nearest_root(aa, bb, cc, t_min)
    hit = np.isfinite(t)
    normal = np.zeros_like(origins)
    pts = origins[hit] + t[hit, None] * dirs[hit]
    grad = pts / s**2
    normal[hit] = grad / np.linalg.norm(grad, axis=1)[:, None]
    return t, normal


def _row_form_cylinder_hit(body, origins, dirs, t_min):
    r, half = body.radius, body.height / 2.0
    ox, oy, oz = origins.T
    dx, dy, dz = dirs.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _row_form_nearest_root(dx**2 + dy**2, ox * dx + oy * dy,
                                   ox**2 + oy**2 - r * r, t_min,
                                   lambda s: np.abs(oz + s * dz) <= half)
        side = np.isfinite(t)
        normal = np.zeros((len(t), 3))
        for z_cap, nz in ((-half, -1.0), (half, 1.0)):
            candidate = (z_cap - oz) / dz
            x = ox + candidate * dx
            y = oy + candidate * dy
            better = (x * x + y * y <= r * r) & (candidate > t_min) & (candidate < t)
            t[better] = candidate[better]
            normal[better, 2] = nz
            side[better] = False
    normal[side, 0] = (ox[side] + t[side] * dx[side]) / r
    normal[side, 1] = (oy[side] + t[side] * dy[side]) / r
    return t, normal


def row_form_trace_block(body, lattice, z_start, t_min, bounce_cap):
    """Reference bounce loop: the tracer's block loop and analytic kernels
    on rows of 3-vectors, with einsum dot products, as they ran before the
    rays went coordinate-major; meshes take the brute-force first hit."""
    kernels = {Sphere: _row_form_sphere_hit, Ellipsoid: _row_form_ellipsoid_hit,
               CappedCylinder: _row_form_cylinder_hit, TriMesh: brute_force_mesh_hit}
    first_hit = kernels[type(body)]
    xs, ys, first, n = lattice
    row, col = np.divmod(first + np.arange(n), len(ys))
    origins = np.column_stack([xs[row], ys[col], np.full(n, z_start)])
    dirs = np.zeros((n, 3))
    dirs[:, 2] = 1.0
    ray, o, d = np.arange(n), origins, dirs
    for bounce in range(bounce_cap + 1):
        t, normal = first_hit(body, o, d, t_min)
        hit = np.isfinite(t)
        ray = ray[hit]
        if bounce == 0:
            struck = ray
        if not len(ray):
            break
        if bounce == bounce_cap:
            raise TrappingError(origins[ray[0], :2], bounce_cap)
        d = d[hit]
        n_hat = normal[hit]
        pts = o[hit] + t[hit, None] * d
        d = d - 2.0 * np.einsum("ij,ij->i", d, n_hat)[:, None] * n_hat
        o = pts + t_min * n_hat
        dirs[ray] = d
    out = dirs[struck]
    return out, bounce, classical._bin_counts(out.astype(np.float32))


@pytest.fixture(scope="module")
def sphere_trace():
    return trace(Sphere(1.0), grid=1024)


@pytest.fixture(scope="module")
def cylinder_trace():
    return trace(CappedCylinder(1.0, 2.0), grid=1024)


# ---------------------------------------------------------------------------
# cross sections and resistance


def test_sphere_sigma_cl(sphere_trace):
    assert sphere_trace.sigma_cl == pytest.approx(np.pi, rel=0.005)


def test_sphere_r_cl_against_deflection_oracle(sphere_trace):
    oracle = classical_sphere_r_cl()
    assert oracle == pytest.approx(np.pi, rel=1e-10)
    assert sphere_trace.r_cl == pytest.approx(oracle, rel=0.005)


def test_sphere_cos_weighted_variant_vanishes(sphere_trace):
    # the direction-space cos(theta) integral of |f_cl|^2, kept for
    # comparison, is zero for the sphere (flat histogram)
    assert abs(sphere_trace.r_cl_cos_weighted) < 0.01


def test_sphere_single_bounce(sphere_trace):
    assert sphere_trace.max_bounces_seen == 1


def test_energy_conservation():
    # specular reflection keeps |k|: the float64 directions the bounce loop
    # writes back are unit vectors after every bounce
    grid = 128
    cells = (np.arange(grid) + 0.5) / grid
    for name in ("sphere", "ellipsoid", "cylinder", "dented"):
        body = INVARIANCE_BODIES[name][0]
        ((x0, x1), (y0, y1), z_low), scale = classical._body_box(body)
        lattice = (x0 + cells * (x1 - x0), y0 + cells * (y1 - y0), 0, grid * grid)
        out, _, _ = classical._trace_block(body, lattice, z_low - 0.5 * scale,
                                           1e-9 * scale, classical.DEFAULT_BOUNCE_CAP)
        assert len(out) > grid * grid // 2, name
        norms = np.linalg.norm(out, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12, name


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(["sphere", "ellipsoid", "cylinder", "dented"]),
    dims=st.tuples(*[st.floats(0.05, 20.0)] * 3),
    grid=st.integers(64, 160),
    start=st.floats(0.0, 1.0),
    size=st.integers(1, 6000),
)
def test_trace_block_matches_the_row_form(shape, dims, grid, start, size):
    # the coordinate-major bounce loop and kernels give the row-form loop's
    # directions, pass count and histogram counts bit for bit, on blocks
    # that start and end mid-row
    body = {"sphere": lambda: Sphere(dims[0]), "ellipsoid": lambda: Ellipsoid(*dims),
            "cylinder": lambda: CappedCylinder(dims[0], dims[1]),
            "dented": lambda: INVARIANCE_BODIES["dented"][0]}[shape]()
    ((x0, x1), (y0, y1), z_low), scale = classical._body_box(body)
    cells = (np.arange(grid) + 0.5) / grid
    first = int(start * (grid * grid - 1))
    lattice = (x0 + cells * (x1 - x0), y0 + cells * (y1 - y0), first,
               min(size, grid * grid - first))
    args = (body, lattice, z_low - 0.5 * scale, 1e-9 * scale, classical.DEFAULT_BOUNCE_CAP)
    want = row_form_trace_block(*args)
    got = classical._trace_block(*args)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)
        assert np.asarray(a).dtype == np.asarray(b).dtype


def test_flat_cap_cylinder_r_cl(cylinder_trace):
    # every ray reverses off the flat cap, the largest possible transfer
    assert cylinder_trace.r_cl == pytest.approx(2.0 * cylinder_trace.sigma_cl, rel=0.005)
    assert cylinder_trace.sigma_cl == pytest.approx(np.pi, rel=0.005)
    assert cylinder_trace.max_bounces_seen == 1
    assert cylinder_trace.r_cl_cos_weighted == pytest.approx(
        -cylinder_trace.sigma_cl, rel=1e-12
    )


def test_ellipsoid_single_bounce():
    result = trace(Ellipsoid(1.5, 1.0, 0.7), grid=256)
    assert result.max_bounces_seen == 1
    assert result.sigma_cl == pytest.approx(np.pi * 1.5, rel=0.01)


@settings(max_examples=25, deadline=None)
@given(radius=st.floats(0.05, 20.0), height=st.floats(0.05, 20.0))
def test_flat_cap_cylinder_reverses_every_ray(radius, height):
    # each ray reverses exactly on the flat lit cap, so every transfer term
    # 1 - cos is exactly 2, at any shape
    result = trace(CappedCylinder(radius, height), grid=64)
    assert result.r_cl == 2.0 * result.sigma_cl
    assert result.max_bounces_seen == 1


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.05, 20.0), b=st.floats(0.05, 20.0), c=st.floats(0.05, 20.0))
def test_ellipsoid_trace_invariants(a, b, c):
    # convex: one bounce per ray; curved: some transfer below 2; the shadow
    # is the a-b ellipse
    result = trace(Ellipsoid(a, b, c), grid=64)
    assert result.max_bounces_seen == 1
    assert 0.0 < result.r_cl < 2.0 * result.sigma_cl
    assert abs(result.sigma_cl / (np.pi * a * b) - 1.0) < 1e-2


# each shape at its unit scale, its smallest dimension 1; the accepted range
# puts every dimension in [1e-50, 1e50] and an ellipsoid's axes within a
# ratio of 1e5
SCALED_SHAPES = (
    [(Sphere, (1.0,))]
    + [(Ellipsoid, axes) for axes in sorted(set(itertools.permutations((1e5, 1.0, 1.0)))
                                            | set(itertools.permutations((1e5, 1e5, 1.0))))]
    + [(CappedCylinder, (1.0, 1e5)), (CappedCylinder, (1e5, 1.0))]
)


@pytest.mark.parametrize("shape, dims", SCALED_SHAPES)
def test_analytic_trace_does_not_depend_on_the_scale(shape, dims):
    # at the corners of the accepted range, the smallest dimension at 1e-50
    # or the largest at 1e50, a trace hits the same rays with the same
    # bounces as at unit scale; outside it, the discriminants cancel or
    # overflow and the bodies are refused
    want = trace(shape(*dims), grid=128)
    for scale in (1e-50, 1e50 / max(dims)):
        got = trace(shape(*(scale * d for d in dims)), grid=128)
        assert got.rays_hit == want.rays_hit, scale
        assert got.max_bounces_seen == want.max_bounces_seen, scale
        assert got.r_cl / got.sigma_cl == pytest.approx(want.r_cl / want.sigma_cl, rel=1e-5)


def test_transfer_between_zero_and_twice_sigma(sphere_trace, cylinder_trace):
    for result in (sphere_trace, cylinder_trace):
        assert 0.0 <= result.r_cl <= 2.0 * result.sigma_cl * (1.0 + 1e-12)


def test_grid_convergence():
    coarse = trace(Sphere(1.0), grid=1024)
    fine = trace(Sphere(1.0), grid=2048)
    assert abs(fine.sigma_cl / coarse.sigma_cl - 1.0) < 0.005
    assert abs(fine.r_cl / coarse.r_cl - 1.0) < 0.005


def test_grid_validation():
    with pytest.raises(ValueError):
        trace(Sphere(1.0), grid=32)
    with pytest.raises(ValueError, match="bounce_cap"):
        trace(Sphere(1.0), grid=64, bounce_cap=-1)


# ---------------------------------------------------------------------------
# meshes, bounces, trapping


def test_shadow_consistency_with_rasterizer():
    bodies = [
        make_body(Sphere(1.0), 4),
        make_body(Ellipsoid(1.2, 0.8, 1.0), 4),
        pinwheel_cube(1),
    ]
    for mesh in bodies:
        result = trace(mesh, grid=256)
        assert result.sigma_cl == pytest.approx(shadow_area(mesh, 1024), rel=0.01)


def test_mesh_sphere_single_bounce():
    # also on the mesh of an ellipsoid, and at odd grids, whose centre
    # column lies at y = 0, in the plane of icosphere edges: a retraced edge
    # hit must stay on the surface, or its reflection starts inside the body
    # and bounces there until the cap
    for shape in (Sphere(1.0), Ellipsoid(1.2, 1.0, 0.8)):
        mesh = make_body(shape, 3)
        for grid in (128, 65, 255):
            result = trace(mesh, grid)
            assert result.max_bounces_seen == 1, (shape, grid)
            assert result.sigma_cl == shadow_area(mesh, grid), (shape, grid)


def test_exact_edge_hits_are_retraced():
    # a diagonally split cube face puts a whole lattice line of rays exactly
    # on the shared edge; the deterministic nudge must keep them all
    result = trace(diagonal_cube(), grid=128)
    assert result.rays_hit == 128 * 128  # nothing lost on the diagonal
    assert result.sigma_cl == pytest.approx(1.0, rel=1e-12)
    assert result.r_cl == pytest.approx(2.0, rel=1e-12)
    assert result.max_bounces_seen == 1


def test_groove_two_bounces():
    result = trace(groove_prism(), grid=128)
    assert result.sigma_cl == pytest.approx(2.0, rel=0.01)
    # every ray meets the prism; the deepest ones leave the notch after 3
    # bounces
    assert result.rays_hit == 128 * 128
    assert result.max_bounces_seen == 3


def test_pinwheel_cube_counts():
    result = trace(pinwheel_cube(1), grid=128)
    assert result.rays_hit == 128 * 128
    assert result.max_bounces_seen == 1


def test_dented_sphere_at_an_odd_grid_does_not_trap():
    # the first-pass ray entering at (0.0, -0.3976) lands on the concave
    # crease between faces 138 and 293, and the edge retrace picks face 138;
    # a next origin t_min along the reflected ray would lie past face 293's
    # plane, inside the body, where t_min along face 138's normal does not
    mesh = dented_sphere(1.37)[0]
    result = trace(mesh, 255)
    assert result.sigma_cl == shadow_area(mesh, 255)


@pytest.mark.parametrize("notch", [0.5, 0.05])
@pytest.mark.parametrize("grid", [65, 255])
def test_sharp_groove_at_an_odd_grid_does_not_trap(notch, grid):
    # the notch's apex is a concave crease sharper than a right angle (58
    # and 6 degrees), and at an odd grid the centre column's rays land on
    # it; with the step along the reflected ray they were trapped at every
    # odd grid from 65 to 511
    mesh = groove_prism(notch)
    result = trace(mesh, grid)
    assert result.sigma_cl == shadow_area(mesh, grid)


def test_groove_trapping_error():
    with pytest.raises(TrappingError, match="entering"):
        trace(groove_prism(), grid=128, bounce_cap=1)


@pytest.mark.parametrize(
    "cap, entry_xy",
    [
        # the first ray of the grid hits the flat bottom on pass 0
        (0, (-0.9921875, -0.49609375)),
        # the first ray into the notch, still bouncing after 1 and 2
        (1, (-0.4921875, -0.49609375)),
        (2, (-0.4921875, -0.49609375)),
    ],
)
def test_groove_trapping_names_first_trapped_ray(cap, entry_xy):
    with pytest.raises(TrappingError) as info:
        trace(groove_prism(), grid=128, bounce_cap=cap)
    assert info.value.entry_xy == entry_xy
    assert str(info.value) == (
        f"ray entering at (x, y) = {entry_xy} still bouncing after {cap} reflections"
    )


def test_cylinder_kernel_side_caps_and_miss():
    # CappedCylinder(1, 2): side wall x^2 + y^2 = 1 for |z| <= 1, caps z = +-1
    body = CappedCylinder(1.0, 2.0)
    rays = [
        # along +x onto the side wall: t = 5 - r
        ((-5.0, 0.0, 0.0), (1.0, 0.0, 0.0), 4.0, (-1.0, 0.0, 0.0)),
        # along +z onto the bottom cap
        ((0.3, -0.2, -5.0), (0.0, 0.0, 1.0), 4.0, (0.0, 0.0, -1.0)),
        # oblique, onto the side wall at z = 0.99, just below the rim
        ((-4.0, 0.0, -3.01), (0.6, 0.0, 0.8), 5.0, (-1.0, 0.0, 0.0)),
        # oblique, onto the top cap at x = -0.99; the side wall's root lies
        # above the rim (z = 1.0133) and does not count
        ((-3.99, 0.0, 5.0), (0.6, 0.0, -0.8), 5.0, (0.0, 0.0, 1.0)),
        # along +z outside the radius
        ((1.5, 0.0, -5.0), (0.0, 0.0, 1.0), np.inf, (0.0, 0.0, 0.0)),
    ]
    origins = np.array([r[0] for r in rays])
    dirs = np.array([r[1] for r in rays])
    t, normal = classical._cylinder_hit(body, origins, dirs, 1e-9)
    assert t == pytest.approx([r[2] for r in rays], rel=1e-14)
    assert normal == pytest.approx(np.array([r[3] for r in rays]), abs=1e-14)


_SPHERE3 = make_body(Sphere(1.0), 3)
CULL_BODIES = {
    "sphere3": _SPHERE3,
    "groove": groove_prism(),
    "pinwheel": pinwheel_cube(1),
    "diagonal_cube": diagonal_cube(),
    "sphere3_far": TriMesh.from_arrays(_SPHERE3.vertices + 1e4, _SPHERE3.triangles),
}


@settings(max_examples=40, deadline=None)
@given(
    body=st.sampled_from(sorted(CULL_BODIES)),
    kind=st.sampled_from(["lattice", "cells", "reflected", "arbitrary"]),
    grid=st.integers(64, 160),
    seed=st.integers(0, 2**32 - 1),
)
def test_cull_never_changes_a_hit(body, kind, grid, seed):
    # the bounding-sphere and lattice culls must drop only pairs that
    # Moller-Trumbore rejects: t and normals equal the brute-force ones bit
    # for bit
    mesh = CULL_BODIES[body]
    rng = np.random.default_rng(seed)
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    t_min = 1e-9 * mesh.diameter  # as trace sets it
    lattice = None
    if kind == "lattice":
        # a block of the trace lattice's first pass that starts mid-row, as
        # trace hands it to _mesh_hit
        xs = lo[0] + (np.arange(grid) + 0.5) * (hi[0] - lo[0]) / grid
        ys = lo[1] + (np.arange(grid) + 0.5) * (hi[1] - lo[1]) / grid
        first = grid * int(rng.integers(0, grid - 1500 // grid - 1)) + int(rng.integers(1, grid))
        g = first + np.arange(1500)
        origins = np.stack([xs[g // grid], ys[g % grid],
                            np.full(1500, lo[2] - 0.5 * mesh.diameter)], axis=1)
        dirs = np.zeros((1500, 3))
        dirs[:, 2] = 1.0
        lattice = (xs, ys, first, 1500)
    elif kind == "arbitrary":
        origins = rng.uniform(lo - 0.5 * mesh.diameter, hi + 0.5 * mesh.diameter,
                              (1500, 3))
        dirs = rng.standard_normal((1500, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    else:
        # cells of the trace lattice, half of them on its diagonal, where
        # the diagonal cube's split edges lie
        i = rng.integers(0, grid, 1500)
        j = np.where(rng.random(1500) < 0.5, i, rng.integers(0, grid, 1500))
        x = lo[0] + (i + 0.5) * (hi[0] - lo[0]) / grid
        y = lo[1] + (j + 0.5) * (hi[1] - lo[1]) / grid
        origins = np.stack([x, y, np.full(1500, lo[2] - 0.5 * mesh.diameter)], axis=1)
        dirs = np.zeros((1500, 3))
        dirs[:, 2] = 1.0
        if kind == "reflected":
            # the second bounce pass of a trace: specular reflections
            # leaving the first hits
            t, normal = brute_force_mesh_hit(mesh, origins, dirs, t_min)
            hit = np.isfinite(t)
            pts = origins[hit] + t[hit, None] * dirs[hit]
            n_hat = normal[hit]
            d = dirs[hit]
            dirs = d - 2.0 * np.einsum("ij,ij->i", d, n_hat)[:, None] * n_hat
            origins = pts + t_min * n_hat
    # without the edge retrace, ties in t show the lowest-triangle rule; a
    # small pair budget makes a ray's candidate pairs straddle two batches
    for retrace in (True, False):
        t_ref, n_ref = brute_force_mesh_hit(mesh, origins, dirs, t_min, retrace)
        for budget in (classical._PAIR_BUDGET, 997):
            t_new, n_new = classical._mesh_hit(mesh, origins, dirs, t_min, retrace,
                                               pair_budget=budget, lattice=lattice)
            assert np.array_equal(t_new, t_ref)
            assert np.array_equal(n_new, n_ref)


@pytest.mark.parametrize("budget", [classical._PAIR_BUDGET, 997, 7])
@pytest.mark.parametrize("body", sorted(CULL_BODIES))
def test_lattice_cull_yields_each_box_pair_once_in_triangle_order(body, budget):
    # the lattice cull's contract with _mesh_hit: its pairs are exactly
    # those of a ray inside a triangle's padded xy box, each once; each
    # ray's triangles ascend in yield order, which is all the tie rule
    # across batches needs; and no yield holds more than the budget plus
    # one triangle's pairs
    mesh = CULL_BODIES[body]
    n_tri = mesh.n_triangles
    corners = np.stack(mesh.corners())
    pad = 1e-6 * mesh.diameter
    box_lo = corners.min(axis=0) - pad
    box_hi = corners.max(axis=0) + pad
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    cells = (np.arange(97) + 0.5) / 97
    regular = [lo[a] + cells * (hi[a] - lo[a]) for a in (0, 1)]
    lattices = [
        regular,
        # more rows and columns, exactly on the padded boxes' edges and on
        # the corners, a pad inside them
        [np.unique(np.concatenate([regular[a], box_lo[:, a], box_hi[:, a],
                                   corners[..., a].ravel()])) for a in (0, 1)],
    ]
    for xs, ys in lattices:
        size, n_cols = len(xs) * len(ys), len(ys)
        # blocks that start and end mid-row, the first one the whole regular
        # grid
        for first, n in ((0, min(size, 10_000)), (size // 3 + 17, 1500),
                         (size // 2 + n_cols - 1, 2 * n_cols + 3), (size - 50, 50)):
            g = first + np.arange(n)
            x, y = xs[g // n_cols, None], ys[g % n_cols, None]
            inside = ((box_lo[:, 0] <= x) & (x <= box_hi[:, 0])
                      & (box_lo[:, 1] <= y) & (y <= box_hi[:, 1]))
            yields = list(classical._lattice_pairs(mesh, (xs, ys, first, n), budget))
            pairs = np.concatenate(yields)
            assert np.array_equal(np.sort(pairs), np.flatnonzero(inside)), (first, n)
            assert max(map(len, yields)) <= budget + inside.sum(axis=0).max()
            ray, tri = np.divmod(pairs, n_tri)
            order = np.argsort(ray, kind="stable")
            same_ray = np.diff(ray[order]) == 0
            assert np.all(np.diff(tri[order])[same_ray] > 0), (first, n)


def _degenerate_rays():
    """Rays along +x, +y or +z in the planes of the unit cube's faces, whose
    pairs with those faces have det == 0, and rays aimed exactly at each
    corner from several sides."""
    across = np.linspace(-0.25, 1.25, 13)
    origins, dirs = [], []
    for axis in range(3):
        plane, other = [b for b in range(3) if b != axis]
        for level in (0.0, 1.0):
            for value in across:
                o = np.zeros(3)
                o[axis], o[plane], o[other] = -1.0, level, value
                origins.append(o)
                dirs.append(np.eye(3)[axis])
    offsets = [(0, 0, 2), (0.5, 0.25, 2), (-0.75, 0.5, 1.5), (2, -1, 0.5),
               (1, 1, 1), (-1, -1, -1), (0.25, -2, 0)]
    corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    for corner in corners:
        for offset in offsets:
            # dyadic offsets: origin + direction is the corner exactly
            origins.append(corner - np.array(offset, dtype=float))
            dirs.append(np.array(offset, dtype=float))
    return np.array(origins), np.array(dirs)


# a shear with few-bit dyadic entries: the sheared corners, face-parallel
# directions and corner offsets are exact, so det is still exactly 0 for
# the face-parallel pairs, while the dot products of the other pairs round
# differently in another summation order
_SHEAR = np.array([[1.0, 0.5, 0.25], [0.25, 1.0, 0.5], [0.5, 0.25, 1.0]])


def _dyadic_lattice(shift):
    """A +z lattice block for the (sheared, shifted) unit cube: rows and
    columns every 1/16 from -0.25 to 2, so they fall exactly on the corner
    coordinates, the edges and the split diagonals, plus rows and columns
    2^-41 outside 0 and 1, within the 1e-12 barycentric slack of the
    unsheared cube's edges.  The block starts mid-row.  Returns origins,
    directions and the lattice."""
    steps = np.concatenate([np.arange(-4, 33) / 16.0, [-2.0**-41, 1.0 + 2.0**-41]])
    xs = ys = np.unique(steps + shift)
    first = 5
    g = np.arange(first, len(xs) * len(ys))
    origins = np.stack([xs[g // len(ys)], ys[g % len(ys)], np.full(len(g), shift - 1.0)],
                       axis=1)
    dirs = np.zeros_like(origins)
    dirs[:, 2] = 1.0
    return origins, dirs, (xs, ys, first, len(g))


@pytest.mark.parametrize("shift", [0.0, 1e4])
@pytest.mark.parametrize("shear", [False, True])
def test_degenerate_pairs_match_brute_force(shear, shift):
    # det == 0 pairs and exact corner hits go through the inf and nan
    # branches of Moller-Trumbore; the column form must give the brute-force
    # row form's t and normals bit for bit, and every op that can make an
    # inf or a nan must sit inside the errstate block.  A numpy whose
    # einsum sums three terms in another order fails this test.  The +z
    # lattice rays take the lattice cull, whose padded boxes must keep the
    # rays on and just outside the edges.
    linear = _SHEAR if shear else np.eye(3)
    cube = diagonal_cube()
    mesh = TriMesh.from_arrays(cube.vertices @ linear.T + shift, cube.triangles)
    origins, dirs = _degenerate_rays()
    cases = [(origins @ linear.T + shift, dirs @ linear.T, None), _dyadic_lattice(shift)]
    t_min = 1e-9 * mesh.diameter
    for origins, dirs, lattice in cases:
        for retrace in (True, False):
            # the reference warns: it keeps the inf barycentrics of its misses
            with np.errstate(invalid="ignore"):
                t_ref, n_ref = brute_force_mesh_hit(mesh, origins, dirs, t_min, retrace)
            assert np.isfinite(t_ref).any() and not np.isfinite(t_ref).all()
            for budget in (classical._PAIR_BUDGET, 7):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    t_new, n_new = classical._mesh_hit(mesh, origins, dirs, t_min,
                                                       retrace, pair_budget=budget,
                                                       lattice=lattice)
                assert np.array_equal(t_new, t_ref)
                assert np.array_equal(n_new, n_ref)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 2000),
    layouts=st.tuples(st.sampled_from("CF"), st.sampled_from("CF")),
    seed=st.integers(0, 2**32 - 1),
)
def test_dot3_sums_as_einsum(n, layouts, seed):
    # the tracer's dot products, on rows of any layout, equal numpy's einsum
    # over C-contiguous rows bit for bit, at magnitudes 1e-8 to 1e8; a numpy
    # whose einsum sums three terms in another order fails this test
    rng = np.random.default_rng(seed)

    def rows():
        return rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, 3))

    a, b = rows(), rows()
    vector = rows()[0]
    la, lb = (np.asarray(x, order=layout) for x, layout in zip((a, b), layouts))
    assert np.array_equal(classical._dot3(la, lb), np.einsum("ij,ij->i", a, b))
    assert np.array_equal(classical._dot3(la, vector), np.einsum("ij,j->i", a, vector))


# ---------------------------------------------------------------------------
# histogram


def test_histogram_recovers_sigma_cl(sphere_trace):
    hist = sphere_trace.histogram
    total = hist.values.sum() * hist.bin_solid_angle
    assert total == pytest.approx(sphere_trace.sigma_cl, rel=1e-9)


def test_histogram_transfer_consistency(sphere_trace):
    hist = sphere_trace.histogram
    transfer = (1.0 - hist.cos_centers())[:, None]
    weighted = float(np.sum(hist.values * transfer) * hist.bin_solid_angle)
    assert weighted == pytest.approx(sphere_trace.r_cl, rel=0.02)


# ---------------------------------------------------------------------------
# the thread budget


@pytest.fixture
def budget(monkeypatch):
    """Sets the tracer's thread budget: ``budget(n)`` makes a trace split
    each chunk of grid rows into at least n blocks, bounced on n threads,
    even past the usable CPUs; ``budget(n, block)`` also caps a block at
    ``block`` rays."""
    cpus = classical._usable_cpus()
    default_block = classical._PART_BLOCK

    def set_budget(n, block=default_block):
        monkeypatch.setenv("OMP_NUM_THREADS", str(n))
        monkeypatch.setattr(classical, "_usable_cpus", lambda: max(n, cpus))
        monkeypatch.setattr(classical, "_PART_BLOCK", block)

    return set_budget


@pytest.mark.parametrize(
    "env, expected",
    [
        ({}, None),
        ({"OMP_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "0"}, None),
        ({"OMP_NUM_THREADS": "-3"}, None),
        ({"OMP_NUM_THREADS": "abc"}, None),
        ({"OMP_NUM_THREADS": "100000"}, None),
        # an unusable value gives way to the next variable
        ({"OMP_NUM_THREADS": "abc", "OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "1"}, 1),
    ],
)
def test_thread_budget(monkeypatch, env, expected):
    # None: every CPU the process may use
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    cpus = len(os.sched_getaffinity(0))
    assert classical._thread_budget() == (cpus if expected is None else expected)


def _fields(value):
    """The fields of a dataclass, those of nested dataclasses spliced in."""
    out = []
    for f in dataclasses.fields(value):
        field = getattr(value, f.name)
        out += _fields(field) if dataclasses.is_dataclass(field) else [field]
    return out


INVARIANCE_BODIES = {
    # two chunks of rows: 909 and 191
    "sphere": (Sphere(1.0), 1100),
    "ellipsoid": (Ellipsoid(1.5, 1.0, 0.7), 256),
    "cylinder": (CappedCylinder(1.0, 2.0), 256),
    # up to five bounces in the pits; split in four, the outer blocks see
    # fewer
    "dented": (dented_sphere(1.37)[0], 256),
    "groove": (groove_prism(), 128),
    "pinwheel": (pinwheel_cube(1), 128),
}


@pytest.mark.parametrize("name", sorted(INVARIANCE_BODIES))
def test_trace_does_not_depend_on_the_thread_budget(budget, monkeypatch, name):
    body, grid = INVARIANCE_BODIES[name]
    budget(1)
    # a budget of 1 traces in the calling thread
    with monkeypatch.context() as m:
        def no_thread(self):
            raise AssertionError("a trace at budget 1 started a thread")

        m.setattr(threading.Thread, "start", no_thread)
        want = trace(body, grid)
    # some chunks split into many blocks of an odd size
    default = classical._PART_BLOCK
    for n, block in ((1, 1021), (2, default), (3, 1021), (4, default)):
        budget(n, block)
        got = trace(body, grid)
        for a, b in zip(_fields(got), _fields(want), strict=True):
            assert np.array_equal(a, b), (name, n)
            assert np.asarray(a).dtype == np.asarray(b).dtype, (name, n)


@pytest.mark.parametrize("cap", [0, 1, 2])
def test_trapping_does_not_depend_on_the_thread_budget(budget, cap):
    # the first block that traps reports its first trapped ray; of four
    # blocks, the flat bottom's first traps only at cap 0, and the notch
    # traps both middle ones.  In blocks of 1000 rays, the first trapped
    # ray lies past the first block.
    errors = []
    default = classical._PART_BLOCK
    for n, block in ((1, default), (2, default), (3, default), (4, default),
                     (1, 1000), (3, 1000)):
        budget(n, block)
        with pytest.raises(TrappingError) as info:
            trace(groove_prism(), grid=128, bounce_cap=cap)
        errors.append((info.value.entry_xy, str(info.value)))
    assert errors[1:] == errors[:1] * 5


def test_trace_splits_each_chunk_into_blocks(budget, monkeypatch):
    # each chunk of grid rows is cut into blocks of at most _PART_BLOCK rays,
    # at least one per thread, that tile it in ray order; threads may finish
    # out of order, so the calls are sorted
    calls = []
    trace_block = classical._trace_block

    def record(body, lattice, *args):
        calls.append(lattice[2:])
        return trace_block(body, lattice, *args)

    monkeypatch.setattr(classical, "_trace_block", record)
    budget(2)
    trace(Sphere(1.0), 256)
    assert sorted(calls) == [(0, 32768), (32768, 32768)]

    calls.clear()
    budget(3, 1021)
    trace(Sphere(1.0), 1100)
    calls.sort()
    assert max(n for _, n in calls) <= 1021
    # two chunks of rows: 909 and 191
    for start, end in ((0, 909 * 1100), (909 * 1100, 1100 * 1100)):
        blocks = [(first, n) for first, n in calls if start <= first < end]
        assert len(blocks) >= 3
        ends = [first + n for first, n in blocks]
        assert [first for first, _ in blocks] == [start] + ends[:-1]
        assert ends[-1] == end


def test_first_hit_arguments_show_the_bounce_passes(budget, monkeypatch):
    # the benchmark's tracer reads the bounce passes off _first_hit's
    # arguments: a pass whose directions all have z exactly 1.0 starts a
    # block, and len(origins) is the number of live rays.  Each block's
    # first pass takes all its rays along +z; each later pass takes the
    # rays that hit on the pass before, reflected.
    calls = []
    first_hit = classical._first_hit

    def record(body, origins, dirs, t_min, lattice=None):
        result = first_hit(body, origins, dirs, t_min, lattice=lattice)
        calls.append((lattice, len(origins), bool(np.all(dirs[:, 2] == 1.0)),
                      int(np.count_nonzero(np.isfinite(result[0])))))
        return result

    monkeypatch.setattr(classical, "_first_hit", record)
    # one thread: the blocks' passes come one block after the other
    budget(1, 4099)
    for body, grid in ((Sphere(1.0), 128), (INVARIANCE_BODIES["dented"][0], 128)):
        calls.clear()
        trace(body, grid)
        blocks = [i for i, call in enumerate(calls) if call[0] is not None]
        assert [calls[i][0][2:] for i in blocks] == [
            (first, min(4099, grid * grid - first)) for first in range(0, grid * grid, 4099)]
        for i, (lattice, n, along_z, hits) in enumerate(calls):
            if lattice is not None:
                assert along_z and n == lattice[3]
            else:
                assert not along_z and n == calls[i - 1][3]
        assert len(calls) > len(blocks)


def test_trace_memory_follows_the_chunk_not_the_grid(budget, monkeypatch):
    # no ray outlives its chunk: each block bins its own rays, so at a fixed
    # chunk size the traced peak does not grow with the grid.  On a mesh,
    # the lattice cull builds a block's pairs a group of triangles at a
    # time, from the rows the block holds, so the octahedron's faces, whose
    # boxes each span a quadrant of the grid, cost no more memory at a finer
    # grid either.
    budget(1)
    monkeypatch.setattr(classical, "_RAY_CHUNK", 65536)
    for body in (Sphere(1.0), octahedron()):
        peaks = []
        for grid in (512, 1024, 2048):
            tracemalloc.start()
            try:
                trace(body, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 1.2 * min(peaks), (body, [p / 2**20 for p in peaks])


ORACLE_BODIES = {
    "dented": (dented_sphere(1.37)[0], 128),
    "groove": (groove_prism(), 128),
    "pinwheel": (pinwheel_cube(1), 128),
    "diagonal_cube": (diagonal_cube(), 128),
    # an odd grid: the centre column lies in the plane of icosphere edges
    "sphere3": (_SPHERE3, 129),
}


@pytest.mark.parametrize("name", sorted(ORACLE_BODIES))
def test_trace_matches_the_brute_force_oracle(budget, monkeypatch, name):
    # the first pass's lattice cull, the later passes' sphere cull and the
    # edge retrace give the trace of a test of every ray/triangle pair, bit
    # for bit, also where blocks start mid-row
    body, grid = ORACLE_BODIES[name]
    got = []
    for n, block in ((1, classical._PART_BLOCK), (3, 1021)):
        budget(n, block)
        got.append(trace(body, grid))
    with monkeypatch.context() as m:
        m.setattr(classical, "_mesh_hit",
                  lambda mesh, origins, dirs, t_min, **_:
                  brute_force_mesh_hit(mesh, origins, dirs, t_min))
        budget(1)
        want = trace(body, grid)
    for result in got:
        for a, b in zip(_fields(result), _fields(want), strict=True):
            assert np.array_equal(a, b), name
            assert np.asarray(a).dtype == np.asarray(b).dtype, name


# ---------------------------------------------------------------------------
# the high-k comparison


def test_theorem2_sphere():
    report = theorem2_check(1.0, np.geomspace(10.0, 300.0, 24), grid=512)
    assert report.transport_below_total
    assert report.sigma_trend_decreasing
    assert report.sigma_t_trend_decreasing
    assert report.sigma_ratio[-1] == pytest.approx(1.0, abs=0.03)
    assert report.sigma_t_ratio[-1] == pytest.approx(1.0, abs=0.05)


def test_theorem2_grid_validation():
    with pytest.raises(ValueError):
        theorem2_check(1.0, [5.0, 50.0])
    with pytest.raises(ValueError):
        theorem2_check(1.0, [50.0, 20.0])


# ---------------------------------------------------------------------------
# csv


def test_trace_csv(tmp_path, sphere_trace):
    path = tmp_path / "trace.csv"
    trace_to_csv(sphere_trace, path, header_lines=["demo"])
    lines = path.read_text().splitlines()
    assert lines[1].startswith("sigma_cl,R_cl,")
    values = lines[2].split(",")
    assert float(values[0]) == pytest.approx(sphere_trace.sigma_cl)
    assert int(values[4]) == sphere_trace.rays_hit


def test_histogram_csv(tmp_path, sphere_trace):
    path = tmp_path / "hist.csv"
    histogram_to_csv(sphere_trace.histogram, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "cos_theta_center,phi_center,fcl_sq,ray_count"
    assert len(lines) == 1 + 64 * 64

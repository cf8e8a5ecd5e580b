from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hardscatter import classical
from hardscatter.classical import (
    TrappingError,
    fcl_histogram,
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

FCL_SQ_SPHERE = 0.25  # (a/2)^2 from theta(b) = pi - 2 arcsin(b/a), a = 1


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
            t_best[on_edge] = t_re
            normal[on_edge] = n_re
    return t_best, normal


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


def test_energy_conservation(sphere_trace):
    norms = np.linalg.norm(sphere_trace.outgoing.astype(float), axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6  # float32 storage
    fresh = trace(Sphere(1.0), grid=64)
    # recompute in float64 on a small grid for the tight bound
    assert np.abs(np.linalg.norm(fresh.outgoing.astype(float), axis=1) - 1).max() < 1e-6


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
    result = trace(make_body(Sphere(1.0), 3), grid=128)
    assert result.max_bounces_seen == 1


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
    assert 2 <= result.max_bounces_seen <= 3


def test_groove_trapping_error():
    with pytest.raises(TrappingError, match="entering"):
        trace(groove_prism(), grid=128, bounce_cap=1)


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
    kind=st.sampled_from(["lattice", "reflected", "arbitrary"]),
    grid=st.integers(64, 160),
    seed=st.integers(0, 2**32 - 1),
)
def test_cull_never_changes_a_hit(body, kind, grid, seed):
    # the bounding-sphere cull must drop only pairs that Moller-Trumbore
    # rejects: t and normals equal the brute-force ones bit for bit
    mesh = CULL_BODIES[body]
    rng = np.random.default_rng(seed)
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    t_min = 1e-9 * mesh.diameter  # as trace sets it
    if kind == "arbitrary":
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
            origins = pts + t_min * dirs
    # without the edge retrace, ties in t show the lowest-triangle rule; a
    # small pair budget makes a ray's candidate pairs straddle two batches
    for retrace in (True, False):
        t_ref, n_ref = brute_force_mesh_hit(mesh, origins, dirs, t_min, retrace)
        for budget in (classical._PAIR_BUDGET, 997):
            with mock.patch.object(classical, "_PAIR_BUDGET", budget):
                t_new, n_new = classical._mesh_hit(mesh, origins, dirs, t_min, retrace)
            assert np.array_equal(t_new, t_ref)
            assert np.array_equal(n_new, n_ref)


# ---------------------------------------------------------------------------
# histogram


def test_sphere_histogram_flat():
    result = trace(Sphere(1.0), grid=2048)
    hist = fcl_histogram(result, 32, 32)
    mask = hist.counts >= 50
    assert mask.all()
    deviation = np.abs(hist.values[mask] - FCL_SQ_SPHERE).max() / FCL_SQ_SPHERE
    assert deviation < 0.03


def test_histogram_recovers_sigma_cl(sphere_trace):
    hist = sphere_trace.histogram
    total = hist.values.sum() * hist.bin_solid_angle
    assert total == pytest.approx(sphere_trace.sigma_cl, rel=1e-9)


def test_histogram_transfer_consistency(sphere_trace):
    hist = sphere_trace.histogram
    transfer = (1.0 - hist.cos_centers())[:, None]
    weighted = float(np.sum(hist.values * transfer) * hist.bin_solid_angle)
    assert weighted == pytest.approx(sphere_trace.r_cl, rel=0.02)


def test_histogram_requires_hits():
    result = trace(Sphere(1.0), grid=64)
    object.__setattr__(result, "rays_hit", 0)
    with pytest.raises(ValueError):
        fcl_histogram(result)


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

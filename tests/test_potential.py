import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hardscatter import potential
from hardscatter.geometry import Ellipsoid, Sphere, TriMesh, make_body, reflect
from hardscatter.potential import (
    SolverError,
    SurfaceDensity,
    _centroid_distances,
    _dense_solve_bytes,
    _triangle_self_integral,
    assemble_single_layer,
    capacity,
    distance_moment,
    mu0,
    solve_density,
)
from hardscatter.lowfreq import solve_expansion_densities

from conftest import egg_mesh

MU0_SPHERE = -1.0 / (4.0 * np.pi)


def duffy_self_integral(p0, p1, p2):
    """Oracle: adaptive quadrature of 1/|p - centroid| over the triangle.

    The singularity is removed by splitting at the centroid and applying
    the u-substitution x(u, v) = c + u ((1-v)(a-c) + v(b-c)), whose
    Jacobian cancels the 1/r blow-up.
    """
    c = (p0 + p1 + p2) / 3.0
    total = 0.0
    for a, b in ((p0, p1), (p1, p2), (p2, p0)):
        jac = np.linalg.norm(np.cross(a - c, b - c))

        def integrand(u, v, a=a, b=b):
            pt = c + u * ((1.0 - v) * (a - c) + v * (b - c))
            return u * jac / np.linalg.norm(pt - c)

        val, _ = integrate.dblquad(integrand, 0, 1, 0, 1, epsabs=1e-12, epsrel=1e-12)
        total += val
    return total


def two_far_tetrahedra(separation=100.0):
    """One mesh, two tiny tetrahedra far apart along x."""

    def tetra(offset):
        v = np.array(
            [[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0], [0.5, 0.29, 0.8]]
        ) + offset
        t = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]])
        return v, t

    v1, t1 = tetra(np.zeros(3))
    v2, t2 = tetra(np.array([separation, 0.0, 0.0]))
    return TriMesh.from_arrays(np.vstack([v1, v2]), np.vstack([t1, t2 + 4]))


# ---------------------------------------------------------------------------
# assembly


def test_self_integral_equilateral_against_oracle():
    s = 1.0
    p0 = np.array([0.0, 0.0, 0.0])
    p1 = np.array([s, 0.0, 0.0])
    p2 = np.array([s / 2.0, s * np.sqrt(3.0) / 2.0, 0.0])
    mesh_value = _triangle_self_integral_single(p0, p1, p2)
    oracle = duffy_self_integral(p0, p1, p2)
    assert mesh_value == pytest.approx(oracle, rel=1e-8)
    # closed form for the equilateral triangle: 3 d ln((1+sin60)/(1-sin60))
    d = s / (2.0 * np.sqrt(3.0))
    closed = 3.0 * d * np.log((1 + np.sin(np.pi / 3)) / (1 - np.sin(np.pi / 3)))
    assert mesh_value == pytest.approx(closed, rel=1e-12)


def test_self_integral_skewed_against_oracle():
    p0 = np.array([0.1, -0.2, 0.3])
    p1 = np.array([1.3, 0.1, 0.25])
    p2 = np.array([0.4, 0.9, 0.5])
    assert _triangle_self_integral_single(p0, p1, p2) == pytest.approx(
        duffy_self_integral(p0, p1, p2), rel=1e-8
    )


def _triangle_self_integral_single(p0, p1, p2):
    tetra = TriMesh.from_arrays(
        np.array([p0, p1, p2, (p0 + p1 + p2) / 3.0 + np.array([0, 0, 5.0])]),
        np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]]),
    )
    return _triangle_self_integral(tetra)[0]


def test_far_field_entry_against_oracle():
    mesh = two_far_tetrahedra()
    op = assemble_single_layer(mesh)
    i, j = 0, 4  # one triangle per tetrahedron
    c_i = mesh.centroids[i]
    assert op.matrix[i, j] == pytest.approx(
        mesh.areas[j] / np.linalg.norm(mesh.centroids[j] - c_i), rel=1e-15
    )
    p0, p1, p2 = (c[j] for c in mesh.corners())
    jac = np.linalg.norm(np.cross(p1 - p0, p2 - p0))

    def integrand(u, v):
        pt = p0 + u * (p1 - p0) + v * (p2 - p0)
        return jac / np.linalg.norm(pt - c_i)

    oracle, _ = integrate.dblquad(
        integrand, 0, 1, 0, lambda u: 1 - u, epsabs=1e-12, epsrel=1e-12
    )
    assert op.matrix[i, j] == pytest.approx(oracle, rel=1e-4)


def test_diagonal_positive_and_symmetry_smoke(sphere4_densities, cylinder3_densities):
    # the operator's own matrix is overwritten by its LU factors
    for densities in (sphere4_densities, cylinder3_densities):
        matrix = assemble_single_layer(densities.mesh).matrix
        assert np.all(np.diag(matrix) > 0)
        asym = np.abs(matrix - matrix.T).max() / np.abs(matrix).max()
        assert asym < 0.15


def translated(mesh, shift):
    return TriMesh.from_arrays(mesh.vertices + np.asarray(shift), mesh.triangles)


@pytest.fixture(scope="module")
def far_ellipsoid3():
    return translated(make_body(Ellipsoid(2.0, 1.0, 1.5), 3), [1e4, 1e4, 1e4])


def test_centroid_distance_blocks_far_from_origin(far_ellipsoid3, monkeypatch):
    # several blocks, so that the zeroed diagonal is offset within a block
    monkeypatch.setattr(potential, "_ASSEMBLY_BLOCK", 100)
    mesh = far_ellipsoid3
    cent = mesh.centroids
    reference = np.linalg.norm(cent[:, None, :] - cent[None, :, :], axis=2)
    off = ~np.eye(mesh.n_triangles, dtype=bool)
    seen = 0
    for i0, i1, dist in _centroid_distances(mesh):
        assert dist.shape == (i1 - i0, mesh.n_triangles)
        assert np.all(np.diagonal(dist, offset=i0) == 0.0)
        rel = np.abs(dist - reference[i0:i1])[off[i0:i1]] / reference[i0:i1][off[i0:i1]]
        assert rel.max() < 1e-12
        seen = i1
    assert seen == mesh.n_triangles


def test_distance_moment_against_difference_reference(far_ellipsoid3, monkeypatch):
    monkeypatch.setattr(potential, "_ASSEMBLY_BLOCK", 100)
    mesh = far_ellipsoid3
    values = np.random.default_rng(3).uniform(0.5, 1.5, mesh.n_triangles)
    cent = mesh.centroids
    dist = np.linalg.norm(cent[:, None, :] - cent[None, :, :], axis=2)
    diam = mesh.triangle_diameters()
    near = dist <= 2.0 * np.maximum(diam[:, None], diam[None, :])
    np.fill_diagonal(near, False)
    ii, jj = np.nonzero(near)
    p0, p1, p2 = mesh.corners()
    nodes = ((2 / 3, 1 / 6, 1 / 6), (1 / 6, 2 / 3, 1 / 6), (1 / 6, 1 / 6, 2 / 3))
    dist[ii, jj] = sum(
        np.linalg.norm(w0 * p0[jj] + w1 * p1[jj] + w2 * p2[jj] - cent[ii], axis=1)
        for w0, w1, w2 in nodes
    ) / 3.0
    reference = dist @ (values * mesh.areas)
    moment = distance_moment(assemble_single_layer(mesh), SurfaceDensity(values, mesh))
    assert np.abs(moment / reference - 1.0).max() < 1e-13


def test_assembly_blocks_do_not_change_the_matrix(sphere3, monkeypatch):
    default = assemble_single_layer(sphere3).matrix
    monkeypatch.setattr(potential, "_ASSEMBLY_BLOCK", 64)
    blocked = assemble_single_layer(sphere3).matrix
    assert blocked.flags.f_contiguous
    assert np.array_equal(blocked, default)


def test_far_entries_are_areas_over_centroid_distances(sphere3, monkeypatch):
    # distance_moment and the operator see the same distances bit for bit
    monkeypatch.setattr(potential, "_ASSEMBLY_BLOCK", 100)
    dist = np.vstack([d.copy() for _, _, d in _centroid_distances(sphere3)])
    matrix = assemble_single_layer(sphere3).matrix
    far = np.ones_like(matrix, dtype=bool)
    ii, jj = potential._near_pairs(sphere3)
    far[ii, jj] = False
    np.fill_diagonal(far, False)
    expected = np.broadcast_to(sphere3.areas, matrix.shape)[far] / dist[far]
    assert np.array_equal(matrix[far], expected)


@pytest.mark.parametrize("level", [3, 4])
def test_regenerated_rows_equal_the_assembled_matrix(level):
    mesh = make_body(Sphere(1.0), level)
    op = assemble_single_layer(mesh)
    matrix = op.matrix.copy()
    op.factorize()
    assert op.matrix is None
    rows, moment = potential._row_block_products(op, np.eye(op.n))
    assert moment is None
    assert np.array_equal(rows, matrix)


def _distance_moment_with_masks(operator, density):
    """distance_moment as it was written when the operator kept its matrix:
    each row block masks the whole near record."""
    mesh = operator.mesh
    weighted = density.values * mesh.areas
    out = np.empty(mesh.n_triangles)
    ii, jj, distance = operator.near
    for i0, i1, dist in _centroid_distances(mesh):
        rows = (ii >= i0) & (ii < i1)
        dist[ii[rows] - i0, jj[rows]] = distance[rows] / 3.0
        out[i0:i1] = dist @ weighted
    return out


def test_distance_moment_bitwise_as_with_masks(sphere3, monkeypatch):
    monkeypatch.setattr(potential, "_ASSEMBLY_BLOCK", 100)
    op = assemble_single_layer(sphere3)
    values = np.random.default_rng(5).uniform(-1.0, 1.0, op.n)
    density = SurfaceDensity(values, sphere3)
    assert np.array_equal(distance_moment(op, density),
                          _distance_moment_with_masks(op, density))


def test_expansion_checks_its_solves_in_two_passes(sphere3, monkeypatch):
    # mu0 and mu1a share one pass with the distance moment, mu2 takes one
    passes = []
    blocks = potential._centroid_distances

    def counted(mesh):
        passes.append(mesh)
        return blocks(mesh)

    monkeypatch.setattr(potential, "_centroid_distances", counted)
    densities = solve_expansion_densities(sphere3)
    assert len(passes) == 2
    z = sphere3.centroids[:, 2]
    moment = _distance_moment_with_masks(densities.operator, densities.mu0)
    data2 = -0.5 * z**2 - densities.mu1.integral() - 0.5 * moment
    mu2 = solve_density(densities.operator, data2)
    assert np.array_equal(mu2.values, densities.mu2.values)


def test_near_pairs_found_once_per_expansion(sphere3, monkeypatch):
    # distance_moment reads the operator's near/far split
    calls = []
    find = potential._near_pairs

    def counted(mesh):
        calls.append(mesh)
        return find(mesh)

    monkeypatch.setattr(potential, "_near_pairs", counted)
    solve_expansion_densities(sphere3)
    assert len(calls) == 1


@settings(max_examples=10, deadline=None)
@given(factor=st.floats(0.2, 5.0))
def test_kernel_homogeneity(factor):
    mesh = make_body(Sphere(1.0), 1)
    op = assemble_single_layer(mesh)
    scaled_op = assemble_single_layer(
        TriMesh.from_arrays(mesh.vertices * factor, mesh.triangles)
    )
    assert np.allclose(scaled_op.matrix, factor * op.matrix, rtol=1e-12)


# ---------------------------------------------------------------------------
# solves


def test_solve_roundtrip(sphere4_densities):
    op = sphere4_densities.operator
    ones = np.ones(op.n)
    density = solve_density(op, assemble_single_layer(op.mesh).matrix @ ones)
    assert np.abs(density.values - 1.0).max() < 1e-10


def test_solve_linearity(sphere4_densities):
    op = sphere4_densities.operator
    g = np.sin(op.mesh.centroids[:, 0])
    one = solve_density(op, g)
    two = solve_density(op, 2.0 * g)
    assert np.allclose(two.values, 2.0 * one.values, rtol=1e-12, atol=1e-15)


def test_solve_rejects_bad_data(sphere3):
    op = assemble_single_layer(sphere3)
    with pytest.raises(ValueError):
        solve_density(op, np.ones(3))
    with pytest.raises(ValueError):
        solve_density(op, np.full(op.n, np.nan))


def test_singular_system_reports_condition(sphere3):
    matrix = np.ones((sphere3.n_triangles, sphere3.n_triangles))
    op = dataclasses.replace(assemble_single_layer(sphere3), matrix=matrix)
    with pytest.raises(SolverError, match="rcond"):
        solve_density(op, np.ones(op.n))


def test_non_finite_matrix_entry_raises_before_the_lu(sphere3):
    for value in (np.nan, np.inf):
        op = assemble_single_layer(sphere3)
        op.matrix[7, 3] = value
        with pytest.raises(SolverError, match="non-finite single-layer matrix"):
            op.factorize()
        assert op._lu is None


def _offset_solves(monkeypatch, offsets):
    """Make the LU solves return their solution plus the next offset."""
    solve = potential.sla.lu_solve
    offsets = iter(offsets)

    def offset(lu, b, **kwargs):
        return solve(lu, b, **kwargs) + next(offsets)

    monkeypatch.setattr(potential.sla, "lu_solve", offset)


def test_residual_check_refines_a_perturbed_density(sphere3, monkeypatch):
    op = assemble_single_layer(sphere3)
    g = -np.ones(op.n)
    exact = solve_density(op, g).values
    # the first solve is off by 1e-6, its refinement is exact
    _offset_solves(monkeypatch, [1e-6, 0.0, 0.0])
    (refined, _), moment = potential.solve_densities(op, [g, g], moment=True)
    assert np.abs(refined.values - exact).max() < 1e-12
    # the moment is taken again, of the refined mu0
    assert np.array_equal(moment, distance_moment(op, refined))


def test_residual_check_rejects_a_perturbed_density(sphere3, monkeypatch):
    op = assemble_single_layer(sphere3)
    _offset_solves(monkeypatch, [1e-6, 1e-6])
    with pytest.raises(SolverError, match="solve residual"):
        solve_density(op, -np.ones(op.n))


def test_mu0_sphere_uniform(sphere4_densities):
    values = sphere4_densities.mu0.values
    assert np.abs(values / MU0_SPHERE - 1.0).max() < 0.02


def test_mu0_radius_two():
    mesh = make_body(Sphere(2.0), 3)
    values = mu0(mesh).values
    assert np.abs(values / (-1.0 / (8.0 * np.pi)) - 1.0).max() < 0.02


def test_mu0_symmetric_on_reflection_symmetric_body(sphere4_densities):
    mesh = sphere4_densities.mesh
    mirrored = solve_expansion_densities(reflect(mesh))
    anti = 0.5 * (sphere4_densities.mu0.values - mirrored.mu0.values)
    assert np.abs(anti).max() < 1e-8


# ---------------------------------------------------------------------------
# capacity


def test_capacity_sphere_levels():
    assert abs(capacity(make_body(Sphere(1.0), 4)) - 1.0) < 0.01


def test_capacity_prolate_ellipsoid(ellipsoid4_densities):
    # closed-form prolate spheroid capacity sqrt(a^2-b^2)/arccosh(a/b)
    exact = np.sqrt(4.0 - 1.0) / np.arccosh(2.0)
    assert abs(ellipsoid4_densities.capacity / exact - 1.0) < 0.01


def test_capacity_triaxial_ellipsoid_against_quadrature_oracle():
    # general ellipsoid capacity 2 / integral_0^inf dt / sqrt((a^2+t)(b^2+t)(c^2+t))
    a, b, c = 1.5, 1.0, 0.6

    def integrand(t):
        return 1.0 / np.sqrt((a * a + t) * (b * b + t) * (c * c + t))

    integral, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
    oracle = 2.0 / integral
    from hardscatter.geometry import Ellipsoid

    mesh = make_body(Ellipsoid(a, b, c), 4)
    assert capacity(mesh) == pytest.approx(oracle, rel=0.01)


def test_capacity_scaling():
    mesh = make_body(Sphere(1.0), 2)
    base = capacity(mesh)
    scaled = TriMesh.from_arrays(mesh.vertices * 2.5, mesh.triangles)
    assert capacity(scaled) == pytest.approx(2.5 * base, rel=1e-8)


def test_capacity_translation_invariant():
    mesh = make_body(Sphere(1.0), 3)
    shifted = TriMesh.from_arrays(
        mesh.vertices + np.array([0.3, -1.2, 2.0]), mesh.triangles
    )
    assert capacity(shifted) == pytest.approx(capacity(mesh), rel=1e-10)


def test_capacity_translation_far_from_origin(sphere4_densities):
    # the distance blocks lose digits far from the origin unless centred
    shifted = translated(sphere4_densities.mesh, [1e4, -7e3, 3e3])
    assert capacity(shifted) == pytest.approx(sphere4_densities.capacity, rel=1e-12)


def test_dense_solve_estimate_covers_the_matrix():
    for n in (1, 320, 2048, 5120, 20480):
        assert _dense_solve_bytes(n) >= 8 * n * n


def test_level_6_sphere_preflight_below_3_4_gib():
    # the matrix is factorised in place: one 8 n^2 array, not two
    mesh = make_body(Sphere(1.0), 6)
    pairs = len(potential._near_pairs(mesh)[0])
    assert _dense_solve_bytes(mesh.n_triangles, pairs) <= 3.4 * 2**30


def test_level_4_traced_peak_below_one_and_a_half_matrices(sphere4):
    n = sphere4.n_triangles
    tracemalloc.start()
    try:
        solve_expansion_densities(sphere4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


def test_dense_solve_estimate_covers_traced_peak(sphere4):
    n = sphere4.n_triangles
    pairs = len(potential._near_pairs(sphere4)[0])
    tracemalloc.start()
    try:
        solve_expansion_densities(sphere4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _dense_solve_bytes(n, pairs)


def test_available_memory_without_meminfo(monkeypatch):
    def no_meminfo(*args, **kwargs):
        raise FileNotFoundError("no /proc/meminfo")

    monkeypatch.setattr(potential, "open", no_meminfo, raising=False)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert potential._available_bytes() == physical > 0


def test_k_moment_translation_covariance():
    # shifting the body by z0 along the axis adds -z0 * C to the z-moment
    # of the equilibrium density (the density itself is intrinsic)
    mesh = make_body(Sphere(1.0), 3)
    z0 = 0.75
    shifted = TriMesh.from_arrays(
        mesh.vertices + np.array([0.0, 0.0, z0]), mesh.triangles
    )
    base = solve_expansion_densities(mesh)
    moved = solve_expansion_densities(shifted)
    k_base = base.mu0.moment(mesh.centroids[:, 2])
    k_moved = moved.mu0.moment(shifted.centroids[:, 2])
    assert k_moved == pytest.approx(k_base - z0 * base.capacity, abs=1e-9)


def test_capacity_monotone_in_radius():
    assert capacity(make_body(Sphere(1.0), 3)) < capacity(make_body(Sphere(1.1), 3))


def test_capacity_refinement_convergence():
    errors = [
        abs(capacity(make_body(Sphere(1.0), level)) - 1.0) for level in (2, 3, 4, 5)
    ]
    assert all(a > b for a, b in zip(errors, errors[1:]))


# ---------------------------------------------------------------------------
# first- and second-order densities


def test_mu1_antisymmetric_dipole_oracle(sphere4_densities):
    # surface density s0*cos(theta) has interior potential (4 pi / 3) s0 z,
    # so data -z forces s0 = -3/(4 pi)
    z = sphere4_densities.mesh.centroids[:, 2]
    expected = -3.0 / (4.0 * np.pi) * z
    dev = np.abs(sphere4_densities.mu1a.values - expected).max()
    assert dev / (3.0 / (4.0 * np.pi)) < 0.03


def test_mu1_symmetric_is_scaled_mu0(sphere4_densities):
    expected = 1.0 / (4.0 * np.pi)
    symmetric = -sphere4_densities.capacity * sphere4_densities.mu0.values
    assert np.abs(symmetric / expected - 1.0).max() < 0.02


def test_mu1_combined_data_residual(sphere4_densities, ellipsoid4_densities):
    for densities in (sphere4_densities, ellipsoid4_densities):
        mesh = densities.mesh
        combined = densities.mu1.values
        data = -mesh.centroids[:, 2] + densities.capacity
        residual = assemble_single_layer(mesh).matrix @ combined - data
        assert np.abs(residual).max() / np.abs(data).max() < 1e-9


def test_k_identity_on_symmetric_meshes(
    sphere4_densities, ellipsoid4_densities, cube3_densities, cylinder3_densities
):
    for densities in (
        sphere4_densities,
        ellipsoid4_densities,
        cube3_densities,
        cylinder3_densities,
    ):
        mesh = densities.mesh
        z = mesh.centroids[:, 2]
        k_from_mu0 = densities.mu0.moment(z)
        k_from_mu1a = densities.mu1a.integral()
        tol = 1e-6 * densities.capacity * mesh.diameter
        assert abs(k_from_mu0 - k_from_mu1a) < tol


def test_k_vanishes_on_symmetric_bodies(
    sphere4_densities, ellipsoid4_densities, cube3_densities
):
    for densities in (sphere4_densities, ellipsoid4_densities, cube3_densities):
        mesh = densities.mesh
        k_moment = densities.mu0.moment(mesh.centroids[:, 2])
        assert abs(k_moment) < 1e-3 * densities.capacity * mesh.diameter


def test_distance_moment_sphere(sphere4_densities):
    # integral |p - r| dsigma over the unit sphere from a surface point is
    # 16 pi / 3; with mu0 = -1/(4 pi) the half-moment is -2/3 everywhere
    half = 0.5 * distance_moment(sphere4_densities.operator, sphere4_densities.mu0)
    assert np.abs(half / (-2.0 / 3.0) - 1.0).max() < 0.01


def test_mu2_antisymmetric_part_vanishes_on_sphere(sphere4_densities):
    mirrored = solve_expansion_densities(reflect(sphere4_densities.mesh))
    anti = 0.5 * (sphere4_densities.mu2.values - mirrored.mu2.values)
    assert np.abs(anti).max() < 0.02 * np.abs(sphere4_densities.mu2.values).max()


def test_mu2_antisymmetric_integral_is_minus_ck():
    mesh = egg_mesh(3)
    densities = solve_expansion_densities(mesh)
    mirrored = solve_expansion_densities(reflect(mesh))
    anti = 0.5 * (densities.mu2.values - mirrored.mu2.values)
    integral = float(np.sum(anti * mesh.areas))
    k_moment = densities.mu0.moment(mesh.centroids[:, 2])
    target = -densities.capacity * k_moment
    assert abs(integral - target) < max(1e-6, 0.02 * abs(target))


def test_reciprocity_smooth_data(sphere4_densities, ellipsoid4_densities):
    rng = np.random.default_rng(7)
    for densities in (sphere4_densities, ellipsoid4_densities):
        op = densities.operator
        mesh = densities.mesh
        x, y, z = mesh.centroids.T
        basis = np.stack(
            [np.ones_like(x), x, y, z, x * y, y * z, x * z, x * x, y * y, z * z]
        )
        for _ in range(5):
            g = rng.normal(size=10) @ basis
            h = rng.normal(size=10) @ basis
            mug = solve_density(op, g).values
            muh = solve_density(op, h).values
            lhs = np.sum(g * muh * mesh.areas)
            rhs = np.sum(h * mug * mesh.areas)
            scale = max(
                np.sum(np.abs(g * muh * mesh.areas)),
                np.sum(np.abs(h * mug * mesh.areas)),
            )
            assert abs(lhs - rhs) / scale < 0.005

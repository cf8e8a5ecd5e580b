import ast
import itertools
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.spatial import cKDTree

from hardscatter import potential
from hardscatter.geometry import (
    CappedCylinder,
    Ellipsoid,
    MeshError,
    Sphere,
    TriMesh,
    loads_mesh,
    make_body,
    reflect,
)
from hardscatter.potential import (
    RESIDUAL_TOL,
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
from hardscatter.lowfreq import amplitude_expansion, solve_expansion_densities
from tools.golden_cli import SPLIT_CUBE_OFF

from conftest import (
    ORACLE_BODIES,
    dense_matrix,
    egg_mesh,
    identity_group,
    identity_operator,
    moved,
    oracle_body,
)

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
    matrix = dense_matrix(mesh)
    i, j = 0, 4  # one triangle per tetrahedron
    c_i = mesh.centroids[i]
    assert matrix[i, j] == pytest.approx(
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
    assert matrix[i, j] == pytest.approx(oracle, rel=1e-4)


def test_diagonal_positive_and_symmetry_smoke(sphere4_densities, cylinder3_densities):
    # the operator keeps no matrix, only the LU factors of its blocks
    for densities in (sphere4_densities, cylinder3_densities):
        matrix = dense_matrix(densities.mesh)
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
    for i0, i1, dist in _centroid_distances(mesh, np.arange(mesh.n_triangles)):
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
    # the full matrix, and the block of every character of the eight flips
    def blocks():
        op = assemble_single_layer(sphere3)
        return [dense_matrix(sphere3)] + [
            potential._assemble_block(op, c) for c in range(len(op.mirrors.characters))]

    default = blocks()
    monkeypatch.setattr(potential, "_ASSEMBLY_BLOCK", 64)
    for blocked, want in zip(blocks(), default, strict=True):
        assert blocked.flags.f_contiguous
        assert np.array_equal(blocked, want)


def test_far_entries_are_areas_over_centroid_distances(sphere3, monkeypatch):
    # distance_moment and the operator see the same distances bit for bit
    monkeypatch.setattr(potential, "_ASSEMBLY_BLOCK", 100)
    rows = np.arange(sphere3.n_triangles)
    dist = np.vstack([d.copy() for _, _, d in _centroid_distances(sphere3, rows)])
    matrix = dense_matrix(sphere3)
    far = np.ones_like(matrix, dtype=bool)
    ii, jj = potential._near_pairs(sphere3, rows)
    far[ii, jj] = False
    np.fill_diagonal(far, False)
    expected = np.broadcast_to(sphere3.areas, matrix.shape)[far] / dist[far]
    assert np.array_equal(matrix[far], expected)


@pytest.mark.parametrize("level", [3, 4])
def test_regenerated_rows_equal_the_assembled_matrix(level):
    # all rows with the identity group, the representatives' with the eight
    # flips, after the blocks are factorised
    mesh = make_body(Sphere(1.0), level)
    matrix = dense_matrix(mesh)
    for op in (identity_operator(mesh), assemble_single_layer(mesh)):
        op.factorize(0)
        rows, moment = potential._row_block_products(op, np.eye(op.n))
        assert moment is None
        assert np.array_equal(rows, matrix[op.mirrors.reps])


def _distance_moment_with_masks(operator, density):
    """distance_moment as it was written when the operator kept its matrix:
    each row block masks the whole near record."""
    mesh = operator.mesh
    weighted = density.values * mesh.areas
    out = np.empty(mesh.n_triangles)
    ii, jj, distance = operator.near
    for i0, i1, dist in _centroid_distances(mesh, np.arange(mesh.n_triangles)):
        rows = (ii >= i0) & (ii < i1)
        dist[ii[rows] - i0, jj[rows]] = distance[rows] / 3.0
        out[i0:i1] = dist @ weighted
    return out


def test_distance_moment_bitwise_as_with_masks(sphere3, monkeypatch):
    # with the identity group every row is its own representative
    monkeypatch.setattr(potential, "_ASSEMBLY_BLOCK", 100)
    op = identity_operator(sphere3)
    values = np.random.default_rng(5).uniform(-1.0, 1.0, op.n)
    density = SurfaceDensity(values, sphere3)
    assert np.array_equal(distance_moment(op, density),
                          _distance_moment_with_masks(op, density))


def test_dense_products_run_on_scipy_blas():
    # numpy's and scipy's wheels bundle one OpenBLAS each, with a thread
    # pool each; the chain's products go to the one that factorises
    tree = ast.parse(Path(potential.__file__).read_text(encoding="utf-8"))
    numpy_products = {"matmul", "dot", "einsum", "tensordot", "inner", "vdot"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif (isinstance(node, ast.Attribute) and node.attr in numpy_products
              and isinstance(node.value, ast.Name) and node.value.id == "np"):
            found.append((node.lineno, f"np.{node.attr}"))
    assert found == []


def test_expansion_checks_its_solves_in_two_passes(sphere3, monkeypatch):
    # mu0 and mu1a share one pass over the representatives' rows with the
    # distance moment, mu2 takes one; mu2 is rebuilt from that moment (with
    # the identity group, from the masks reference)
    passes = []
    blocks = potential._centroid_distances

    def counted(mesh, rows):
        passes.append(mesh)
        return blocks(mesh, rows)

    monkeypatch.setattr(potential, "_centroid_distances", counted)
    z = sphere3.centroids[:, 2]
    for mirrored in (True, False):
        if not mirrored:
            monkeypatch.setattr(potential, "_mirror_group", identity_group)
        passes.clear()
        densities = solve_expansion_densities(sphere3)
        assert len(passes) == 2
        op = densities.operator
        assert len(op.mirrors.signs) == (8 if mirrored else 1)
        moment = (distance_moment(op, densities.mu0) if mirrored
                  else _distance_moment_with_masks(op, densities.mu0))
        data2 = -0.5 * z**2 - densities.mu1.integral() - 0.5 * moment
        mu2 = solve_density(op, data2)
        assert np.array_equal(mu2.values, densities.mu2.values)


def test_near_pairs_found_once_per_expansion(sphere3, monkeypatch):
    # distance_moment reads the operator's near/far split
    calls = []
    find = potential._near_pairs

    def counted(mesh, rows):
        calls.append(mesh)
        return find(mesh, rows)

    monkeypatch.setattr(potential, "_near_pairs", counted)
    solve_expansion_densities(sphere3)
    assert len(calls) == 1


def sorted_pairs(n, i, j, rows):
    """Both orders of the pairs (i, j) in the rows ``rows`` (ascending) as
    (k, j), k the position of the row in ``rows``, sorted by k, then j."""
    ii, jj = np.concatenate([i, j]), np.concatenate([j, i])
    keep = np.isin(ii, rows)
    ii, jj = ii[keep], jj[keep]
    order = np.argsort(ii * n + jj)
    return np.searchsorted(rows, ii[order]), jj[order]


def kdtree_near_pairs(mesh, rows):
    """The near pairs in the rows ``rows`` as the package found them with
    scipy's cKDTree: the tree's pairs within twice the largest triangle
    diameter, then the rule ``|c_i - c_j| <= 2 max(diam_i, diam_j)``."""
    diam = mesh.triangle_diameters()
    tree = cKDTree(mesh.centroids)
    pairs = tree.query_pairs(2.0 * float(diam.max()), output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    dist = np.linalg.norm(mesh.centroids[i] - mesh.centroids[j], axis=1)
    keep = dist <= 2.0 * np.maximum(diam[i], diam[j])
    return sorted_pairs(mesh.n_triangles, i[keep], j[keep], rows)


def brute_force_near_pairs(mesh, rows):
    """The rule of :func:`kdtree_near_pairs` on every pair of triangles."""
    diam = mesh.triangle_diameters()
    i, j = np.triu_indices(mesh.n_triangles, 1)
    dist = np.linalg.norm(mesh.centroids[i] - mesh.centroids[j], axis=1)
    keep = dist <= 2.0 * np.maximum(diam[i], diam[j])
    return sorted_pairs(mesh.n_triangles, i[keep], j[keep], rows)


def query_rows(mesh, which, seed=0):
    """All panels, the mirror group's representatives, or a random subset
    of the panels, ascending."""
    n = mesh.n_triangles
    if which == "all":
        return np.arange(n)
    if which == "reps":
        return potential._mirror_group(mesh).reps
    rng = np.random.default_rng(seed)
    return np.flatnonzero(rng.random(n) < rng.uniform(0.05, 0.95))


def assert_same_pairs(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(body=st.sampled_from(sorted(ORACLE_BODIES)), seed=st.integers(0, 2**32 - 1),
       exponent=st.floats(-3.0, 3.0),
       offset=st.tuples(*[st.floats(-1e4, 1e4)] * 3),
       which=st.sampled_from(["all", "reps", "subset"]))
def test_near_pairs_equal_the_kdtree_and_brute_force_pairs(body, seed, exponent, offset, which):
    # the cell list replaced a cKDTree query: the near rule values and the
    # distance moment read these pairs, so they must be the same bit for bit.
    # The representatives are those of the body before it was turned
    mesh = moved(oracle_body(body), seed, exponent, offset)
    rows = query_rows(oracle_body(body), which, seed)
    got = potential._near_pairs(mesh, rows)
    assert_same_pairs(got, kdtree_near_pairs(mesh, rows))
    assert_same_pairs(got, brute_force_near_pairs(mesh, rows))


@pytest.mark.parametrize("separation", [3.0, 100.0, 1e5, 1e6, 1e8])
def test_near_pairs_of_parts_far_apart(separation):
    # far-apart parts fall into runs of cells of their own, so the cells
    # along an axis are at most two per centroid whatever the separation
    mesh = two_far_tetrahedra(separation)
    for which in ("all", "reps", "subset"):
        rows = query_rows(mesh, which)
        assert_same_pairs(potential._near_pairs(mesh, rows), brute_force_near_pairs(mesh, rows))
    width = 2.0 * float(mesh.triangle_diameters().max())
    for axis in range(3):
        cells, size = potential._axis_cells(mesh.centroids[:, axis], width)
        assert 1 <= cells.min() and cells.max() < size - 1 <= 2 * mesh.n_triangles


def test_near_pair_search_peak_per_pair():
    # the preflight (_dense_solve_bytes) counts 16 words a pair for the
    # search and the rule sums; the cell list's arrays are numpy's, which
    # tracemalloc sees (cKDTree's C allocations it did not)
    mesh = make_body(Sphere(1.0), 5)
    reps = potential._mirror_group(mesh).reps
    tracemalloc.start()
    try:
        ii, _ = potential._near_pairs(mesh, reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * len(ii)


@settings(max_examples=10, deadline=None)
@given(factor=st.floats(0.2, 5.0))
def test_kernel_homogeneity(factor):
    mesh = make_body(Sphere(1.0), 1)
    op = assemble_single_layer(mesh)
    scaled_op = assemble_single_layer(
        TriMesh.from_arrays(mesh.vertices * factor, mesh.triangles)
    )
    for c in range(len(op.mirrors.characters)):
        assert np.allclose(potential._assemble_block(scaled_op, c),
                           factor * potential._assemble_block(op, c), rtol=1e-12)


# ---------------------------------------------------------------------------
# solves


def test_solve_roundtrip(sphere4_densities):
    op = sphere4_densities.operator
    ones = np.ones(op.n)
    density = solve_density(op, dense_matrix(op.mesh) @ ones)
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


def test_surface_density_rejects_a_column_of_values():
    # a column of ones broadcast against the (n,) areas to an (n, n) sum:
    # 933.3 for the integral where the right value, the area, is 11.67
    mesh = make_body(Sphere(1.0), 2)
    values = np.ones(mesh.n_triangles)
    assert SurfaceDensity(values, mesh).integral() == pytest.approx(11.67, abs=0.01)
    for bad in (values[:, None], values[None, :], values[:-1], np.float64(1.0)):
        with pytest.raises(ValueError, match="shape"):
            SurfaceDensity(bad, mesh)


def test_singular_system_reports_condition(sphere3, monkeypatch):
    def ones(operator, character):
        b = np.count_nonzero(operator.mirrors.admissible[character])
        return np.ones((b, b), order="F")

    monkeypatch.setattr(potential, "_assemble_block", ones)
    op = assemble_single_layer(sphere3)
    with pytest.raises(SolverError, match="rcond"):
        solve_density(op, np.ones(op.n))


def test_non_finite_matrix_entry_raises_before_the_lu(sphere3, monkeypatch):
    assemble = potential._assemble_block
    for value in (np.nan, np.inf):
        def spoiled(operator, character, value=value):
            matrix = assemble(operator, character)
            matrix[7, 3] = value
            return matrix

        monkeypatch.setattr(potential, "_assemble_block", spoiled)
        op = assemble_single_layer(sphere3)
        with pytest.raises(SolverError, match="non-finite single-layer matrix"):
            op.factorize(0)
        assert op._lu == {}


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


def test_residual_check_refines_two_data_in_one_pass(sphere3, monkeypatch):
    # both first solves are off by 1e-6 and both refinements are exact: the
    # two are refined together and checked in one more pass
    op = assemble_single_layer(sphere3)
    g, h = -np.ones(op.n), sphere3.centroids[:, 2]
    exact = [solve_density(op, data).values for data in (g, h)]
    passes = []
    blocks = potential._centroid_distances

    def counted(mesh, rows):
        passes.append(mesh)
        return blocks(mesh, rows)

    monkeypatch.setattr(potential, "_centroid_distances", counted)
    _offset_solves(monkeypatch, [1e-6, 1e-6, 0.0, 0.0])
    densities, moment = potential.solve_densities(op, [g, h], moment=True)
    assert len(passes) == 2
    for density, want in zip(densities, exact, strict=True):
        assert np.abs(density.values - want).max() < 1e-12
    # the moment is that of the refined mu0
    assert np.array_equal(moment, distance_moment(op, densities[0]))


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


def test_capacity_of_parts_far_apart():
    # two unit tetrahedra a distance d apart, each of capacity C1, hold
    # charges that see each other as points: C = 2 C1 / (1 + C1 / d).
    # Their mesh has diameter 1e6, far above the size of its triangles
    d = 1e6
    mesh = two_far_tetrahedra(d)
    one = capacity(TriMesh.from_arrays(mesh.vertices[:4], mesh.triangles[:4]))
    assert capacity(mesh) == pytest.approx(2.0 * one / (1.0 + one / d), rel=5e-11)


def _preflight(mesh):
    """The preflight's estimate for ``mesh``, as assembly takes it."""
    reps = potential._mirror_group(mesh).reps
    rows, _ = potential._near_pairs(mesh, reps)
    return _dense_solve_bytes(mesh.n_triangles, len(reps), len(rows))


def test_dense_solve_estimate_covers_the_matrix(sphere3):
    # the identity group's one block is the full matrix, and its count is
    # the full chain's: the matrix, one row block and 16 words a pair
    for n in (1, 320, 2048, 5120, 20480):
        assert _dense_solve_bytes(n, n, 0) >= 8 * n * n
        assert _dense_solve_bytes(n, n, 7 * n) == (
            8 * (n * n + min(256, n) * n) + 128 * 7 * n)
    # the blocks of every character of the eight flips at once
    mirrors = potential._mirror_group(sphere3)
    sizes = np.count_nonzero(mirrors.admissible, axis=1)
    assert sizes.sum() == sphere3.n_triangles
    assert _dense_solve_bytes(sphere3.n_triangles, len(mirrors.reps), 0) >= 8 * np.sum(
        sizes**2)


def test_level_6_sphere_preflight_below_half_a_gib():
    # the blocks are factorised in place, and each has at most 2608 of the
    # 20480 panels' rows: 458 MiB where the full matrix needed 3.25 GiB
    assert _preflight(make_body(Sphere(1.0), 6)) <= 0.5 * 2**30


def test_level_4_traced_peak_below_one_and_a_half_matrices(sphere4):
    n = sphere4.n_triangles
    tracemalloc.start()
    try:
        solve_expansion_densities(sphere4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


def test_dense_solve_estimate_covers_traced_peak(sphere4, monkeypatch):
    # with the eight flips, and with the identity group
    for mirrored in (True, False):
        if not mirrored:
            monkeypatch.setattr(potential, "_mirror_group", identity_group)
        need = _preflight(sphere4)
        tracemalloc.start()
        try:
            solve_expansion_densities(sphere4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need


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
        residual = dense_matrix(mesh) @ combined - data
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


# ---------------------------------------------------------------------------
# mirror symmetry


ALL_FLIPS = np.array(list(itertools.product((1.0, -1.0), repeat=3)))


def face_set_flips(mesh):
    """Oracle: the flips under which the vertices, as a set of coordinate
    tuples (0.0 and -0.0 equal), and the faces, as sets of those tuples, map
    onto themselves."""
    def faces(v):
        points = [tuple(float(x) + 0.0 for x in p) for p in v]
        return set(points), {frozenset(points[i] for i in f) for f in mesh.triangles}

    vertices, face_set = faces(mesh.vertices)
    return [tuple(s) for s in ALL_FLIPS
            if faces(mesh.vertices * s) == (vertices, face_set)]


def one_ulp_off(mesh):
    """``mesh`` with the x coordinate of one vertex that has no zero
    coordinate moved up by one ulp."""
    v = mesh.vertices.copy()
    i = np.flatnonzero(np.all(v != 0.0, axis=1))[0]
    v[i, 0] = np.nextafter(v[i, 0], np.inf)
    return TriMesh.from_arrays(v, mesh.triangles)


def centred_split_cube():
    """The golden configs' split cube moved to the origin: its vertex set
    has all eight flips, its diagonals fewer."""
    cube = loads_mesh(SPLIT_CUBE_OFF)
    return TriMesh.from_arrays(cube.vertices - 0.5, cube.triangles)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("body", [Sphere(1.0), Ellipsoid(2.0, 1.0, 1.5)], ids=["sphere", "ellipsoid"])
def test_generated_bodies_have_all_eight_flips(body, level):
    mesh = make_body(body, level)
    mirrors = potential._mirror_group(mesh)
    assert np.array_equal(mirrors.signs, ALL_FLIPS)
    assert np.array_equal(mirrors.signs[0], np.ones(3))
    # each flip permutes the panels, and maps a centroid onto its image's
    # to rounding (the image lists its corners in another order)
    cent = mesh.centroids
    for signs, image in zip(mirrors.signs, mirrors.images):
        assert np.array_equal(np.sort(image), np.arange(mesh.n_triangles))
        assert np.abs(cent * signs - cent[image]).max() < 1e-15 * np.abs(cent).max()
    # 8 characters; an orbit of k panels carries k of them
    assert len(mirrors.characters) == 8
    orbit_sizes = [len(set(mirrors.images[:, r])) for r in mirrors.reps]
    assert np.array_equal(np.count_nonzero(mirrors.admissible, axis=0), orbit_sizes)
    assert sum(orbit_sizes) == mesh.n_triangles


# faces of make_body(CappedCylinder(radius, height), level) at levels 0-6,
# None where the side guard refuses the level
CYLINDER_FACES = {
    (1.0, 2.0): [48, 48, 320, 1056, 4192, 16608, 68576],
    (1.0, 0.1): [48, 48, 192, 544, 1888, 6880, 28640],
    (1.0, 0.01): [48, 48, 192, 544, 1888, 6880, 27616],
    (0.5, 3.0): [144, 144, 640, 2336, 9568, 37600, None],
    (1.0, 60.0): [1232, 1232, 4992, 20000, 79968, None, None],
    (2.0, 1.0): [48, 48, 192, 544, 2400, 8928, 36832],
    (1e-3, 5e-3): [112, 112, 512, 2080, 8032, 32480, None],
    (1e3, 1.0): [48, 48, 192, 544, 1888, 6880, 27616],
}


@pytest.mark.parametrize("dims", sorted(CYLINDER_FACES), ids=lambda d: f"{d[0]:g}x{d[1]:g}")
def test_generated_cylinders_have_all_eight_flips(dims):
    for level, faces in enumerate(CYLINDER_FACES[dims]):
        if faces is None:
            with pytest.raises(MeshError, match="side triangles"):
                make_body(CappedCylinder(*dims), level)
            continue
        mesh = make_body(CappedCylinder(*dims), level)
        # a closed surface of genus 0 has faces / 2 + 2 vertices
        assert (mesh.n_triangles, len(mesh.vertices)) == (faces, faces // 2 + 2)
        assert np.array_equal(potential._mirror_group(mesh).signs, ALL_FLIPS), level


def test_mirror_group_matches_the_set_oracle(cube3):
    meshes = {
        "sphere3": make_body(Sphere(1.0), 3),
        "cylinder3": make_body(CappedCylinder(1.0, 2.0), 3),
        "pinwheel_cube": cube3,
        "split_cube": centred_split_cube(),
        "dented": oracle_body("dented"),
        "egg": egg_mesh(2),
    }
    found = {}
    for name, mesh in meshes.items():
        found[name] = [tuple(s) for s in potential._mirror_group(mesh).signs]
        assert found[name] == face_set_flips(mesh), name
    # the capped cylinder is one octant and its mirror images: all eight flips
    assert len(found["cylinder3"]) == 8
    # the split cube's vertex set has all eight flips, its diagonals none
    cube = meshes["split_cube"].vertices
    assert all(set(map(tuple, cube * s)) == set(map(tuple, cube)) for s in ALL_FLIPS)
    assert found["split_cube"] == [(1.0, 1.0, 1.0)]
    assert len(found["pinwheel_cube"]) == 8
    assert found["dented"] == [(1.0, 1.0, 1.0)]
    # the egg's radius depends on z only: x and y flips, not z
    assert found["egg"] == [s for s in map(tuple, ALL_FLIPS) if s[2] == 1.0]


def test_one_ulp_or_an_offset_leaves_the_identity(far_ellipsoid3):
    for level in (3, 5):
        mesh = one_ulp_off(make_body(Sphere(1.0), level))
        assert np.array_equal(potential._mirror_group(mesh).signs, [[1.0, 1.0, 1.0]])
    # the golden configs' far ellipsoid: level 4, scaled by 1e-2 and moved
    e = make_body(Ellipsoid(2.0, 1.0, 1.5), 4)
    far = TriMesh.from_arrays(e.vertices * 1e-2 + (1e3, -2e3, 5e2), e.triangles)
    for mesh in (far, far_ellipsoid3):
        mirrors = potential._mirror_group(mesh)
        assert np.array_equal(mirrors.signs, [[1.0, 1.0, 1.0]])
        assert np.array_equal(mirrors.reps, np.arange(mesh.n_triangles))


def test_negative_zero_matches_zero(sphere3):
    # a flip maps 0.0 to -0.0; a mesh that holds -0.0 for some of its zeros
    # is the same vertex set
    v = sphere3.vertices.copy()
    zero = np.argwhere(v == 0.0)
    v[tuple(zero[::2].T)] = -0.0
    assert np.signbit(v[v == 0.0]).any() and not np.signbit(v[v == 0.0]).all()
    mesh = TriMesh.from_arrays(v, sphere3.triangles)
    assert len(potential._mirror_group(mesh).signs) == 8


def test_blocks_are_signed_orbit_sums_of_the_full_matrix(sphere3, cube3):
    # the egg has four flips, and the x or the y flip fixes some of its
    # panels: a listed entry is keyed to every flip that reaches its panel
    for mesh in (sphere3, egg_mesh(3), cube3):
        op = assemble_single_layer(mesh)
        mirrors = op.mirrors
        fixed = (mirrors.images[1:, mirrors.reps] == mirrors.reps).any(axis=1)
        assert len(mirrors.signs) in (4, 8) and fixed.any()
        matrix = dense_matrix(mesh)
        for c, chi in enumerate(mirrors.characters):
            reps = mirrors.reps[mirrors.admissible[c]]
            images = mirrors.images[:, reps]
            want = matrix[np.ix_(reps, images[0])]
            for h in range(1, len(images)):
                new = np.all(images[:h] != images[h], axis=0)
                want = want + matrix[np.ix_(reps, images[h])] * (chi[h] * new)
            assert np.array_equal(potential._assemble_block(op, c), want)


# measured at most 1.7e-14 (level 3) and 5.5e-14 (level 4) of max |mu|, and
# 1.0e-15 in the capacity and d2, at 1 and 2 BLAS threads
DENSITY_BOUND = {3: 3e-14, 4: 1e-13}


@pytest.mark.parametrize("level", [3, 4])
@pytest.mark.parametrize("body", [Sphere(1.0), Ellipsoid(2.0, 1.0, 1.5)], ids=["sphere", "ellipsoid"])
def test_blocks_agree_with_the_identity_group(body, level, monkeypatch):
    mesh = make_body(body, level)
    reduced = solve_expansion_densities(mesh)
    # the even block for mu0 and mu2, the z-odd one for mu1a
    chi = reduced.operator.mirrors.characters
    assert sorted(map(tuple, chi[sorted(reduced.operator._lu)])) == sorted(
        [tuple(np.ones(8)), tuple(ALL_FLIPS[:, 2])])
    monkeypatch.setattr(potential, "_mirror_group", identity_group)
    full = solve_expansion_densities(mesh)
    for name in ("mu0", "mu1a", "mu2"):
        a, b = getattr(reduced, name).values, getattr(full, name).values
        assert len(a) == mesh.n_triangles
        assert np.abs(a - b).max() <= DENSITY_BOUND[level] * np.abs(b).max()
    assert reduced.capacity == pytest.approx(full.capacity, rel=4e-15, abs=0.0)
    assert amplitude_expansion(reduced).d2 == pytest.approx(
        amplitude_expansion(full).d2, rel=4e-15, abs=0.0)


@pytest.mark.parametrize("body", [Sphere(1.0), Ellipsoid(2.0, 1.0, 1.5)], ids=["sphere", "ellipsoid"])
def test_unsymmetric_data_on_a_symmetric_mesh(body):
    # data with a part in every character: all eight blocks are solved, and
    # the residual meets the bound on every row of the full matrix
    mesh = make_body(body, 3)
    op = assemble_single_layer(mesh)
    rng = np.random.default_rng(11)
    for data in (rng.normal(size=op.n), np.sin(3.0 * mesh.centroids @ [1.0, 0.7, -0.4])):
        density = solve_density(op, data)
        residual = dense_matrix(mesh) @ density.values - data
        assert np.abs(residual).max() < RESIDUAL_TOL * np.abs(data).max()
    assert sorted(op._lu) == list(range(8))


# measured 1.1e-15 of the largest value at levels 3 and 4
MOMENT_BOUND = 3e-15


def test_distance_moment_of_any_density_on_every_row():
    mesh = make_body(Ellipsoid(2.0, 1.0, 1.5), 3)
    density = SurfaceDensity(np.random.default_rng(2).normal(size=mesh.n_triangles), mesh)
    moment = distance_moment(assemble_single_layer(mesh), density)
    want = distance_moment(identity_operator(mesh), density)
    assert moment.shape == (mesh.n_triangles,)
    assert np.abs(moment - want).max() < MOMENT_BOUND * np.abs(want).max()

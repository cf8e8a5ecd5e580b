import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardscatter.geometry import (
    CappedCylinder,
    Ellipsoid,
    MeshDegeneracyError,
    MeshError,
    MeshFormatError,
    MeshOrientationError,
    MeshTopologyError,
    Sphere,
    TriMesh,
    dumps_mesh,
    load_mesh,
    loads_mesh,
    make_body,
    mesh_volume,
    reflect,
    save_mesh,
    shadow_area,
    _subdivide,
    _unit_icosphere,
)

from conftest import ORACLE_BODIES, moved, oracle_body, pinwheel_cube

SPHERE_VOLUME = 4.0 * np.pi / 3.0

# 12-triangle unit cube on [0,1]^3, outward wound
CUBE_OFF = """OFF
8 12 0
0 0 0
1 0 0
1 1 0
0 1 0
0 0 1
1 0 1
1 1 1
0 1 1
3 0 2 1
3 0 3 2
3 4 5 6
3 4 6 7
3 0 1 5
3 0 5 4
3 2 3 7
3 2 7 6
3 0 4 7
3 0 7 3
3 1 2 6
3 1 6 5
"""


def cube12() -> TriMesh:
    return loads_mesh(CUBE_OFF)


# ---------------------------------------------------------------------------
# OFF ingestion


def test_load_icosphere_off(tmp_path):
    mesh = make_body(Sphere(1.0), 4)
    path = tmp_path / "icosphere.off"
    save_mesh(mesh, path)
    loaded = load_mesh(path)
    assert loaded.n_triangles == 1280
    assert abs(mesh_volume(loaded) / SPHERE_VOLUME - 1.0) < 0.01


def test_load_cube_off_volume_exact():
    mesh = cube12()
    assert mesh.n_triangles == 12
    assert mesh_volume(mesh) == pytest.approx(1.0, abs=1e-14)


def test_open_surface_rejected():
    # drop the last face: its three edges become single-sided
    lines = CUBE_OFF.strip().splitlines()
    lines[1] = "8 11 0"
    broken = "\n".join(lines[:-1]) + "\n"
    with pytest.raises(MeshTopologyError, match="open surface"):
        loads_mesh(broken)


def test_nonmanifold_edge_rejected():
    lines = CUBE_OFF.strip().splitlines()
    lines[1] = "8 13 0"
    broken = "\n".join(lines + [lines[-1]]) + "\n"
    with pytest.raises(MeshTopologyError, match="non-manifold"):
        loads_mesh(broken)


def test_mesh_without_triangles_rejected():
    with pytest.raises(MeshTopologyError, match="no triangles"):
        loads_mesh("OFF\n3 0 0\n1 0 0\n0 1 0\n0 0 1\n")
    with pytest.raises(MeshTopologyError, match="no triangles"):
        TriMesh.from_arrays(np.eye(3), np.empty((0, 3)))


def test_inconsistent_winding_rejected():
    broken = CUBE_OFF.replace("3 1 6 5", "3 1 5 6")
    with pytest.raises(MeshOrientationError, match="same direction"):
        loads_mesh(broken)


def test_inward_orientation_rejected():
    mesh = cube12()
    with pytest.raises(MeshOrientationError, match="volume"):
        TriMesh.from_arrays(mesh.vertices, mesh.triangles[:, ::-1])


def test_degenerate_triangle_rejected():
    # squash a tetrahedron flat
    v = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, 0.5, 0.0]], dtype=float)
    t = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]])
    with pytest.raises((MeshDegeneracyError, MeshOrientationError)):
        TriMesh.from_arrays(v, t)


def test_needle_triangle_rejected():
    # the area floor is relative to each triangle's own longest edge: a
    # bottom face of height 1e-13 of its longest edge is degenerate, and
    # the three faces on it are well shaped
    v = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1e-13, 0], [0.5, 0.5, 1.0]])
    t = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]])
    with pytest.raises(MeshDegeneracyError, match="1 degenerate triangle"):
        TriMesh.from_arrays(v, t)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "NOFF\n4 4 0\n",
        "OFF\n4 4\n",
        "OFF\n1 0 0\n0 0 nope\n",
        "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2 0\n",
        "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n",
        # a negative count must not reach the array allocation
        "OFF\n-1 5 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
    ],
)
def test_malformed_off_rejected(text):
    with pytest.raises(MeshFormatError):
        loads_mesh(text)


def test_off_roundtrip_bitwise():
    mesh = make_body(Ellipsoid(1.3, 0.7, 1.1), 2)
    again = loads_mesh(dumps_mesh(mesh))
    assert np.array_equal(again.vertices, mesh.vertices)
    assert np.array_equal(again.triangles, mesh.triangles)


# ---------------------------------------------------------------------------
# generators


def test_icosphere_face_counts():
    for level, faces in [(0, 20), (1, 20), (2, 80), (3, 320), (4, 1280)]:
        assert make_body(Sphere(1.0), level).n_triangles == faces


def test_icosphere_inscribed():
    mesh = make_body(Sphere(2.0), 3)
    assert np.allclose(np.linalg.norm(mesh.vertices, axis=1), 2.0, atol=1e-12)


def _subdivide_with_dict(vertices, faces):
    """Midpoint subdivision one face at a time, a dict numbering each
    edge's midpoint where the edge is first met."""
    verts = [tuple(p) for p in vertices]
    cache = {}

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in cache:
            cache[key] = len(verts)
            verts.append(tuple((np.asarray(verts[i]) + np.asarray(verts[j])) / 2.0))
        return cache[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
    return np.asarray(verts), np.asarray(out, dtype=np.int64)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_subdivide_bitwise_as_with_a_dict_on_icospheres(level):
    v, f = _unit_icosphere(level)
    for got, expected in zip(_subdivide(v, f), _subdivide_with_dict(v, f), strict=True):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


def test_subdivide_bitwise_as_with_a_dict_on_the_pinwheel_cube():
    # the conftest cube subdivided twice, from its base fan
    base = pinwheel_cube(0)
    v, t = base.vertices, base.triangles
    for _ in range(2):
        v, t = _subdivide_with_dict(v, t)
    mesh = pinwheel_cube(2)
    assert np.array_equal(mesh.vertices, v)
    assert np.array_equal(mesh.triangles, t)


def test_ellipsoid_volume():
    mesh = make_body(Ellipsoid(2.0, 1.0, 1.0), 4)
    assert abs(mesh_volume(mesh) / (2.0 * SPHERE_VOLUME) - 1.0) < 0.01


def test_cylinder_flat_caps():
    body = CappedCylinder(1.0, 2.0)
    mesh = make_body(body, 3)
    axis_aligned = np.abs(mesh.normals[:, 2]) > 1.0 - 1e-12
    assert np.any(axis_aligned)
    cap_vertex_ids = np.unique(mesh.triangles[axis_aligned])
    assert np.allclose(np.abs(mesh.vertices[cap_vertex_ids, 2]), 1.0, atol=1e-12)
    up = mesh.normals[:, 2] > 1.0 - 1e-12
    down = mesh.normals[:, 2] < -1.0 + 1e-12
    assert np.any(up) and np.any(down)


def test_cylinder_volume_converges():
    body = CappedCylinder(1.0, 2.0)
    exact = np.pi * 2.0
    errors = [
        abs(mesh_volume(make_body(body, level)) - exact) for level in (2, 3, 4)
    ]
    assert errors[2] < errors[1] < errors[0]
    assert errors[2] / exact < 0.01


def test_bad_body_parameters():
    with pytest.raises(ValueError):
        Sphere(0.0)
    with pytest.raises(ValueError):
        Ellipsoid(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        CappedCylinder(1.0, 0.0)
    with pytest.raises(ValueError):
        make_body(Sphere(1.0), -1)
    # every dimension in [1e-50, 1e50], an ellipsoid's axes within 1e5
    Sphere(1e-50), Sphere(1e50)
    Ellipsoid(1e-50, 0.99e-45, 1e-50), Ellipsoid(1e50, 1.01e45, 1.01e45)
    CappedCylinder(1e-50, 1e50)
    for bad in (lambda: Sphere(0.99e-50), lambda: Sphere(1.01e50),
                lambda: Sphere(float("nan")), lambda: Ellipsoid(1.0, 1.0, 0.99e-5),
                lambda: Ellipsoid(1e50, 1.0, 1e50), lambda: CappedCylinder(1e-51, 1.0),
                lambda: CappedCylinder(1.0, float("inf"))):
        with pytest.raises(ValueError):
            bad()


def test_long_cylinder_is_refused_before_it_is_built(monkeypatch):
    # the side's triangle count follows from height / radius and the level
    # alone: h / r = 1e5 at level 2 would need 8.1 million, and the diameter
    # search over their 4 million vertices would ask for 31 GiB.  The
    # refusal comes before the generator builds its first row of vertices,
    # with np.column_stack, which the probe below catches on a cylinder
    # that the guard lets through.
    def no_vertices(*args, **kwargs):
        raise AssertionError("cylinder vertices built")

    monkeypatch.setattr(np, "column_stack", no_vertices)
    with pytest.raises(AssertionError, match="cylinder vertices built"):
        make_body(CappedCylinder(1.0, 2.0), 0)
    for radius, height, level in ((1.0, 1e5, 2), (1e-50, 1e50, 0), (1.0, 600.0, 4)):
        with pytest.raises(MeshError, match="side triangles"):
            make_body(CappedCylinder(radius, height), level)


# ---------------------------------------------------------------------------
# volume, reflection, shadow


def test_sphere_volume_refinement_monotone():
    errors = [
        abs(mesh_volume(make_body(Sphere(1.0), level)) - SPHERE_VOLUME)
        for level in (2, 3, 4, 5)
    ]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] / SPHERE_VOLUME < 0.003


def test_reflect_sphere_vertex_set(sphere3):
    mirrored = reflect(sphere3)
    order = np.lexsort(sphere3.vertices.T)
    order_m = np.lexsort(mirrored.vertices.T)
    assert np.allclose(
        sphere3.vertices[order], mirrored.vertices[order_m], atol=1e-12
    )


def test_reflect_shifted_cube():
    mesh = cube12()
    shifted = TriMesh.from_arrays(mesh.vertices + [0.0, 0.0, 1.0], mesh.triangles)
    assert shifted.vertices[:, 2].min() == pytest.approx(1.0)
    mirrored = reflect(shifted)
    assert mirrored.vertices[:, 2].min() == pytest.approx(-2.0)
    assert mirrored.vertices[:, 2].max() == pytest.approx(-1.0)
    assert mesh_volume(mirrored) == pytest.approx(1.0, abs=1e-14)


def test_reflect_involution(sphere3):
    twice = reflect(reflect(sphere3))
    assert np.array_equal(twice.vertices, sphere3.vertices)
    assert np.array_equal(twice.triangles, sphere3.triangles)


def test_reflect_preserves_volume_and_shadow(ellipsoid4):
    mirrored = reflect(ellipsoid4)
    assert mesh_volume(mirrored) == pytest.approx(mesh_volume(ellipsoid4), rel=1e-10)
    assert shadow_area(mirrored, 256) == pytest.approx(
        shadow_area(ellipsoid4, 256), rel=1e-10
    )


def test_shadow_sphere():
    mesh = make_body(Sphere(1.0), 5)
    assert abs(shadow_area(mesh, 1024) / np.pi - 1.0) < 0.005


def test_shadow_cube_axis_aligned():
    assert abs(shadow_area(cube12(), 1024) - 1.0) < 0.005


def test_shadow_ellipsoid_long_axis_along_z():
    mesh = make_body(Ellipsoid(1.0, 1.0, 2.0), 5)
    assert abs(shadow_area(mesh, 1024) / np.pi - 1.0) < 0.005


def test_pinwheel_cube_valid():
    mesh = pinwheel_cube(2)
    assert mesh.n_triangles == 24 * 16
    assert mesh_volume(mesh) == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=15, deadline=None)
@given(factor=st.floats(0.1, 10.0))
def test_scaling_laws(factor):
    mesh = make_body(Sphere(1.0), 2)
    scaled = TriMesh.from_arrays(mesh.vertices * factor, mesh.triangles)
    assert mesh_volume(scaled) == pytest.approx(
        factor**3 * mesh_volume(mesh), rel=1e-8
    )
    assert shadow_area(scaled, 256) == pytest.approx(
        factor**2 * shadow_area(mesh, 256), rel=1e-8
    )
    assert scaled.diameter == pytest.approx(factor * mesh.diameter, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 2200),
       offset=st.floats(-1e4, 1e4), scale=st.floats(1e-3, 1e3))
def test_point_set_diameter_matches_broadcast_formula(seed, n, offset, scale):
    # the diameter feeds the trust region, the degeneracy floor and the
    # tracer's nudge, so the blocked form must equal the plain one bit for bit
    from hardscatter.geometry import _point_set_diameter, _vertex_tree

    points = np.random.default_rng(seed).normal(size=(n, 3)) * scale + offset
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    assert _point_set_diameter(points, _vertex_tree(points)) == float(np.sqrt(d2.max()))


@settings(max_examples=40, deadline=None)
@given(body=st.sampled_from(sorted(ORACLE_BODIES) + ["sphere5"]),
       seed=st.integers(0, 2**32 - 1), exponent=st.floats(-3.0, 3.0),
       offset=st.tuples(*[st.floats(-1e4, 1e4)] * 3))
def test_point_set_diameter_equals_cdist(body, seed, exponent, offset):
    # the pruned search replaced scipy's cdist: its value must be cdist's
    # largest squared distance, rooted, bit for bit
    from scipy.spatial.distance import cdist

    from hardscatter.geometry import _point_set_diameter, _vertex_tree

    mesh = make_body(Sphere(1.0), 5) if body == "sphere5" else oracle_body(body)
    points = moved(mesh, seed, exponent, offset).vertices
    want = float(np.sqrt(cdist(points, points, "sqeuclidean").max()))
    assert _point_set_diameter(points, _vertex_tree(points)) == want

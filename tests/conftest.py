"""Shared fixtures: expensive meshes and density solves are session-scoped."""

import functools
from unittest import mock

import numpy as np
import pytest

from hardscatter import potential
from hardscatter.geometry import (
    CappedCylinder,
    Ellipsoid,
    Sphere,
    TriMesh,
    make_body,
    _subdivide,
)
from hardscatter.lowfreq import solve_expansion_densities
from perfbench.workloads import dented_sphere

# corners of the unit cube centered at the origin
_CUBE_CORNERS = 0.5 * np.array(
    [
        [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
        [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
    ],
    dtype=float,
)
# per-face corner loops, counterclockwise seen from outside
_CUBE_FACES = [
    (0, 3, 2, 1),  # -z
    (4, 5, 6, 7),  # +z
    (0, 1, 5, 4),  # -y
    (2, 3, 7, 6),  # +y
    (0, 4, 7, 3),  # -x
    (1, 2, 6, 5),  # +x
]


def pinwheel_cube(level: int = 0, edge: float = 1.0) -> TriMesh:
    """Unit-ish cube with a center-vertex fan per face.

    The fan pattern is invariant under all coordinate reflections, which the
    symmetry-sensitive identity tests rely on; ``level`` midpoint-subdivides
    every face triangle (x4 faces per level).
    """
    verts = list(_CUBE_CORNERS * edge)
    tris = []
    for loop in _CUBE_FACES:
        center = len(verts)
        verts.append(np.mean([verts[i] for i in loop], axis=0))
        for a, b in zip(loop, loop[1:] + loop[:1]):
            tris.append([center, a, b])
    v, t = np.asarray(verts), np.asarray(tris, dtype=np.int64)
    for _ in range(level):
        v, t = _subdivide(v, t)
    return TriMesh.from_arrays(v, t)


def egg_mesh(level: int = 3, axis: int = 2) -> TriMesh:
    """Smooth convex body along ``axis`` (z by default), with no reflection
    symmetry across the plane normal to it."""
    sphere = make_body(Sphere(1.0), level)
    z = sphere.vertices[:, axis]
    radial = 1.0 + 0.3 * z + 0.15 * z**2
    return TriMesh.from_arrays(sphere.vertices * radial[:, None], sphere.triangles)


# bodies of the bitwise oracles of the near-pair search and the diameter
ORACLE_BODIES = {
    **{f"sphere{level}": functools.partial(make_body, Sphere(1.0), level)
       for level in (1, 2, 3, 4)},
    "thin_ellipsoid": functools.partial(make_body, Ellipsoid(1.0, 1.0, 0.2), 4),
    "cylinder": functools.partial(make_body, CappedCylinder(1.0, 2.0), 3),
    "dented": lambda: dented_sphere(1.37)[0],
}


@functools.cache
def oracle_body(name: str) -> TriMesh:
    return ORACLE_BODIES[name]()


def moved(mesh: TriMesh, seed: int, exponent: float, offset) -> TriMesh:
    """``mesh`` turned by a random rotation drawn from ``seed``, scaled by
    ``10**exponent`` and moved by ``offset``."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q *= np.sign(np.linalg.det(q))  # a rotation, not a reflection
    vertices = mesh.vertices @ q.T * 10.0**exponent + np.asarray(offset)
    return TriMesh.from_arrays(vertices, mesh.triangles)


def identity_group(mesh: TriMesh) -> potential.MirrorGroup:
    """The one-element mirror group: every panel its own orbit, one block,
    the full matrix."""
    return potential._group(np.ones((1, 3)), np.arange(mesh.n_triangles)[None])


def identity_operator(mesh: TriMesh) -> potential.SingleLayerOperator:
    """The operator of ``mesh`` as if it had no mirror symmetry."""
    with mock.patch.object(potential, "_mirror_group", identity_group):
        return potential.assemble_single_layer(mesh)


def dense_matrix(mesh: TriMesh) -> np.ndarray:
    """The full n x n single-layer matrix: the identity group's block."""
    return potential._assemble_block(identity_operator(mesh), 0)


@pytest.fixture(scope="session")
def sphere3():
    return make_body(Sphere(1.0), 3)


@pytest.fixture(scope="session")
def sphere4():
    return make_body(Sphere(1.0), 4)


@pytest.fixture(scope="session")
def ellipsoid4():
    return make_body(Ellipsoid(2.0, 1.0, 1.0), 4)


@pytest.fixture(scope="session")
def cylinder3():
    return make_body(CappedCylinder(1.0, 2.0), 3)


@pytest.fixture(scope="session")
def cube3():
    return pinwheel_cube(3)


@pytest.fixture(scope="session")
def sphere4_densities(sphere4):
    return solve_expansion_densities(sphere4)


@pytest.fixture(scope="session")
def ellipsoid4_densities(ellipsoid4):
    return solve_expansion_densities(ellipsoid4)


@pytest.fixture(scope="session")
def cylinder3_densities(cylinder3):
    return solve_expansion_densities(cylinder3)


@pytest.fixture(scope="session")
def cube3_densities(cube3):
    return solve_expansion_densities(cube3)

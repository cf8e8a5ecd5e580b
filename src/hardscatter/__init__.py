"""Scattering of quantum and classical particles by hard bodies.

Four computational engines behind one set of surface types:

* :mod:`hardscatter.geometry`: closed triangulated surfaces (OFF I/O,
  generators, shadow projection, z-reflection).
* :mod:`hardscatter.potential`: the 1/r single-layer operator, layer
  densities and the capacity.
* :mod:`hardscatter.lowfreq`: the small-wavenumber amplitude expansion,
  cross sections to order k^2 and the forward-vs-backscattering checks.
* :mod:`hardscatter.sphere_oracle`: exact hard-sphere partial waves, the
  package's ground truth across all wavenumbers.
* :mod:`hardscatter.classical`: specular ray tracing, shadow cross
  section, classical resistance and |f_cl|^2 histograms.
"""

import importlib

__version__ = "0.1.0"

# The thread budget: ``--threads`` writes it into these variables, which the
# BLAS pools read when numpy starts, and every ray trace reads on each call.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Public names and the submodule each comes from.  They load on first
# access (PEP 562), so importing the package, or ``hardscatter.cli``,
# imports neither numpy nor scipy: the CLI can still set the BLAS thread
# budget before numpy starts its thread pools.
_EXPORTS = {
    "geometry": (
        "CappedCylinder", "Ellipsoid", "MeshError", "SolverError", "Sphere",
        "TriMesh", "TrustRegionError", "load_mesh", "loads_mesh", "make_body",
        "mesh_volume", "reflect", "save_mesh", "shadow_area",
    ),
    "potential": (
        "SingleLayerOperator", "SurfaceDensity",
        "assemble_single_layer", "capacity", "mu0", "solve_density",
    ),
    "lowfreq": (
        "AmplitudeExpansion", "SphereQuadrature", "amplitude_expansion",
        "cross_sections_lowfreq", "make_quadrature", "solve_expansion_densities",
    ),
    "sphere_oracle": (
        "CrossSections", "PhaseShiftTable", "amplitude", "cross_sections",
        "fig1_sweep", "low_k_extrapolate", "phase_shifts",
    ),
    "classical": (
        "FclHistogram", "RayTraceResult", "TrappingError", "theorem2_check",
        "trace",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN))

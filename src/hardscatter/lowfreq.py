"""Small-wavenumber expansion of the scattering amplitude and cross sections.

For a hard body the amplitude expands as ``f = f0 + i k f1 + (i k)^2 f2 +
O(k^3)`` with real coefficients built from the layer densities:

    f0    = integral mu0                       (a constant, -capacity)
    f1(q) = integral mu1 - integral (p.q) mu0
    f2(q) = integral mu2 - integral (p.q) mu1 + (1/2) integral (p.q)^2 mu0

from which ``|f|^2 = f0^2 + k^2 (f1^2 - 2 f0 f2) + O(k^4)``.  The total and
transport cross sections follow by quadrature over directions, and their
gap is ``sigma - sigma_T = d2 * k^2`` with

    d2 = integral cos(theta) (f1^2 - 2 f0 f2) dq.

The closed form of the same coefficient is ``-(8 pi / 3) (C Z1 + K^2)``
where ``K = integral z mu0`` and ``Z1 = integral z mu1a``; the analogous
expression with prefactor 4 pi / 3 is also evaluated and reported for
comparison, but the quadrature value is authoritative (both the analytic
sphere densities and the partial-wave series confirm the 8 pi / 3 form).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import write_csv
from .geometry import TriMesh, TrustRegionError, mesh_volume
from .potential import (
    SingleLayerOperator,
    SurfaceDensity,
    assemble_single_layer,
    solve_densities,
    solve_density,
)

__all__ = [
    "TrustRegionError",
    "check_trust_region",
    "SphereQuadrature",
    "make_quadrature",
    "ExpansionDensities",
    "solve_expansion_densities",
    "LowFreqFunctionals",
    "functionals",
    "AmplitudeExpansion",
    "amplitude_expansion",
    "cross_sections_lowfreq",
    "d2_direct",
    "amplitude_to_csv",
]

# k * diameter beyond which the truncated expansion is not trusted.
TRUST_LIMIT = 0.5

# Relative slack allowed in the inequality checks (discretization headroom).
INEQUALITY_SLACK = 1e-3


def check_trust_region(k: float, diameter: float) -> None:
    """Raise unless the truncated expansion is trusted at wavenumber ``k``
    on a body of this diameter (``0 <= k * diameter <= TRUST_LIMIT``)."""
    if k < 0:
        raise ValueError("wavenumber must be >= 0")
    if k * diameter > TRUST_LIMIT:
        raise TrustRegionError(
            f"k*diameter = {k * diameter:.3g} exceeds {TRUST_LIMIT}; "
            "the truncated expansion is not trusted there"
        )


@dataclass(frozen=True)
class SphereQuadrature:
    """Product rule on the unit sphere: Gauss-Legendre in cos(theta) times
    uniform midpoints in phi.  Weights sum to 4 pi."""

    nodes: np.ndarray    # (N, 3) unit vectors
    weights: np.ndarray  # (N,) positive
    n_theta: int
    n_phi: int

    @property
    def cos_theta(self) -> np.ndarray:
        return self.nodes[:, 2]

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(self.weights * values))


def make_quadrature(n_theta: int = 64, n_phi: int = 128) -> SphereQuadrature:
    """Build the product quadrature; exact for the low-degree direction
    polynomials used by the expansion."""
    if n_theta < 2:
        raise ValueError("n_theta must be >= 2")
    if n_phi < 4:
        raise ValueError("n_phi must be >= 4")
    mu_nodes, mu_weights = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    ct = np.repeat(mu_nodes, n_phi)
    st = np.sqrt(np.clip(1.0 - ct**2, 0.0, None))
    ph = np.tile(phi, n_theta)
    nodes = np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=1)
    weights = np.repeat(mu_weights, n_phi) * (2.0 * np.pi / n_phi)
    return SphereQuadrature(nodes, weights, n_theta, n_phi)


@dataclass(frozen=True)
class ExpansionDensities:
    """All layer densities of the expansion on one mesh, solved once.

    ``mu1`` is the whole first-order density ``-capacity * mu0 + mu1a``."""

    mesh: TriMesh
    operator: SingleLayerOperator
    mu0: SurfaceDensity
    mu1: SurfaceDensity
    mu1a: SurfaceDensity
    mu2: SurfaceDensity
    capacity: float


def solve_expansion_densities(mesh: TriMesh) -> ExpansionDensities:
    """Assemble the operator once and solve the density hierarchy with it.

    Boundary data: -1 for mu0, -z for the antisymmetric first-order part
    mu1a, and ``-z^2/2 - integral(mu1) - (1/2) integral(mu0 |p-r|)`` for
    mu2, the last term collocated with :func:`distance_moment`.  The
    symmetric first-order part is ``-capacity * mu0`` pointwise, so that
    mu1 = -capacity * mu0 + mu1a carries the combined data ``-z + capacity``.
    """
    operator = assemble_single_layer(mesh)
    z = mesh.centroids[:, 2]
    # one pass over the regenerated rows checks both solves and gives the
    # distance moment of mu0; mu2's check takes a second
    (density0, mu1a), moment0 = solve_densities(
        operator, [-np.ones(operator.n), -z], moment=True)
    cap = -density0.integral()
    mu1 = SurfaceDensity(-cap * density0.values + mu1a.values, mesh)
    data2 = -0.5 * z**2 - mu1.integral() - 0.5 * moment0
    density2 = solve_density(operator, data2)
    return ExpansionDensities(mesh, operator, density0, mu1, mu1a, density2, cap)


@dataclass(frozen=True)
class LowFreqFunctionals:
    """Scalar functionals of the expansion and the Theorem-1 verdicts.

    ``k_moment`` is ``integral z mu0`` (also ``integral mu1a``),
    ``z1_moment`` is ``integral z mu1a``, and ``exterior_energy`` is the
    Dirichlet energy of the exterior field with boundary value -z, namely
    ``-4 pi z1_moment - volume``.  ``d2`` is the quadrature (authoritative)
    order-k^2 coefficient of sigma - sigma_T; the closed forms
    ``d2_formula_corrected = -(8 pi / 3) (C Z1 + K^2)`` and
    ``d2_formula_paper = -(4 pi / 3) (C Z1 + K^2)`` (reported only) are kept
    alongside for comparison.

    Forward exceeds backscattering at order k^2: ``cs_margin`` is
    ``C * M / (4 pi) - K^2`` (Cauchy-Schwarz, must be nonnegative up to
    slack).  The corrected lower bound is ``d2 >= (2/3) C V``;
    ``paper_bound`` is the literal ``(4 pi / 3) C V``, evaluated for the
    record but not asserted.
    """

    capacity: float
    k_moment: float
    z1_moment: float
    volume: float
    exterior_energy: float
    d2: float
    d2_formula_corrected: float
    d2_formula_paper: float
    cs_margin: float
    cs_pass: bool
    corrected_bound: float
    corrected_pass: bool
    paper_bound: float
    paper_pass: bool

    def report_dict(self) -> dict:
        """JSON-ready report with the documented key set."""
        return {
            "capacity": self.capacity,
            "K": self.k_moment,
            "Z1": self.z1_moment,
            "volume": self.volume,
            "M": self.exterior_energy,
            "d2_direct": self.d2,
            "d2_formula_corrected": self.d2_formula_corrected,
            "d2_formula_paper": self.d2_formula_paper,
            "cs_margin": self.cs_margin,
            "thm1_corrected_pass": self.corrected_pass,
            "thm1_paper_pass": self.paper_pass,
        }


def functionals(
    densities: ExpansionDensities, amp: AmplitudeExpansion
) -> LowFreqFunctionals:
    """Compute capacity, moments, volume, exterior energy and d2, and check
    them against Theorem 1; ``amp`` is the amplitude expansion of the same
    densities."""
    mesh = densities.mesh
    z = mesh.centroids[:, 2]
    cap = densities.capacity
    k_moment = densities.mu0.moment(z)
    z1_moment = densities.mu1a.moment(z)
    volume = mesh_volume(mesh)
    energy = -4.0 * np.pi * z1_moment - volume
    d2 = d2_direct(amp)
    base = cap * z1_moment + k_moment**2
    cs_margin = cap * energy / (4.0 * np.pi) - k_moment**2
    cs_scale = abs(cap * energy / (4.0 * np.pi)) + k_moment**2
    corrected = (2.0 / 3.0) * cap * volume
    paper = (4.0 * np.pi / 3.0) * cap * volume
    return LowFreqFunctionals(
        capacity=cap,
        k_moment=k_moment,
        z1_moment=z1_moment,
        volume=volume,
        exterior_energy=energy,
        d2=d2,
        d2_formula_corrected=-(8.0 * np.pi / 3.0) * base,
        d2_formula_paper=-(4.0 * np.pi / 3.0) * base,
        cs_margin=cs_margin,
        cs_pass=bool(cs_margin >= -INEQUALITY_SLACK * cs_scale),
        corrected_bound=corrected,
        corrected_pass=bool(d2 >= corrected * (1.0 - INEQUALITY_SLACK)),
        paper_bound=paper,
        paper_pass=bool(d2 >= paper * (1.0 - INEQUALITY_SLACK)),
    )


@dataclass(frozen=True)
class AmplitudeExpansion:
    """Expansion coefficients sampled on a sphere quadrature.

    ``f0`` is constant (-capacity); ``f1`` and ``f2`` hold one value per
    quadrature node.
    """

    f0: float
    f1: np.ndarray
    f2: np.ndarray
    quad: SphereQuadrature
    mesh: TriMesh


def amplitude_expansion(
    densities: ExpansionDensities, quad: SphereQuadrature
) -> AmplitudeExpansion:
    """Evaluate f0, f1(q), f2(q) at every quadrature node.

    The direction dependence enters only through moments of the densities
    against 1, p, and p p^T, so the node evaluation is a couple of small
    matrix products.
    """
    mesh = densities.mesh
    cent = mesh.centroids
    areas = mesh.areas
    w0 = densities.mu0.values * areas
    w1 = densities.mu1.values * areas
    f0 = float(np.sum(w0))
    moment1_total = float(np.sum(w1))
    moment0_p = w0 @ cent
    moment1_p = w1 @ cent
    moment0_pp = cent.T @ (cent * w0[:, None])
    moment2_total = densities.mu2.integral()
    q = quad.nodes
    f1 = moment1_total - q @ moment0_p
    f2 = (
        moment2_total
        - q @ moment1_p
        + 0.5 * np.einsum("ni,ij,nj->n", q, moment0_pp, q)
    )
    return AmplitudeExpansion(f0, f1, f2, quad, mesh)


def cross_sections_lowfreq(amp: AmplitudeExpansion, k: float) -> tuple[float, float]:
    """Total and transport cross sections from the truncated expansion.

    Valid only for ``k * diameter <= 0.5``; outside that a
    :class:`TrustRegionError` is raised so callers fall back to an exact
    solution or refuse.
    """
    check_trust_region(k, amp.mesh.diameter)
    intensity = amp.f0**2 + k**2 * (amp.f1**2 - 2.0 * amp.f0 * amp.f2)
    sigma = amp.quad.integrate(intensity)
    sigma_t = amp.quad.integrate((1.0 - amp.quad.cos_theta) * intensity)
    return sigma, sigma_t


def d2_direct(amp: AmplitudeExpansion) -> float:
    """Order-k^2 coefficient of sigma - sigma_T, by direct quadrature of
    ``cos(theta) (f1^2 - 2 f0 f2)``.  This is the authoritative value."""
    ct = amp.quad.cos_theta
    return amp.quad.integrate(ct * (amp.f1**2 - 2.0 * amp.f0 * amp.f2))


def amplitude_to_csv(amp: AmplitudeExpansion, path, header_lines=()) -> None:
    """CSV of the sampled coefficients: cos_theta, phi, f1, f2."""
    q = amp.quad.nodes
    phi = np.arctan2(q[:, 1], q[:, 0])
    write_csv(path, header_lines,
              {"cos_theta": q[:, 2], "phi": phi, "f1": amp.f1, "f2": amp.f2})

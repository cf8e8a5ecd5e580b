"""Exact Dirichlet hard-sphere scattering via partial waves.

For a sphere of radius a the phase shifts are ``tan(delta_l) =
j_l(ka) / y_l(ka)``; the scattering amplitude, total cross section and
transport (momentum transfer) cross section follow from the standard
series

    f(theta)  = (1/k) sum (2l+1) exp(i delta_l) sin(delta_l) P_l(cos theta)
    sigma     = (4 pi / k^2) sum (2l+1) sin^2(delta_l)
    sigma_T   = (4 pi / k^2) sum (l+1) sin^2(delta_l - delta_{l+1})

This module is the ground truth for calibrating the boundary-element
expansion at small k and the classical limit at large k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import spherical_jn, spherical_yn

from ._table import write_csv

__all__ = [
    "PhaseShiftTable",
    "phase_shifts",
    "amplitude",
    "CrossSections",
    "cross_sections",
    "LowKExtrapolation",
    "low_k_extrapolate",
    "fig1_sweep",
    "sweep_to_csv",
    "fig1_to_csv",
    "FIG1_RADIUS",
]

# Tail phase shift below this is considered converged.
TRUNCATION_TOL = 1e-14
# Nodes for the series-vs-quadrature cross-check.
_QUAD_POINTS = 2048

FIG1_RADIUS = 1.0 / np.sqrt(np.pi)


@dataclass(frozen=True)
class PhaseShiftTable:
    """Hard-sphere phase shifts delta_0..delta_L at one size parameter.

    Each delta is the principal branch of atan2(j_l, y_l) folded into
    (-pi/2, pi/2], so the tail tends to zero as l grows.
    """

    radius: float
    ka: float
    delta: np.ndarray

    @property
    def truncation(self) -> int:
        return len(self.delta) - 1

    @property
    def k(self) -> float:
        return self.ka / self.radius


def default_truncation(ka: float) -> int:
    """Size-parameter heuristic for the series length."""
    return int(np.ceil(ka + 4.0 * ka ** (1.0 / 3.0) + 8.0))


def phase_shifts(radius: float, k: float, truncation: int | None = None) -> PhaseShiftTable:
    """Compute the phase-shift table for wavenumber k.

    When ``truncation`` is omitted the heuristic order is used and then
    extended until the last stored shift falls below ``TRUNCATION_TOL``,
    so the table always satisfies the truncation invariant.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    ka = k * radius

    def table(lo: int, upto: int) -> np.ndarray:
        ls = np.arange(lo, upto + 1)
        d = np.arctan2(spherical_jn(ls, ka), spherical_yn(ls, ka))
        return d - np.pi * np.round(d / np.pi)

    if truncation is not None:
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        return PhaseShiftTable(radius, ka, table(0, truncation))

    floor = default_truncation(ka)
    upto = floor + 8
    delta = np.empty(0)
    for _ in range(64):
        # the Bessel functions are elementwise, so extending the table
        # with the new orders gives the same bits as recomputing it
        delta = np.concatenate([delta, table(len(delta), upto)])
        tail = np.nonzero(np.abs(delta) < TRUNCATION_TOL)[0]
        tail = tail[tail >= floor]
        if tail.size:
            return PhaseShiftTable(radius, ka, delta[: tail[0] + 1])
        upto += max(8, upto // 4)
    raise RuntimeError(f"phase shifts did not converge by l={upto} at ka={ka:g}")


def _legendre_rows(order: int, x: np.ndarray) -> np.ndarray:
    """P_0..P_order at the points x, rows indexed by degree."""
    out = np.empty((order + 1, len(x)))
    out[0] = 1.0
    if order >= 1:
        out[1] = x
    for l in range(2, order + 1):
        out[l] = ((2 * l - 1) * x * out[l - 1] - (l - 1) * out[l - 2]) / l
    return out


def _coefficients(table: PhaseShiftTable) -> np.ndarray:
    """The amplitude's partial-wave coefficients (2l+1) e^{i delta_l}
    sin(delta_l) / k, l = 0..L."""
    l = np.arange(table.truncation + 1)
    return (2 * l + 1) * np.exp(1j * table.delta) * np.sin(table.delta) / table.k


def amplitude(table: PhaseShiftTable, theta) -> np.ndarray:
    """Complex scattering amplitude at the given angles (radians)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    legendre = _legendre_rows(table.truncation, np.cos(theta))
    return _coefficients(table) @ legendre


@dataclass(frozen=True)
class CrossSections:
    """Series cross sections with their numerical diagnostics.

    ``optical_residual`` compares sigma with the forward amplitude via the
    optical theorem.  ``series_quad_mismatch`` is the worst relative
    deviation between the partial-wave sums and a 2048-point
    Gauss-Legendre quadrature of the amplitude; it is evaluated on first
    read, from ``table``, since a sweep writes only the series values.
    """

    k: float
    sigma: float
    sigma_t: float
    optical_residual: float
    table: PhaseShiftTable = field(repr=False, compare=False)

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValueError("sigma must be positive")
        if not (0 < self.sigma_t < 2 * self.sigma):
            raise ValueError("sigma_T must lie strictly between 0 and 2*sigma")

    @cached_property
    def series_quad_mismatch(self) -> float:
        mu, w = _gauss_rule(_QUAD_POINTS)
        legendre = _legendre_rows(self.table.truncation, mu)
        intensity = np.abs(_coefficients(self.table) @ legendre) ** 2
        sigma_quad = 2.0 * np.pi * float(np.sum(w * intensity))
        sigma_t_quad = 2.0 * np.pi * float(np.sum(w * (1.0 - mu) * intensity))
        return max(
            abs(sigma_quad / self.sigma - 1.0), abs(sigma_t_quad / self.sigma_t - 1.0)
        )


@lru_cache(maxsize=2)
def _gauss_rule(points: int):
    return np.polynomial.legendre.leggauss(points)


def cross_sections(table: PhaseShiftTable) -> CrossSections:
    """Cross sections via the series; the quadrature cross-check is lazy."""
    k = table.k
    delta = table.delta
    l = np.arange(len(delta))
    sigma = 4.0 * np.pi / k**2 * float(np.sum((2 * l + 1) * np.sin(delta) ** 2))
    gaps = delta[:-1] - delta[1:]
    sigma_t = 4.0 * np.pi / k**2 * float(np.sum((l[:-1] + 1) * np.sin(gaps) ** 2))
    if not (sigma > 0):  # before the optical residual divides by it
        raise ValueError("sigma must be positive")

    forward = complex(np.sum(_coefficients(table)))  # P_l(1) = 1
    optical = abs(4.0 * np.pi / k * forward.imag - sigma) / sigma
    return CrossSections(k, sigma, sigma_t, optical, table)


class LowKExtrapolation(NamedTuple):
    capacity: float  # sqrt(sigma / 4 pi) at k -> 0
    d2: float        # (sigma - sigma_T) / k^2 at k -> 0


def low_k_extrapolate(radius: float) -> LowKExtrapolation:
    """Richardson-extrapolate capacity and the k^2 gap coefficient to k=0.

    Both quantities are even in k; sampling ka in {0.02, 0.01, 0.005} and
    fitting a quadratic in k^2 removes the k^2 and k^4 terms exactly.
    """
    kas = np.array([0.02, 0.01, 0.005])
    ks = kas / radius
    # the sweep wants an ascending grid; the fit keeps the descending order
    rows = fig1_sweep(ks[::-1], radius)
    sigma = rows["sigma"][::-1]
    sigma_t = rows["sigma_T"][::-1]
    vander = np.vander(ks**2, 3, increasing=True)
    cap = np.linalg.solve(vander, np.sqrt(sigma / (4.0 * np.pi)))[0]
    gap = np.linalg.solve(vander, (sigma - sigma_t) / ks**2)[0]
    return LowKExtrapolation(float(cap), float(gap))


def fig1_sweep(k_values, radius: float = FIG1_RADIUS) -> dict[str, np.ndarray]:
    """Oracle sweep plus the classical reference levels.

    Returns columns ka, sigma, sigma_T together with the constant classical
    values sigma_cl = R_cl = pi * radius^2 (and 2 sigma_cl), which are the
    high-k limits of sigma_T and sigma respectively, and the optical-theorem
    residual.  Both sweep CSVs are written from these columns.
    """
    k_values = np.asarray(k_values, dtype=float)
    if np.any(k_values <= 0) or np.any(np.diff(k_values) <= 0):
        raise ValueError("k grid must be positive and strictly ascending")
    sigma = np.empty(len(k_values))
    sigma_t = np.empty(len(k_values))
    optical = np.empty(len(k_values))
    for i, k in enumerate(k_values):
        xs = cross_sections(phase_shifts(radius, k))
        sigma[i], sigma_t[i], optical[i] = xs.sigma, xs.sigma_t, xs.optical_residual
    geo = np.pi * radius**2
    return {
        "ka": k_values * radius,
        "sigma": sigma,
        "sigma_T": sigma_t,
        "sigma_cl": np.full(len(k_values), geo),
        "R_cl": np.full(len(k_values), geo),
        "two_sigma_cl": np.full(len(k_values), 2.0 * geo),
        "optical_residual": optical,
    }


def sweep_to_csv(path, radius: float, k_values, header_lines=()) -> None:
    """Oracle sweep CSV: ka, sigma, sigma_T, ratios to the geometric cross
    section pi a^2, and the optical-theorem residual."""
    rows = fig1_sweep(k_values, radius)
    geo = rows["sigma_cl"]
    write_csv(path, header_lines, {
        "ka": rows["ka"],
        "sigma": rows["sigma"],
        "sigma_T": rows["sigma_T"],
        "sigma_over_geom": rows["sigma"] / geo,
        "sigmaT_over_geom": rows["sigma_T"] / geo,
        "optical_residual": rows["optical_residual"],
    })


def fig1_to_csv(path, k_values, radius: float = FIG1_RADIUS, header_lines=()) -> None:
    """CSV form of :func:`fig1_sweep`, without its optical-residual column."""
    rows = fig1_sweep(k_values, radius)
    del rows["optical_residual"]
    write_csv(path, header_lines, rows)

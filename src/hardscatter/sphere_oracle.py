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
# A sweep's working arrays, _WORK_ARRAYS tables of (Miller start + 2) x
# (chunk of k) doubles, stay within this many bytes.
_WORK_BYTES = 64 * 2**20
_WORK_ARRAYS = 3

FIG1_RADIUS = 1.0 / np.sqrt(np.pi)


@dataclass(frozen=True)
class PhaseShiftTable:
    """Hard-sphere phase shifts delta_0..delta_L at one size parameter.

    Each delta is arctan(j_l / y_l), the principal branch, so the tail
    tends to zero as l grows.
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


def _reach(ka: np.ndarray) -> np.ndarray:
    """Highest order whose phase shift the recurrence evaluates at each ka.

    The first order from ``default_truncation`` on with |delta_l| below
    ``TRUNCATION_TOL`` lies below ka + 6.7 ka^(1/3) + 13 at every ka
    measured, from 1e-3 to 3e4, so this leaves about 1.3 ka^(1/3) + 3
    orders to spare.
    """
    return np.ceil(ka + 8.0 * np.cbrt(ka) + 16.0).astype(np.int64)


def _miller_start(reach: np.ndarray) -> np.ndarray:
    """Order where the downward recurrence for j_l starts, well above
    ``reach`` (Wiscombe, Appl. Opt. 19, 1505, 1980)."""
    return reach + 20 + np.ceil(np.sqrt(40.0 * reach)).astype(np.int64)


def _bessel_columns(ka: np.ndarray, reach: np.ndarray):
    """j_l(ka) and y_l(ka) for l = 0..max(reach), one column per size
    parameter; ``ka`` ascending, ``reach`` from it or raised.

    One loop over l on arrays of ka.  y_l comes upward from its closed
    forms y_0 and y_1.  j_l comes by Miller's downward recurrence in ratio
    form, rho_l = j_l / j_{l-1}, from rho = 0 above ``_miller_start``, so
    nothing overflows at small ka (Gautschi, SIAM Review 9, 24, 1967).  It
    is normalised by sum (2l+1) j_l^2 = 1, with the sign of whichever of
    the closed forms j_0, j_1 is larger in magnitude: a single closed form
    as the anchor would lose relative accuracy near its zeros.

    Each column's arithmetic depends only on its own ka and reach, so a
    column's bits do not depend on the other columns.  Rows above a
    column's reach are not meaningful: y_l is -inf there.  At ka below
    about 1e-17 the top rows of y_l overflow to inf or nan.
    """
    start = _miller_start(reach)
    top = int(start.max())
    rows = int(reach.max()) + 1
    # columns [first[l]:] have start >= l, or reach >= l for y
    first = np.searchsorted(start, np.arange(top + 1))
    first_y = np.searchsorted(reach, np.arange(rows))

    # rho[l] = j_l / j_{l-1}; total = sum_{m >= l} (2m+1) (j_m / j_l)^2
    rho = np.zeros((top + 2, len(ka)))
    total = np.zeros(len(ka))
    for l in range(top, 0, -1):
        c = first[l]
        x = ka[c:]
        d = (2 * l + 1) - x * rho[l + 1, c:]
        if not d.all():
            # j_{l-1} vanishes to rounding: half an ulp keeps rho finite
            d[d == 0] = (2 * l + 1) * 2.0**-53
        rho[l, c:] = x / d
        total[c:] = (2 * l + 1) + rho[l + 1, c:] ** 2 * total[c:]
    total = 1.0 + rho[1] ** 2 * total

    sin, cos = np.sin(ka), np.cos(ka)
    j0 = sin / ka
    j1 = (j0 - cos) / ka
    sign = np.where(np.abs(j0) >= np.abs(j1), np.sign(j0), np.sign(j1) * np.sign(rho[1]))
    rho[0] = sign / np.sqrt(total)
    j = np.cumprod(rho[:rows], axis=0, out=rho[:rows])

    # rows above a column's reach stay -inf, so their delta is -0 or +0
    y = np.full((rows, len(ka)), -np.inf)
    y[0] = -cos / ka
    y[1] = (y[0] - sin) / ka
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(1, rows - 1):
            c = first_y[l + 1]
            y[l + 1, c:] = (2 * l + 1) / ka[c:] * y[l, c:] - y[l - 1, c:]
    return j, y


def _phase_shift_columns(ka: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """delta_l = arctan(j_l / y_l), the principal branch, for l =
    0..max(reach), one column per size parameter (see ``_bessel_columns``)."""
    j, y = _bessel_columns(ka, reach)
    delta = np.divide(j, y, out=j)
    return np.arctan(delta, out=delta)


def _truncation(delta, ka, reach) -> np.ndarray:
    """Per column, the first order l >= ``default_truncation(ka)`` with
    |delta_l| below ``TRUNCATION_TOL``, within the column's reach."""
    # the scalar rule per k: numpy's array power can round ka^(1/3) apart
    floor = np.array([default_truncation(v) for v in ka.tolist()])
    l = np.arange(len(delta))[:, None]
    converged = (np.abs(delta) < TRUNCATION_TOL) & (l >= floor) & (l <= reach)
    order = converged.argmax(axis=0)
    if not converged[order, np.arange(len(order))].all():
        bad = int(np.argmin(converged.any(axis=0)))
        raise RuntimeError(
            f"phase shifts did not converge by l={reach[bad]} at ka={ka[bad]:g}"
        )
    return order


def _check_cross_sections(sigma, sigma_t) -> None:
    if not np.all(sigma > 0):
        raise ValueError("sigma must be positive")
    if not np.all((0 < sigma_t) & (sigma_t < 2 * sigma)):
        raise ValueError("sigma_T must lie strictly between 0 and 2*sigma")


def _series_sums(delta: np.ndarray, order: np.ndarray, k: np.ndarray):
    """sigma, sigma_T and the optical residual of each column of a
    phase-shift table, summed in order of l up to the column's ``order``."""
    cols = np.arange(delta.shape[1])
    l = np.arange(len(delta))[:, None]
    sin = np.sin(delta)
    term = np.square(sin)
    term *= 2 * l + 1
    sigma = 4.0 * np.pi / k**2 * np.cumsum(term, axis=0, out=term)[order, cols]
    # row l holds l sin^2(delta_{l-1} - delta_l), and row 0 nothing
    term[0] = 0.0
    np.subtract(delta[:-1], delta[1:], out=term[1:])
    np.square(np.sin(term, out=term), out=term)
    term *= l
    sigma_t = 4.0 * np.pi / k**2 * np.cumsum(term, axis=0, out=term)[order, cols]
    _check_cross_sections(sigma, sigma_t)  # before the residual divides by sigma
    # the forward amplitude's imaginary part: sum of (2l+1) sin^2(delta_l) / k
    np.multiply(2 * l + 1, sin, out=term)
    term *= sin
    term /= k
    forward = np.cumsum(term, axis=0, out=term)[order, cols]
    optical = np.abs(4.0 * np.pi / k * forward - sigma) / sigma
    return sigma, sigma_t, optical


def phase_shifts(radius: float, k: float) -> PhaseShiftTable:
    """Compute the phase-shift table for wavenumber k.

    The table ends at the first order from ``default_truncation`` on whose
    shift falls below ``TRUNCATION_TOL``.  This is the one-column case of
    the sweep's recurrence: the bits of delta_l do not depend on other k.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    ka = np.array([k * radius])
    reach = _reach(ka)
    delta = _phase_shift_columns(ka, reach)
    order = _truncation(delta, ka, reach)[0]
    return PhaseShiftTable(radius, float(ka[0]), delta[: order + 1, 0].copy())


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
        _check_cross_sections(self.sigma, self.sigma_t)

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
    k = np.array([table.k])
    sums = _series_sums(table.delta[:, None], np.array([table.truncation]), k)
    sigma, sigma_t, optical = (float(v[0]) for v in sums)
    return CrossSections(table.k, sigma, sigma_t, optical, table)


def _gap(delta: np.ndarray, k):
    """sigma - sigma_T from the phase shifts delta_0..delta_L (one column
    per k if 2-D) by its own series, which does not cancel:
    (4 pi / k^2) sum 2(l+1) sin(delta_l) sin(delta_{l+1}) cos(delta_l -
    delta_{l+1})."""
    terms = np.sin(delta[:-1]) * np.sin(delta[1:]) * np.cos(delta[:-1] - delta[1:])
    return 4.0 * np.pi / k**2 * np.tensordot(2 * np.arange(1, len(delta)), terms, axes=1)


class LowKExtrapolation(NamedTuple):
    capacity: float  # sqrt(sigma / 4 pi) at k -> 0
    d2: float        # (sigma - sigma_T) / k^2 at k -> 0


def low_k_extrapolate(radius: float) -> LowKExtrapolation:
    """Capacity and the k^2 gap coefficient at k -> 0, read at ka = 1e-9.

    Both are even in k, and their relative k^2 terms, of order (ka)^2, lie
    far below rounding there.  d2 is read from the gap's own series.
    """
    table = phase_shifts(radius, 1e-9 / radius)
    k = table.k
    cap = np.sqrt(cross_sections(table).sigma / (4.0 * np.pi))
    return LowKExtrapolation(float(cap), float(_gap(table.delta, k) / k**2))


def fig1_sweep(k_values, radius: float = FIG1_RADIUS) -> dict[str, np.ndarray]:
    """Oracle sweep plus the classical reference levels.

    Returns columns ka, sigma, sigma_T together with the constant classical
    values sigma_cl = R_cl = pi * radius^2 (and 2 sigma_cl), which are the
    high-k limits of sigma_T and sigma respectively, and the optical-theorem
    residual.  Both sweep CSVs are written from these columns.

    Each column is ``cross_sections(phase_shifts(radius, k))``, bit for bit,
    but the whole grid goes through the recurrence together, in chunks of k
    whose working arrays stay within ``_WORK_BYTES``.
    """
    k_values = np.asarray(k_values, dtype=float)
    if np.any(k_values <= 0) or np.any(np.diff(k_values) <= 0):
        raise ValueError("k grid must be positive and strictly ascending")
    ka = k_values * radius
    k = ka / radius  # as PhaseShiftTable.k
    reach = _reach(ka)
    rows = int(_miller_start(reach.max())) + 2
    width = max(1, _WORK_BYTES // (_WORK_ARRAYS * 8 * rows))
    sums = np.empty((3, len(ka)))
    for c in range(0, len(ka), width):
        cut = slice(c, c + width)
        delta = _phase_shift_columns(ka[cut], reach[cut])
        order = _truncation(delta, ka[cut], reach[cut])
        sums[:, cut] = _series_sums(delta[: order.max() + 1], order, k[cut])
    sigma, sigma_t, optical = sums
    geo = np.pi * radius**2
    return {
        "ka": ka,
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


def fig1_to_csv(path, k_values, header_lines=()) -> None:
    """CSV form of :func:`fig1_sweep` at ``FIG1_RADIUS``, without its
    optical-residual column."""
    rows = fig1_sweep(k_values)
    del rows["optical_residual"]
    write_csv(path, header_lines, rows)

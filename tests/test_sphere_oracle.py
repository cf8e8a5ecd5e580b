import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardscatter import sphere_oracle
from hardscatter.sphere_oracle import (
    FIG1_RADIUS,
    PhaseShiftTable,
    amplitude,
    cross_sections,
    default_truncation,
    fig1_sweep,
    low_k_extrapolate,
    phase_shifts,
    sweep_to_csv,
)
from scipy.special import spherical_jn, spherical_yn

D2_SPHERE = 8.0 * np.pi / 3.0


def longer_table(table, extra):
    """``table`` with ``extra`` more orders, from the recurrence with its
    reach raised to the last of them."""
    ka = np.array([table.ka])
    top = table.truncation + extra
    reach = np.maximum(sphere_oracle._reach(ka), top)
    delta = sphere_oracle._phase_shift_columns(ka, reach)[: top + 1, 0]
    return PhaseShiftTable(table.radius, table.ka, delta.copy())


# ---------------------------------------------------------------------------
# special functions


def test_bessel_order_zero_closed_form():
    x = 0.7
    j, y = spherical_jn(0, x), spherical_yn(0, x)
    assert j == pytest.approx(np.sin(x) / x, rel=1e-12)
    assert y == pytest.approx(-np.cos(x) / x, rel=1e-12)


def test_bessel_order_one_closed_form():
    x = 0.5
    j = spherical_jn(1, x)
    expected = np.sin(x) / x**2 - np.cos(x) / x  # evaluates to 0.16253703...
    assert j == pytest.approx(expected, rel=1e-10)
    assert j == pytest.approx(0.16253703, abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(0.05, 30.0))
def test_bessel_low_orders_closed_forms(x):
    ls = np.array([0, 1, 2])
    j, y = spherical_jn(ls, x), spherical_yn(ls, x)
    j_exact = [
        np.sin(x) / x,
        np.sin(x) / x**2 - np.cos(x) / x,
        (3.0 / x**3 - 1.0 / x) * np.sin(x) - 3.0 * np.cos(x) / x**2,
    ]
    y_exact = [
        -np.cos(x) / x,
        -np.cos(x) / x**2 - np.sin(x) / x,
        (-3.0 / x**3 + 1.0 / x) * np.cos(x) - 3.0 * np.sin(x) / x**2,
    ]
    # the closed forms cancel catastrophically at small x; allow them the
    # rounding of their largest intermediate term
    atol = 4e-16 * (3.0 / x**3 + 3.0 / x**2 + 1.0)
    assert np.allclose(j, j_exact, rtol=1e-11, atol=atol)
    assert np.allclose(y, y_exact, rtol=1e-11, atol=atol)


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0])
def test_bessel_wronskian(x):
    ls = np.arange(41)
    wronskian = spherical_jn(ls, x) * spherical_yn(ls, x, derivative=True) - (
        spherical_jn(ls, x, derivative=True) * spherical_yn(ls, x)
    )
    assert np.allclose(wronskian, 1.0 / x**2, rtol=1e-10)


# ---------------------------------------------------------------------------
# the recurrence


def bessel_columns(x):
    ka = np.array([x])
    j, y = sphere_oracle._bessel_columns(ka, sphere_oracle._reach(ka))
    return j[:, 0], y[:, 0]


# the doubles nearest pi and 2 pi (zeros of j_0) and the first two zeros of
# j_1; and two doubles near zeros of j_3 and j_4 where the downward
# recurrence's denominator x j_{l-1} / j_l rounds to exactly 0
ZEROS = [np.pi, 2.0 * np.pi, 4.493409457909064, 7.725251836937707,
         13.698023153249249, 8.182561452571242]


@pytest.mark.parametrize("x", [0.05, 50.0, 500.0, 3000.0, 3e4] + ZEROS)
def test_recurrence_matches_scipy(x):
    j, y = bessel_columns(x)
    ls = np.arange(len(j))
    if x > 3000.0:
        # scipy's cost grows with the order: every 97th order, and all
        # orders from just below the turning point l = x up
        ls = np.union1d(ls[::97], ls[int(x) - 60:])
    js, ys = spherical_jn(ls, x), spherical_yn(ls, x)
    # errors on the scale of |h_l| = hypot(j_l, y_l), which sets delta_l's;
    # near a zero of j_l only that scale means anything
    scale = 5e-15 * max(1.0, np.sqrt(x)) * np.hypot(js, ys)
    assert np.all(np.abs(j[ls] - js) <= scale)
    assert np.all(np.abs(y[ls] - ys) <= scale)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(0.05, 3000.0))
def test_recurrence_cross_wronskian(x):
    j, y = bessel_columns(x)
    wronskian = j[1:] * y[:-1] - j[:-1] * y[1:]
    assert np.abs(wronskian * x * x - 1.0).max() < 1e-14 * max(1.0, np.sqrt(x))


def test_sweep_columns_are_phase_shifts(monkeypatch):
    k_values = np.geomspace(0.05, 200.0, 40)
    columns = sphere_oracle._phase_shift_columns
    chunks = []

    def recorded(ka, reach):
        delta = columns(ka, reach)
        chunks.append((ka.copy(), delta.copy()))
        return delta

    monkeypatch.setattr(sphere_oracle, "_phase_shift_columns", recorded)
    rows = fig1_sweep(k_values, 1.3)
    assert len(chunks) == 1
    # chunks of a few columns each do not change a bit
    monkeypatch.setattr(sphere_oracle, "_WORK_BYTES", 2**16)
    chunked = fig1_sweep(k_values, 1.3)
    assert len(chunks) > 3
    for name in ("sigma", "sigma_T", "optical_residual"):
        assert np.array_equal(chunked[name], rows[name])

    ka, delta = chunks[0]
    for i, k in enumerate(k_values):
        table = phase_shifts(1.3, k)
        assert table.ka == ka[i]
        assert np.array_equal(delta[: table.truncation + 1, i], table.delta)
        xs = cross_sections(table)
        assert xs.sigma == rows["sigma"][i]
        assert xs.sigma_t == rows["sigma_T"][i]
        assert xs.optical_residual == rows["optical_residual"][i]


@pytest.mark.parametrize("ka", [1e-5, 1e-8, 1e-12, 1e-37])
def test_delta0_at_small_ka(ka):
    table = phase_shifts(1.0, ka)
    assert abs(table.delta[0] / -ka - 1.0) <= 1e-13
    # delta_0 = -ka gives 4 pi (sin(ka) / ka)^2, and the rest adds (ka)^4 / 3
    sigma_0 = 4.0 * np.pi * (np.sin(ka) / ka) ** 2
    assert abs(cross_sections(table).sigma / sigma_0 - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# phase shifts


def test_delta0_minus_ka():
    # tan(delta_0) = j_0/y_0 = -tan(ka), so delta_0 = -ka modulo pi
    table = phase_shifts(1.0, 1.0)
    assert table.delta[0] == pytest.approx(-1.0, abs=1e-12)
    table = phase_shifts(1.0, 2.0)
    assert table.delta[0] == pytest.approx(np.pi - 2.0, abs=1e-12)


def test_delta1_small_ka():
    # leading forms j_1 ~ x/3, y_1 ~ -1/x^2 give delta_1 ~ -(ka)^3/3
    table = phase_shifts(1.0, 0.1)
    assert table.delta[1] == pytest.approx(-(0.1**3) / 3.0, rel=0.01)


@pytest.mark.parametrize("ka", [0.5, 5.0, 50.0, 200.0, 431.0, 1000.0, 3000.0])
def test_truncation_invariant(ka):
    table = phase_shifts(1.0, ka)
    assert abs(table.delta[-1]) < 1e-14
    assert table.truncation >= default_truncation(ka)
    if ka > 400.0:
        # a table of default_truncation + 8 orders would be too short
        assert table.truncation > default_truncation(ka) + 8


def test_tan_delta_definition():
    table = phase_shifts(1.0, 7.3)
    ls = np.arange(table.truncation + 1)
    j, y = spherical_jn(ls, 7.3), spherical_yn(ls, 7.3)
    ratio = j / y
    err = np.abs(np.tan(table.delta) - ratio) / np.maximum(1.0, np.abs(ratio))
    assert err.max() < 1e-12


def test_phase_shift_validation():
    with pytest.raises(ValueError):
        phase_shifts(0.0, 1.0)
    with pytest.raises(ValueError):
        phase_shifts(1.0, 0.0)


# ---------------------------------------------------------------------------
# amplitude


def test_amplitude_isotropic_at_small_ka():
    a = 1.0
    table = phase_shifts(a, 1e-3)
    theta = np.linspace(0.0, np.pi, 181)
    f = amplitude(table, theta)
    assert np.abs(f + a).max() < 2e-3 * a


@pytest.mark.parametrize("ka", [0.5, 5.0, 50.0])
def test_optical_theorem(ka):
    table = phase_shifts(1.0, ka)
    xs = cross_sections(table)
    forward = amplitude(table, 0.0)[0]
    residual = abs(4.0 * np.pi / table.k * forward.imag - xs.sigma) / xs.sigma
    assert residual < 1e-10
    assert xs.optical_residual < 1e-10


def test_amplitude_series_converged():
    a, ka = 1.0, 5.0
    base = phase_shifts(a, ka)
    longer = longer_table(base, 10)
    f1 = amplitude(base, np.pi)[0]
    f2 = amplitude(longer, np.pi)[0]
    assert abs(f1 - f2) < 1e-12


# ---------------------------------------------------------------------------
# cross sections


def test_low_ka_limits():
    xs = cross_sections(phase_shifts(1.0, 0.01))
    assert xs.sigma == pytest.approx(4.0 * np.pi, rel=1e-3)
    # l = 0, 1 interference term of the series
    assert xs.sigma - xs.sigma_t == pytest.approx(D2_SPHERE * 0.01**2, rel=0.01)


def test_high_ka_limits():
    xs = cross_sections(phase_shifts(1.0, 200.0))
    assert xs.sigma / (2.0 * np.pi) == pytest.approx(1.0, abs=0.03)
    assert xs.sigma_t / np.pi == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("ka", [0.5, 5.0, 50.0, 200.0])
def test_series_quadrature_mismatch(ka):
    xs = cross_sections(phase_shifts(1.0, ka))
    assert xs.series_quad_mismatch < 1e-8


@pytest.fixture(scope="module")
def gauss_2048():
    return np.polynomial.legendre.leggauss(2048)


@pytest.mark.parametrize("ka", [0.5, 5.0, 50.0, 200.0])
def test_lazy_mismatch_is_the_quadrature_formula(ka, gauss_2048, monkeypatch):
    calls = []
    legendre_rows = sphere_oracle._legendre_rows

    def counted(order, x):
        calls.append(order)
        return legendre_rows(order, x)

    monkeypatch.setattr(sphere_oracle, "_legendre_rows", counted)
    table = phase_shifts(1.0, ka)
    xs = cross_sections(table)
    assert calls == []

    k, delta = table.k, table.delta
    mu, w = gauss_2048
    legendre = np.empty((len(delta), len(mu)))
    legendre[0] = 1.0
    legendre[1] = mu
    for l in range(2, len(delta)):
        legendre[l] = ((2 * l - 1) * mu * legendre[l - 1] - (l - 1) * legendre[l - 2]) / l
    l = np.arange(len(delta))
    coeff = (2 * l + 1) * np.exp(1j * delta) * np.sin(delta) / k
    intensity = np.abs(coeff @ legendre) ** 2
    sigma_quad = 2.0 * np.pi * float(np.sum(w * intensity))
    sigma_t_quad = 2.0 * np.pi * float(np.sum(w * (1.0 - mu) * intensity))
    expected = max(abs(sigma_quad / xs.sigma - 1.0), abs(sigma_t_quad / xs.sigma_t - 1.0))

    assert xs.series_quad_mismatch == expected
    assert len(calls) == 1
    assert xs.series_quad_mismatch == expected
    assert len(calls) == 1


def test_sweeps_build_no_gauss_rule():
    sphere_oracle._gauss_rule.cache_clear()
    fig1_sweep(np.geomspace(0.05, 200.0, 60), 1.0)
    low_k_extrapolate(1.0)
    assert sphere_oracle._gauss_rule.cache_info().misses == 0


def test_cross_sections_compare_by_series_values():
    first = cross_sections(phase_shifts(1.0, 5.0))
    second = cross_sections(phase_shifts(1.0, 5.0))
    assert first.table is not second.table
    assert first == second
    assert "delta" not in repr(first)
    assert "PhaseShiftTable" not in repr(first)


@pytest.mark.filterwarnings("error")
def test_sweep_validates_every_k(monkeypatch):
    k_values = np.geomspace(0.5, 50.0, 12)
    columns = sphere_oracle._phase_shift_columns

    def zero_at_last_k(ka, reach):
        delta = columns(ka, reach)
        if ka[-1] == k_values[-1]:
            delta[:, -1] = 0.0
        return delta

    monkeypatch.setattr(sphere_oracle, "_phase_shift_columns", zero_at_last_k)
    with pytest.raises(ValueError, match="sigma must be positive"):
        fig1_sweep(k_values, 1.0)


def test_transport_below_total_across_ka():
    for ka in np.geomspace(1e-3, 300.0, 40):
        xs = cross_sections(phase_shifts(1.0, ka))
        assert 0.0 < xs.sigma_t < xs.sigma


def test_truncation_monotone():
    base = phase_shifts(1.0, 12.0)
    extended = longer_table(base, 25)
    s0 = cross_sections(base).sigma
    s1 = cross_sections(extended).sigma
    assert abs(s1 / s0 - 1.0) < 1e-12


def test_gap_over_k_squared_is_even_in_k():
    # two-parameter even fit must reproduce the third sample to 1e-6
    a = 1.0
    kas = np.array([0.02, 0.01, 0.005])
    gap = np.empty(3)
    for i, ka in enumerate(kas):
        xs = cross_sections(phase_shifts(a, ka))
        gap[i] = (xs.sigma - xs.sigma_t) / ka**2
    coeffs = np.linalg.solve(
        np.vander(kas[:2] ** 2, 2, increasing=True), gap[:2]
    )
    predicted = coeffs[0] + coeffs[1] * kas[2] ** 2
    assert abs(predicted - gap[2]) < 1e-6 * abs(gap[2])


# ---------------------------------------------------------------------------
# extrapolation and the figure sweep


def test_low_k_extrapolate_unit_sphere():
    est = low_k_extrapolate(1.0)
    assert abs(est.capacity - 1.0) < 1e-4
    assert abs(est.d2 / D2_SPHERE - 1.0) < 1e-3


def test_low_k_extrapolate_scaling():
    est = low_k_extrapolate(2.0)
    assert abs(est.capacity - 2.0) < 2e-4
    assert abs(est.d2 / (D2_SPHERE * 16.0) - 1.0) < 1e-3


@pytest.mark.parametrize("radius", [0.37, 1.0, 2.0])
def test_low_k_oracle_is_exact_to_rounding(radius):
    est = low_k_extrapolate(radius)
    assert abs(est.capacity / radius - 1.0) <= 1e-15
    assert abs(est.d2 / (D2_SPHERE * radius**4) - 1.0) <= 1e-15


@pytest.mark.parametrize("ka", [0.5, 5.0, 50.0])
def test_gap_series_is_sigma_minus_sigma_t(ka):
    # where sigma - sigma_T does not cancel, the gap's own series equals it
    table = phase_shifts(1.0, ka)
    xs = cross_sections(table)
    gap = sphere_oracle._gap(table.delta, table.k)
    assert abs(gap - (xs.sigma - xs.sigma_t)) <= 1e-14 * xs.sigma


def test_fig1_sweep_endpoints_and_inequality():
    ka_lo, ka_hi = 0.05, 200.0
    k_values = np.geomspace(ka_lo / FIG1_RADIUS, ka_hi / FIG1_RADIUS, 60)
    rows = fig1_sweep(k_values)
    assert rows["ka"][0] == pytest.approx(ka_lo, rel=1e-12)
    assert rows["sigma"][0] == pytest.approx(4.0, rel=0.01)
    assert rows["sigma_T"][0] == pytest.approx(4.0, rel=0.01)
    assert rows["sigma"][-1] / rows["two_sigma_cl"][-1] == pytest.approx(1.0, abs=0.03)
    assert rows["sigma_T"][-1] / rows["R_cl"][-1] == pytest.approx(1.0, abs=0.05)
    assert np.all(rows["sigma_T"] < rows["sigma"])
    assert rows["sigma_cl"] == pytest.approx(1.0, rel=1e-15)


def test_fig1_grid_validation():
    with pytest.raises(ValueError):
        fig1_sweep([1.0, 0.5])
    with pytest.raises(ValueError):
        fig1_sweep([-1.0, 1.0])


def test_sweep_csv(tmp_path):
    path = tmp_path / "mie.csv"
    sweep_to_csv(path, 1.0, [0.5, 1.0, 2.0], header_lines=["demo"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == (
        "ka,sigma,sigma_T,sigma_over_geom,sigmaT_over_geom,optical_residual"
    )
    first = [float(v) for v in lines[2].split(",")]
    assert first[0] == 0.5
    assert first[3] == pytest.approx(first[1] / np.pi, rel=1e-14)
    assert first[5] < 1e-10

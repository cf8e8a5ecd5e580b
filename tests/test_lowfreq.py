import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardscatter.geometry import Sphere, make_body, reflect, scale_mesh
from hardscatter.lowfreq import (
    TrustRegionError,
    amplitude_expansion,
    amplitude_to_csv,
    cross_sections_lowfreq,
    d2_direct,
    functionals,
    make_quadrature,
    solve_expansion_densities,
)

D2_SPHERE = 8.0 * np.pi / 3.0  # unit sphere, from the analytic densities


@pytest.fixture(scope="module")
def quad():
    return make_quadrature()


@pytest.fixture(scope="module")
def sphere4_functionals(sphere4_densities, sphere4_amplitude):
    return functionals(sphere4_densities, sphere4_amplitude)


@pytest.fixture(scope="module")
def ellipsoid4_functionals(ellipsoid4_densities, quad):
    return functionals(ellipsoid4_densities, amplitude_expansion(ellipsoid4_densities, quad))


@pytest.fixture(scope="module")
def sphere4_amplitude(sphere4_densities, quad):
    return amplitude_expansion(sphere4_densities, quad)


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_weight_sum(quad):
    assert abs(quad.weights.sum() - 4.0 * np.pi) < 1e-12


def test_quadrature_moment_exactness(quad):
    assert abs(quad.integrate(quad.cos_theta)) < 1e-12
    assert abs(quad.integrate(quad.cos_theta**2) - 4.0 * np.pi / 3.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    px=st.floats(-2, 2), py=st.floats(-2, 2), pz=st.floats(-2, 2)
)
def test_quadrature_transverse_moment_vanishes(px, py, pz):
    quad = make_quadrature(16, 32)
    transverse = quad.nodes[:, 0] * px + quad.nodes[:, 1] * py
    value = quad.integrate(transverse * quad.cos_theta**2)
    assert abs(value) < 1e-12


def test_quadrature_validation():
    with pytest.raises(ValueError):
        make_quadrature(1, 32)
    with pytest.raises(ValueError):
        make_quadrature(16, 3)


# ---------------------------------------------------------------------------
# functionals


def test_ellipsoid_functionals_against_elliptic_integral_oracles(
    ellipsoid4, ellipsoid4_functionals
):
    # capacity and the dipole coefficient of an ellipsoid have closed forms:
    #   C  = 2 / integral_0^inf ds / R(s)
    #   Z1 = -(2/3) / integral_0^inf ds / ((c^2 + s) R(s))
    # with R(s) = sqrt((a^2+s)(b^2+s)(c^2+s)) and c the z semi-axis; both
    # feed the closed-form gap coefficient -(8 pi / 3) C Z1 (K = 0 here)
    from scipy import integrate

    a, b, c = 2.0, 1.0, 1.0

    def radical(s):
        return np.sqrt((a * a + s) * (b * b + s) * (c * c + s))

    cap_int, _ = integrate.quad(lambda s: 1 / radical(s), 0, np.inf,
                                epsabs=1e-13, epsrel=1e-13)
    chi0, _ = integrate.quad(lambda s: 1 / ((c * c + s) * radical(s)), 0, np.inf,
                             epsabs=1e-13, epsrel=1e-13)
    cap_oracle = 2.0 / cap_int
    z1_oracle = -(2.0 / 3.0) / chi0
    d2_oracle = -(8.0 * np.pi / 3.0) * cap_oracle * z1_oracle

    fn = ellipsoid4_functionals
    assert fn.capacity == pytest.approx(cap_oracle, rel=0.01)
    assert fn.z1_moment == pytest.approx(z1_oracle, rel=0.01)
    assert fn.d2 == pytest.approx(d2_oracle, rel=0.02)


def test_sphere_functionals(sphere4_functionals):
    fn = sphere4_functionals
    assert abs(fn.k_moment) < 1e-3
    assert abs(fn.z1_moment / -1.0 - 1.0) < 0.02
    assert abs(fn.exterior_energy / (8.0 * np.pi / 3.0) - 1.0) < 0.03
    assert abs(fn.volume / (4.0 * np.pi / 3.0) - 1.0) < 0.01


def test_exterior_energy_nonnegative(sphere4_functionals, ellipsoid4_functionals):
    for fn in (sphere4_functionals, ellipsoid4_functionals):
        floor = -1e-6 * (4.0 * np.pi * abs(fn.z1_moment) + fn.volume)
        assert fn.exterior_energy >= floor


def test_cauchy_schwarz_invariant(
    sphere4_functionals, ellipsoid4_functionals
):
    for fn in (sphere4_functionals, ellipsoid4_functionals):
        bound = fn.capacity * fn.exterior_energy / (4.0 * np.pi)
        assert fn.k_moment**2 <= bound * (1.0 + 1e-3)


# ---------------------------------------------------------------------------
# amplitude expansion


def test_f0_is_minus_capacity(sphere4_amplitude, sphere4_densities):
    assert sphere4_amplitude.f0 == pytest.approx(
        -sphere4_densities.capacity, rel=1e-9
    )
    assert abs(sphere4_amplitude.f0 / -1.0 - 1.0) < 0.01


def test_f1_constant_on_sphere(sphere4_amplitude):
    assert np.abs(sphere4_amplitude.f1 - 1.0).max() < 0.03


def test_f1_symmetric_on_sphere(sphere4_amplitude, quad):
    f1 = sphere4_amplitude.f1.reshape(quad.n_theta, quad.n_phi)
    anti = 0.5 * (f1 - f1[::-1])  # Gauss nodes are symmetric in cos(theta)
    assert np.abs(anti).max() < 0.01 * np.abs(f1).max()


def test_f2_odd_part_on_sphere(sphere4_amplitude, quad):
    # dipole oracle: the odd-in-cos(theta) part of f2 is +cos(theta) for a = 1
    ct = quad.cos_theta
    coeff = quad.integrate(ct * sphere4_amplitude.f2) / quad.integrate(ct * ct)
    assert coeff == pytest.approx(1.0, rel=0.05)


def test_isotropy_bound(sphere4_amplitude):
    amp = sphere4_amplitude
    for k in (0.01, 0.1, 0.2):
        f = amp.f0 + 1j * k * amp.f1 - k**2 * amp.f2
        bound = k * np.abs(amp.f1).max() + k**2 * np.abs(amp.f2).max()
        assert np.abs(f - amp.f0).max() <= bound * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# cross sections


def test_zero_k_isotropic(sphere4_amplitude, sphere4_densities):
    sigma, sigma_t = cross_sections_lowfreq(sphere4_amplitude, 0.0)
    expected = 4.0 * np.pi * sphere4_densities.capacity**2
    assert sigma == pytest.approx(expected, rel=1e-12)
    assert sigma_t == pytest.approx(expected, rel=1e-12)


def test_gap_equals_d2_times_k_squared(sphere4_amplitude):
    k = 0.1
    sigma, sigma_t = cross_sections_lowfreq(sphere4_amplitude, k)
    assert sigma - sigma_t == pytest.approx(
        d2_direct(sphere4_amplitude) * k**2, rel=1e-9
    )
    assert sigma_t < sigma


def test_trust_region_guard(sphere4_amplitude):
    with pytest.raises(TrustRegionError):
        cross_sections_lowfreq(sphere4_amplitude, 0.3)  # k * diam = 0.6
    with pytest.raises(ValueError):
        cross_sections_lowfreq(sphere4_amplitude, -1.0)


# ---------------------------------------------------------------------------
# d2


def test_d2_direct_sphere(sphere4_amplitude):
    assert d2_direct(sphere4_amplitude) == pytest.approx(D2_SPHERE, rel=0.05)


def test_d2_positive(
    sphere4_functionals, ellipsoid4_functionals, cube3_densities, cylinder3_densities
):
    assert sphere4_functionals.d2 > 0
    assert ellipsoid4_functionals.d2 > 0
    for densities in (cube3_densities, cylinder3_densities):
        amp = amplitude_expansion(densities, make_quadrature())
        assert functionals(densities, amp).d2 > 0


def test_d2_formula_matches_direct(sphere4_functionals, ellipsoid4_functionals):
    for fn in (sphere4_functionals, ellipsoid4_functionals):
        assert abs(fn.d2_formula_corrected - fn.d2) <= 0.05 * abs(fn.d2)
        assert fn.d2_formula_paper == pytest.approx(fn.d2_formula_corrected / 2.0)


def test_d2_formula_k_zero_body(sphere4_functionals):
    # K ~ 0, so the closed form collapses to -(8 pi / 3) C Z1
    fn = sphere4_functionals
    collapsed = -(8.0 * np.pi / 3.0) * fn.capacity * fn.z1_moment
    assert fn.d2_formula_corrected == pytest.approx(collapsed, rel=1e-4)


def test_d2_invariant_under_reflection(sphere3):
    quad = make_quadrature(32, 64)
    direct = d2_direct(amplitude_expansion(solve_expansion_densities(sphere3), quad))
    mirrored = d2_direct(
        amplitude_expansion(solve_expansion_densities(reflect(sphere3)), quad)
    )
    assert mirrored == pytest.approx(direct, rel=1e-6)


@settings(max_examples=5, deadline=None)
@given(factor=st.floats(0.5, 2.0))
def test_d2_scaling(factor):
    mesh = make_body(Sphere(1.0), 2)
    quad = make_quadrature(16, 32)
    base = d2_direct(amplitude_expansion(solve_expansion_densities(mesh), quad))
    scaled = d2_direct(
        amplitude_expansion(solve_expansion_densities(scale_mesh(mesh, factor)), quad)
    )
    assert scaled == pytest.approx(factor**4 * base, rel=1e-6)


# ---------------------------------------------------------------------------
# theorem 1


def test_theorem1_sphere(sphere4_functionals):
    report = sphere4_functionals
    assert report.cs_pass
    assert report.cs_margin == pytest.approx(2.0 / 3.0, rel=0.05)
    assert report.corrected_pass
    assert report.corrected_bound == pytest.approx(
        (2.0 / 3.0) * (4.0 * np.pi / 3.0), rel=0.02
    )
    # the literal paper constant overshoots the computed gap; reported only
    assert not report.paper_pass
    assert report.paper_bound > report.d2


def test_theorem1_ellipsoid(ellipsoid4_functionals):
    report = ellipsoid4_functionals
    assert report.cs_pass
    assert report.corrected_pass


def test_report_keys(sphere4_functionals):
    report = sphere4_functionals.report_dict()
    assert set(report) == {
        "capacity", "K", "Z1", "volume", "M",
        "d2_direct", "d2_formula_corrected", "d2_formula_paper",
        "cs_margin", "thm1_corrected_pass", "thm1_paper_pass",
    }
    assert report["thm1_paper_pass"] is False
    assert report["thm1_corrected_pass"] is True


def test_amplitude_csv(tmp_path, sphere4_amplitude):
    path = tmp_path / "f12.csv"
    amplitude_to_csv(sphere4_amplitude, path, header_lines=["demo"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "cos_theta,phi,f1,f2"
    assert len(lines) == 2 + len(sphere4_amplitude.f1)

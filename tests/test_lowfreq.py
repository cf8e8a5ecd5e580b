import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import egg_mesh
from hardscatter.geometry import CappedCylinder, Ellipsoid, Sphere, TriMesh, make_body, reflect
from hardscatter.lowfreq import (
    TRUST_LIMIT,
    TrustRegionError,
    amplitude_expansion,
    amplitude_to_csv,
    cross_sections_lowfreq,
    make_quadrature,
    solve_expansion_densities,
)

D2_SPHERE = 8.0 * np.pi / 3.0  # unit sphere, from the analytic densities


def quadrature_d2(amp, quad):
    """d2 as the direction integral of cos(theta) (f1^2 - 2 f0 f2) on the
    rule ``quad``, which integrates these polynomials exactly: an
    independent check of the closed form."""
    q = quad.nodes
    return quad.weights @ (q[:, 2] * (amp.f1(q)**2 - 2.0 * amp.f0 * amp.f2(q)))


def quadrature_cross_sections(amp, quad, k):
    """sigma and sigma_T as direction integrals of the order-k^2 intensity."""
    q = quad.nodes
    intensity = amp.f0**2 + k**2 * (amp.f1(q)**2 - 2.0 * amp.f0 * amp.f2(q))
    return quad.weights @ intensity, quad.weights @ ((1.0 - q[:, 2]) * intensity)


def _raised_sphere():
    mesh = make_body(Sphere(1.0), 3)
    return TriMesh.from_arrays(mesh.vertices + [0.0, 0.0, 0.7], mesh.triangles)


# level-3 bodies; the egg and the raised sphere have K = integral z mu0 != 0
BODIES = {
    "sphere": lambda: make_body(Sphere(1.0), 3),
    "ellipsoid": lambda: make_body(Ellipsoid(2.0, 1.0, 1.5), 3),
    "cylinder": lambda: make_body(CappedCylinder(1.0, 2.0), 3),
    "egg": lambda: egg_mesh(3),
    "raised sphere": _raised_sphere,
}


@pytest.fixture(scope="module")
def quad():
    return make_quadrature()


@pytest.fixture(scope="module")
def sphere4_amplitude(sphere4_densities):
    return amplitude_expansion(sphere4_densities)


@pytest.fixture(scope="module")
def ellipsoid4_amplitude(ellipsoid4_densities):
    return amplitude_expansion(ellipsoid4_densities)


@pytest.fixture(scope="module", params=list(BODIES))
def body_densities(request):
    return solve_expansion_densities(BODIES[request.param]())


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_weight_sum(quad):
    assert abs(quad.weights.sum() - 4.0 * np.pi) < 1e-12


def test_quadrature_moment_exactness(quad):
    ct = quad.nodes[:, 2]
    assert abs(quad.weights @ ct) < 1e-12
    assert abs(quad.weights @ ct**2 - 4.0 * np.pi / 3.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    px=st.floats(-2, 2), py=st.floats(-2, 2), pz=st.floats(-2, 2)
)
def test_quadrature_transverse_moment_vanishes(px, py, pz):
    quad = make_quadrature(16, 32)
    transverse = quad.nodes[:, 0] * px + quad.nodes[:, 1] * py
    value = quad.weights @ (transverse * quad.nodes[:, 2] ** 2)
    assert abs(value) < 1e-12


def test_quadrature_validation():
    with pytest.raises(ValueError):
        make_quadrature(1, 32)
    with pytest.raises(ValueError):
        make_quadrature(16, 3)


# ---------------------------------------------------------------------------
# functionals


def test_ellipsoid_functionals_against_elliptic_integral_oracles(
    ellipsoid4, ellipsoid4_amplitude
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

    amp = ellipsoid4_amplitude
    assert amp.capacity == pytest.approx(cap_oracle, rel=0.01)
    assert amp.z1_moment == pytest.approx(z1_oracle, rel=0.01)
    assert amp.d2 == pytest.approx(d2_oracle, rel=0.02)


def test_sphere_functionals(sphere4_amplitude):
    amp = sphere4_amplitude
    assert abs(amp.k_moment) < 1e-3
    assert abs(amp.z1_moment / -1.0 - 1.0) < 0.02
    assert abs(amp.exterior_energy / (8.0 * np.pi / 3.0) - 1.0) < 0.03
    assert abs(amp.volume / (4.0 * np.pi / 3.0) - 1.0) < 0.01


def test_exterior_energy_nonnegative(sphere4_amplitude, ellipsoid4_amplitude):
    for amp in (sphere4_amplitude, ellipsoid4_amplitude):
        floor = -1e-6 * (4.0 * np.pi * abs(amp.z1_moment) + amp.volume)
        assert amp.exterior_energy >= floor


def test_cauchy_schwarz_invariant(
    sphere4_amplitude, ellipsoid4_amplitude
):
    for amp in (sphere4_amplitude, ellipsoid4_amplitude):
        bound = amp.capacity * amp.exterior_energy / (4.0 * np.pi)
        assert amp.k_moment**2 <= bound * (1.0 + 1e-3)


# ---------------------------------------------------------------------------
# amplitude expansion


def test_f0_is_minus_capacity(sphere4_amplitude, sphere4_densities):
    assert sphere4_amplitude.f0 == pytest.approx(
        -sphere4_densities.capacity, rel=1e-9
    )
    assert abs(sphere4_amplitude.f0 / -1.0 - 1.0) < 0.01


def test_f1_constant_on_sphere(sphere4_amplitude, quad):
    assert np.abs(sphere4_amplitude.f1(quad.nodes) - 1.0).max() < 0.03


def test_f1_symmetric_on_sphere(sphere4_amplitude, quad):
    f1 = sphere4_amplitude.f1(quad.nodes).reshape(quad.n_theta, quad.n_phi)
    anti = 0.5 * (f1 - f1[::-1])  # Gauss nodes are symmetric in cos(theta)
    assert np.abs(anti).max() < 0.01 * np.abs(f1).max()


def test_f2_odd_part_on_sphere(sphere4_amplitude, quad):
    # dipole oracle: the odd-in-cos(theta) part of f2 is +cos(theta) for a = 1
    ct = quad.nodes[:, 2]
    f2 = sphere4_amplitude.f2(quad.nodes)
    coeff = (quad.weights @ (ct * f2)) / (quad.weights @ (ct * ct))
    assert coeff == pytest.approx(1.0, rel=0.05)


def test_isotropy_bound(sphere4_amplitude, quad):
    amp = sphere4_amplitude
    f1, f2 = amp.f1(quad.nodes), amp.f2(quad.nodes)
    for k in (0.01, 0.1, 0.2):
        f = amp.f0 + 1j * k * f1 - k**2 * f2
        bound = k * np.abs(f1).max() + k**2 * np.abs(f2).max()
        assert np.abs(f - amp.f0).max() <= bound * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# cross sections


def test_zero_k_isotropic(sphere4_amplitude, sphere4_densities):
    sigma, sigma_t = cross_sections_lowfreq(sphere4_amplitude, 0.0)
    expected = 4.0 * np.pi * sphere4_densities.capacity**2
    assert sigma == pytest.approx(expected, rel=1e-12)
    assert sigma_t == pytest.approx(expected, rel=1e-12)


def test_gap_equals_d2_times_k_squared(sphere4_amplitude, quad):
    k = 0.1
    sigma, sigma_t = cross_sections_lowfreq(sphere4_amplitude, k)
    assert sigma - sigma_t == pytest.approx(
        quadrature_d2(sphere4_amplitude, quad) * k**2, rel=1e-9
    )
    assert sigma_t < sigma


def test_trust_region_guard(sphere4_amplitude):
    with pytest.raises(TrustRegionError):
        cross_sections_lowfreq(sphere4_amplitude, 0.3)  # k * diam = 0.6
    with pytest.raises(ValueError):
        cross_sections_lowfreq(sphere4_amplitude, -1.0)


# ---------------------------------------------------------------------------
# d2


def test_d2_direct_sphere(sphere4_amplitude, quad):
    assert quadrature_d2(sphere4_amplitude, quad) == pytest.approx(D2_SPHERE, rel=0.05)


def test_d2_positive(
    sphere4_amplitude, ellipsoid4_amplitude, cube3_densities, cylinder3_densities
):
    assert sphere4_amplitude.d2 > 0
    assert ellipsoid4_amplitude.d2 > 0
    for densities in (cube3_densities, cylinder3_densities):
        assert amplitude_expansion(densities).d2 > 0


def test_d2_formula_matches_direct(sphere4_amplitude, ellipsoid4_amplitude):
    for amp in (sphere4_amplitude, ellipsoid4_amplitude):
        assert abs(amp.d2_formula_corrected - amp.d2) <= 0.05 * abs(amp.d2)
        assert amp.d2_formula_paper == pytest.approx(amp.d2_formula_corrected / 2.0)


def test_d2_formula_k_zero_body(sphere4_amplitude):
    # K ~ 0, so the closed form collapses to -(8 pi / 3) C Z1
    amp = sphere4_amplitude
    collapsed = -(8.0 * np.pi / 3.0) * amp.capacity * amp.z1_moment
    assert amp.d2_formula_corrected == pytest.approx(collapsed, rel=1e-4)


def test_d2_invariant_under_reflection(sphere3):
    quad = make_quadrature(32, 64)
    direct = quadrature_d2(amplitude_expansion(solve_expansion_densities(sphere3)), quad)
    mirrored = quadrature_d2(
        amplitude_expansion(solve_expansion_densities(reflect(sphere3))), quad
    )
    assert mirrored == pytest.approx(direct, rel=1e-6)


@settings(max_examples=5, deadline=None)
@given(factor=st.floats(0.5, 2.0))
def test_d2_scaling(factor):
    mesh = make_body(Sphere(1.0), 2)
    quad = make_quadrature(16, 32)
    base = quadrature_d2(amplitude_expansion(solve_expansion_densities(mesh)), quad)
    scaled_mesh = TriMesh.from_arrays(mesh.vertices * factor, mesh.triangles)
    scaled = quadrature_d2(amplitude_expansion(solve_expansion_densities(scaled_mesh)), quad)
    assert scaled == pytest.approx(factor**4 * base, rel=1e-6)


@pytest.mark.parametrize("rule", [(64, 128), (2, 4)])
def test_closed_forms_match_the_direction_quadrature(body_densities, rule):
    amp, quad = amplitude_expansion(body_densities), make_quadrature(*rule)
    k = TRUST_LIMIT / amp.diameter
    sigma, sigma_t = cross_sections_lowfreq(amp, k)
    sigma_q, sigma_t_q = quadrature_cross_sections(amp, quad, k)
    assert abs(amp.d2 - quadrature_d2(amp, quad)) <= 1e-13 * abs(amp.d2)
    assert abs(sigma - sigma_q) <= 1e-13 * sigma
    assert abs(sigma_t - sigma_t_q) <= 1e-13 * sigma_t


def test_physics_reads_no_direction_samples(sphere4_amplitude):
    # the record holds scalars and the 3-vector and 3 x 3 moments only: no
    # direction rule and no mesh
    for value in vars(sphere4_amplitude).values():
        assert isinstance(value, float) or value.shape in ((3,), (3, 3))


def test_capacity_is_the_densities_capacity_bit_for_bit(body_densities):
    assert amplitude_expansion(body_densities).capacity == body_densities.capacity


def test_d2_keys_differ_by_the_k_moment_term(body_densities):
    # d2 - d2_formula_corrected = -(8 pi / 3) K (integral mu1a - K): zero in
    # the continuum, where integral mu1a = K, and on bodies with K = 0
    amp = amplitude_expansion(body_densities)
    k_moment = amp.k_moment
    expected = -(8.0 * np.pi / 3.0) * k_moment * (body_densities.mu1a.integral() - k_moment)
    assert abs(amp.d2 - amp.d2_formula_corrected - expected) <= 1e-10 * abs(amp.d2)


# ---------------------------------------------------------------------------
# theorem 1


def test_theorem1_sphere(sphere4_amplitude):
    report = sphere4_amplitude
    assert report.cs_pass
    assert report.cs_margin == pytest.approx(2.0 / 3.0, rel=0.05)
    assert report.corrected_pass
    assert report.corrected_bound == pytest.approx(
        (2.0 / 3.0) * (4.0 * np.pi / 3.0), rel=0.02
    )
    # the literal paper constant overshoots the computed gap; reported only
    assert not report.paper_pass
    assert report.paper_bound > report.d2


def test_theorem1_ellipsoid(ellipsoid4_amplitude):
    report = ellipsoid4_amplitude
    assert report.cs_pass
    assert report.corrected_pass


def test_report_keys(sphere4_amplitude):
    # in this order: demo 02 prints them so
    report = sphere4_amplitude.report_dict()
    assert list(report) == [
        "capacity", "K", "Z1", "volume", "M",
        "d2_direct", "d2_formula_corrected", "d2_formula_paper",
        "cs_margin", "thm1_corrected_pass", "thm1_paper_pass",
    ]
    assert report["thm1_paper_pass"] is False
    assert report["thm1_corrected_pass"] is True


def test_amplitude_csv(tmp_path, sphere4_amplitude, quad):
    path = tmp_path / "f12.csv"
    amplitude_to_csv(sphere4_amplitude, quad, path, header_lines=["demo"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "cos_theta,phi,f1,f2"
    assert len(lines) == 2 + len(quad.nodes)

"""Acceptance gate: each test prints one PASS/FAIL line with the measured
values (run with ``pytest tests/test_acceptance.py -v -s`` to see them all).

Tolerances are fixed here, not tuned: capacity 0.3% (sphere, level 5) and
1% (prolate ellipsoid); density oracles 2%/3%; surface identities at
1e-6 * C * diameter and 2%; the k^2 gap coefficient to 5% (expansion) and
0.1% (series extrapolation); optical theorem 1e-10; classical observables
0.5% with a 3% histogram flatness band; determinism to the byte and 1e-12
across thread counts.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from cli_env import cli_env
from hardscatter.classical import trace
from hardscatter.geometry import (
    CappedCylinder,
    Ellipsoid,
    Sphere,
    make_body,
    reflect,
)
from hardscatter.lowfreq import (
    amplitude_expansion,
    cross_sections_lowfreq,
    solve_expansion_densities,
)
from hardscatter.potential import capacity
from hardscatter.sphere_oracle import (
    FIG1_RADIUS,
    cross_sections,
    fig1_sweep,
    low_k_extrapolate,
    phase_shifts,
)

from conftest import pinwheel_cube

D2_SPHERE = 8.0 * np.pi / 3.0
ELLIPSOID_CAPACITY = np.sqrt(3.0) / np.arccosh(2.0)  # prolate (2, 1, 1)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_capacity():
    start = time.perf_counter()
    sphere_cap = capacity(make_body(Sphere(1.0), 5))
    ell_cap = capacity(make_body(Ellipsoid(2.0, 1.0, 1.0), 4))
    elapsed = time.perf_counter() - start
    sphere_err = abs(sphere_cap - 1.0)
    ell_err = abs(ell_cap / ELLIPSOID_CAPACITY - 1.0)
    ok = sphere_err < 0.003 and ell_err < 0.01 and elapsed < 60.0
    report(
        1,
        ok,
        f"sphere C={sphere_cap:.6f} (err {sphere_err:.2e} < 3e-3), "
        f"ellipsoid C={ell_cap:.6f} vs {ELLIPSOID_CAPACITY:.6f} "
        f"(err {ell_err:.2e} < 1e-2), runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_2_density_oracles(sphere4_densities):
    z = sphere4_densities.mesh.centroids[:, 2]
    mu0_dev = np.abs(
        sphere4_densities.mu0.values / (-1.0 / (4.0 * np.pi)) - 1.0
    ).max()
    mu1a_dev = (
        np.abs(sphere4_densities.mu1a.values + 3.0 / (4.0 * np.pi) * z).max()
        / (3.0 / (4.0 * np.pi))
    )
    ok = mu0_dev < 0.02 and mu1a_dev < 0.03
    report(
        2,
        ok,
        f"mu0 max dev {mu0_dev:.2%} < 2%, mu1a max dev {mu1a_dev:.2%} < 3% "
        "(level-4 sphere)",
    )


def test_criterion_3_surface_identities(
    sphere4_densities, ellipsoid4_densities, cube3_densities, cylinder3_densities
):
    rosters = {
        "sphere": sphere4_densities,
        "ellipsoid": ellipsoid4_densities,
        "cube": cube3_densities,
        "cylinder": cylinder3_densities,
    }
    details = []
    ok = True
    for name, densities in rosters.items():
        mesh = densities.mesh
        z = mesh.centroids[:, 2]
        k_mu0 = densities.mu0.moment(z)
        k_mu1a = densities.mu1a.integral()
        k_tol = 1e-6 * densities.capacity * mesh.diameter
        identity_ok = abs(k_mu0 - k_mu1a) < k_tol

        mirrored = solve_expansion_densities(reflect(mesh))
        mu2a = 0.5 * (densities.mu2.values - mirrored.mu2.values)
        integral = float(np.sum(mu2a * mesh.areas))
        target = -densities.capacity * k_mu0
        mu2_ok = abs(integral - target) < max(1e-6, 0.02 * abs(target))

        amp = amplitude_expansion(densities)
        cs_ok = amp.k_moment**2 <= (
            amp.capacity * amp.exterior_energy / (4.0 * np.pi) * (1.0 + 1e-3)
        )
        ok = ok and identity_ok and mu2_ok and cs_ok
        details.append(
            f"{name}: |K_mu0-K_mu1a|={abs(k_mu0 - k_mu1a):.1e}<{k_tol:.1e}, "
            f"|int(mu2a)+CK|={abs(integral - target):.1e}, CS {cs_ok}"
        )
    report(3, ok, "; ".join(details))


def test_criterion_4_d2_triangulation(
    sphere4, sphere4_densities, ellipsoid4, ellipsoid4_densities
):
    amp_sphere = amplitude_expansion(sphere4_densities)
    est = low_k_extrapolate(1.0)
    bem_err = abs(amp_sphere.d2 / D2_SPHERE - 1.0)
    oracle_err = abs(est.d2 / D2_SPHERE - 1.0)
    agreement = abs(amp_sphere.d2 / est.d2 - 1.0)

    amp_ell = amplitude_expansion(ellipsoid4_densities)
    ok = (
        bem_err < 0.05
        and oracle_err < 1e-3
        and agreement < 0.05
        and amp_sphere.corrected_pass
        and amp_ell.corrected_pass
        and not amp_sphere.paper_pass  # literal constant overshoots: documented
    )
    report(
        4,
        ok,
        f"d2(bem)={amp_sphere.d2:.4f} (err {bem_err:.2%} < 5%), "
        f"d2(series)={est.d2:.6f} (err {oracle_err:.2e} < 1e-3), "
        f"agreement {agreement:.2%} < 5%; corrected bound (2/3)CV passes on "
        f"sphere and ellipsoid; paper bound (4pi/3)CV reported FAIL "
        f"({amp_sphere.d2:.3f} < {amp_sphere.paper_bound:.3f}) as documented",
    )


def test_criterion_5_transport_below_total(
    sphere4, sphere4_densities, ellipsoid4, ellipsoid4_densities
):
    ok = True
    for mesh, densities in ((sphere4, sphere4_densities),
                            (ellipsoid4, ellipsoid4_densities)):
        amp = amplitude_expansion(densities)
        for k_diam in np.linspace(0.02, 0.5, 25):
            sigma, sigma_t = cross_sections_lowfreq(amp, k_diam / mesh.diameter)
            ok = ok and sigma_t < sigma
    oracle_ok = True
    for ka in np.geomspace(1e-3, 300.0, 60):
        xs = cross_sections(phase_shifts(1.0, ka))
        oracle_ok = oracle_ok and xs.sigma_t < xs.sigma
    ok = ok and oracle_ok
    report(
        5,
        ok,
        "sigma_T < sigma: expansion on sphere+ellipsoid for k*diam in "
        "(0, 0.5], oracle for ka in (0, 300] (60 log-spaced points)",
    )


def test_criterion_6_optical_theorem():
    residuals = []
    mismatches = []
    for ka in (0.5, 5.0, 50.0, 200.0):
        xs = cross_sections(phase_shifts(1.0, ka))
        residuals.append(xs.optical_residual)
        mismatches.append(xs.series_quad_mismatch)
    ok = max(residuals) < 1e-10 and max(mismatches) < 1e-8
    report(
        6,
        ok,
        f"optical residual max {max(residuals):.1e} < 1e-10, series/quadrature "
        f"mismatch max {max(mismatches):.1e} < 1e-8 at ka in {{0.5, 5, 50, 200}}",
    )


def test_criterion_7_fig1_sweep():
    start = time.perf_counter()
    k_values = np.geomspace(0.05 / FIG1_RADIUS, 200.0 / FIG1_RADIUS, 120)
    rows = fig1_sweep(k_values)
    elapsed = time.perf_counter() - start
    start_err = abs(rows["sigma"][0] / 4.0 - 1.0)
    start_err_t = abs(rows["sigma_T"][0] / 4.0 - 1.0)
    end_sigma = rows["sigma"][-1] / 2.0
    end_sigma_t = rows["sigma_T"][-1] / 1.0
    ok = (
        rows["ka"][0] == pytest.approx(0.05, rel=1e-12)
        and rows["ka"][-1] == pytest.approx(200.0, rel=1e-12)
        and start_err < 0.01
        and start_err_t < 0.01
        and abs(end_sigma - 1.0) < 0.03
        and abs(end_sigma_t - 1.0) < 0.05
        and bool(np.all(rows["sigma_T"] < rows["sigma"]))
        and elapsed < 120.0
    )
    report(
        7,
        ok,
        f"sigma(ka=0.05)={rows['sigma'][0]:.4f} (4 within 1%), "
        f"sigma/2sigma_cl={end_sigma:.4f} (1 within 3%), "
        f"sigma_T/R_cl={end_sigma_t:.4f} (1 within 5%) at ka=200, "
        f"sigma_T < sigma throughout, runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_8_classical():
    sphere = trace(Sphere(1.0), grid=1024)
    sigma_err = abs(sphere.sigma_cl / np.pi - 1.0)
    r_err = abs(sphere.r_cl / np.pi - 1.0)

    flat = trace(Sphere(1.0), grid=4096).histogram
    mask = flat.counts >= 50
    flat_dev = np.abs(flat.values[mask] / 0.25 - 1.0).max()

    cyl = trace(CappedCylinder(1.0, 2.0), grid=1024)
    cyl_err = abs(cyl.r_cl / (2.0 * cyl.sigma_cl) - 1.0)

    bounces = [
        sphere.max_bounces_seen,
        cyl.max_bounces_seen,
        trace(Ellipsoid(1.5, 1.0, 0.7), grid=256).max_bounces_seen,
        trace(pinwheel_cube(1), grid=128).max_bounces_seen,
    ]
    ok = (
        sigma_err < 0.005
        and r_err < 0.005
        and flat_dev < 0.03
        and cyl_err < 0.005
        and all(b == 1 for b in bounces)
    )
    report(
        8,
        ok,
        f"sphere sigma_cl err {sigma_err:.2e} < 5e-3, R_cl err {r_err:.2e} "
        f"< 5e-3, |f_cl|^2 flatness {flat_dev:.2%} < 3%, cylinder R_cl vs "
        f"2 sigma_cl err {cyl_err:.2e} < 5e-3, single bounce on all convex "
        f"bodies {bounces}",
    )


def test_criterion_9_determinism(tmp_path):
    env = cli_env()
    out = tmp_path / "cap.json"
    args = [sys.executable, "-m", "hardscatter.cli", "capacity",
            "--body", "sphere:1", "--level", "3", "--out", str(out)]
    subprocess.run(args, check=True, capture_output=True, env=env)
    first = out.read_bytes()
    subprocess.run(args, check=True, capture_output=True, env=env)
    identical = out.read_bytes() == first

    values = []
    for threads in ("1", "2"):
        run_out = tmp_path / f"t{threads}.json"
        subprocess.run(
            [sys.executable, "-m", "hardscatter.cli", "--threads", threads,
             "lowfreq", "--body", "sphere:1", "--level", "3",
             "--out", str(run_out)],
            check=True,
            capture_output=True,
            env=env,
        )
        values.append(json.loads(run_out.read_text()))
    drift = max(
        abs(values[0][key] - values[1][key]) / max(1.0, abs(values[0][key]))
        for key in ("capacity", "K", "Z1", "M", "d2_direct")
    )
    ok = identical and drift <= 1e-12
    report(
        9,
        ok,
        f"rerun byte-identical: {identical}; thread-count drift {drift:.1e} "
        "<= 1e-12",
    )

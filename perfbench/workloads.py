"""The benchmark's workloads: seeded inputs, the CLI calls that make up one
job, and the checks every job's outputs must pass.

A workload object is built once per process from the seed.  ``argvs(i, out)``
gives the ``hardscatter`` argument lists of a job on the seeded case
``i % N_CASES``, writing into the directory ``out``; ``check(i, out)`` reads
that job's output files and returns the list of failed checks and the job's
worst relative error against an exact reference.  The seed sets sizes and
k-grids, not the amount of work: every case of a workload runs the same
number of panels, k-points, rays and bounce passes, so job times do not
depend on the seed or on which cases a run reaches.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from hardscatter import geometry

# Distinct seeded inputs per workload; jobs cycle through them.
N_CASES = 4

# The raytrace_bumpy body: an icosphere of this level (320 triangles) with
# DENTS lit-side vertices pushed in.  The dents are drawn from DENT_SEED, not
# from the run's seed, so every body is the same shape at another radius.
# The trace grid spans the shadow bounding box, so each body sends the same
# rays through the same bounces.
BUMPY_LEVEL = 3
DENTS = 12
DENT_SEED = 0


def _read_csv(path: Path) -> list[dict[str, str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _rel(value: float, exact: float) -> float:
    return abs(value / exact - 1.0)


def _check_trace(out: Path) -> tuple[list[str], dict]:
    """Checks common to every ray trace: 0 < R_cl <= 2 sigma_cl and the
    histogram counts summing to the hit count."""
    (row,) = _read_csv(out / "rays.csv")
    hist = _read_csv(out / "rays_histogram.csv")
    errors = []
    sigma_cl, r_cl = float(row["sigma_cl"]), float(row["R_cl"])
    if not 0.0 < r_cl <= 2.0 * sigma_cl:
        errors.append(f"R_cl {r_cl!r} outside (0, 2 sigma_cl = {2 * sigma_cl!r}]")
    counted = sum(int(h["ray_count"]) for h in hist)
    if counted != int(row["rays_hit"]):
        errors.append(f"histogram counts {counted} != rays_hit {row['rays_hit']}")
    return errors, row


class LowfreqSphere5:
    """``hardscatter lowfreq --body sphere:a --level 5`` with a seeded k-grid
    inside the trust region; the dense BEM chain at 5120 panels."""

    name = "lowfreq_sphere5"

    def __init__(self, rng: np.random.Generator, workdir: Path, tiny: bool):
        self.level = 4 if tiny else 5
        self.samples = 16 if tiny else 64
        self.cases = []
        for _ in range(N_CASES):
            a = float(rng.uniform(0.5, 2.0))
            # the inscribed mesh has diameter <= 2a, so k*a <= 0.24 keeps
            # k * diameter below the 0.5 trust limit
            k_min = float(rng.uniform(0.01, 0.05)) / a
            k_max = float(rng.uniform(0.15, 0.24)) / a
            self.cases.append((a, k_min, k_max))

    def argvs(self, i: int, out: Path) -> list[list[str]]:
        a, k_min, k_max = self.cases[i % N_CASES]
        return [["lowfreq", "--body", f"sphere:{a!r}", "--level", str(self.level),
                 "--k-min", repr(k_min), "--k-max", repr(k_max),
                 "--samples", str(self.samples), "--out", str(out / "lowfreq.json")]]

    def check(self, i: int, out: Path) -> tuple[list[str], float]:
        a = self.cases[i % N_CASES][0]
        report = json.loads((out / "lowfreq.json").read_text(encoding="utf-8"))
        errors = []
        cap_err = _rel(report["capacity"], a)
        # d2 is the k^2 coefficient of an area, so it scales as a^4; the
        # exact sphere series gives (8 pi / 3) a^4
        d2_err = _rel(report["d2_direct"], 8.0 * math.pi / 3.0 * a**4)
        if cap_err > 3e-3:
            errors.append(f"capacity off a by {cap_err:.3e} (> 0.3%)")
        if d2_err > 5e-2:
            errors.append(f"d2_direct off (8 pi/3) a^4 by {d2_err:.3e} (> 5%)")
        if report["thm1_corrected_pass"] is not True:
            errors.append("thm1_corrected_pass is not true")
        rows = _read_csv(out / "lowfreq_sigma.csv")
        if len(rows) != self.samples:
            errors.append(f"{len(rows)} sigma rows, expected {self.samples}")
        if not all(float(r["sigma_T"]) < float(r["sigma"]) for r in rows):
            errors.append("sigma_T >= sigma on some sigma row")
        return errors, max(cap_err, d2_err)


def dented_sphere(radius: float) -> tuple[geometry.TriMesh, float]:
    """A star-shaped non-convex body of the given radius and its exact
    shadow area.

    DENTS vertices of the level-BUMPY_LEVEL icosphere on the lit side
    (z < -a/2), none of whose triangles faces away from the incoming +z
    rays, are pushed radially inward to 55-80 % of the radius.  Radial
    scaling keeps every triangle in its cone from the origin, so the
    surface stays star-shaped, closed and outward wound, and the pits make
    rays bounce up to five times.  The faces with n_z >= 0 are untouched, so
    the shadow is still the projection of the convex icosphere, whose area
    is the sum of n_z * area over its faces with n_z > 0.  That gives every
    body an exact reference for the traced shadow cross section.
    """
    rng = np.random.default_rng(DENT_SEED)
    unit = geometry.make_body(geometry.Sphere(1.0), BUMPY_LEVEL)
    v, tri = unit.vertices.copy(), unit.triangles
    unlit = np.zeros(len(v), dtype=bool)
    unlit[tri[unit.normals[:, 2] >= 0.0].ravel()] = True
    eligible = np.flatnonzero(~unlit & (v[:, 2] < -0.5))
    pick = rng.choice(eligible, DENTS, replace=False)
    v[pick] *= rng.uniform(0.55, 0.8, DENTS)[:, None]
    shadow = radius**2 * float(np.sum(np.clip(unit.normals[:, 2], 0.0, None) * unit.areas))
    return geometry.TriMesh.from_arrays(v * radius, tri), shadow


class RaytraceBumpy:
    """``hardscatter raytrace --mesh body.off --grid 256`` on the dented
    level-3 icosphere (320 triangles) at seeded radii: brute-force mesh
    first hits over several bounce passes, plus OFF loading and
    validation."""

    name = "raytrace_bumpy"

    def __init__(self, rng: np.random.Generator, workdir: Path, tiny: bool):
        self.grid = 64 if tiny else 256
        self.cases = []
        for c in range(N_CASES):
            mesh, shadow = dented_sphere(float(rng.uniform(0.5, 2.0)))
            path = workdir / f"body{c}.off"
            geometry.save_mesh(mesh, path)
            self.cases.append((path, shadow))
        self._raster: dict[int, float] = {}

    def argvs(self, i: int, out: Path) -> list[list[str]]:
        path = self.cases[i % N_CASES][0]
        return [["raytrace", "--mesh", str(path), "--grid", str(self.grid),
                 "--out", str(out / "rays.csv")]]

    def check(self, i: int, out: Path) -> tuple[list[str], float]:
        c = i % N_CASES
        path, shadow = self.cases[c]
        errors, row = _check_trace(out)
        if c not in self._raster:
            self._raster[c] = geometry.shadow_area(geometry.load_mesh(path), self.grid)
        sigma_cl = float(row["sigma_cl"])
        if sigma_cl != self._raster[c]:
            errors.append(f"sigma_cl {sigma_cl!r} != shadow_area {self._raster[c]!r}")
        return errors, _rel(sigma_cl, shadow)


class CrossoverSphere:
    """One ``hardscatter mie --log`` sweep over ka in [0.05, 200], then
    ``hardscatter raytrace --body sphere:a --grid 1024``: the quantum to
    classical crossover, series-dominated, with the analytic ray path."""

    name = "crossover_sphere"

    def __init__(self, rng: np.random.Generator, workdir: Path, tiny: bool):
        self.samples = 8 if tiny else 400
        self.grid = 64 if tiny else 1024
        self.cases = [float(rng.uniform(0.5, 2.0)) for _ in range(N_CASES)]

    def argvs(self, i: int, out: Path) -> list[list[str]]:
        a = self.cases[i % N_CASES]
        body = f"sphere:{a!r}"
        return [
            ["mie", "--body", body, "--k-min", repr(0.05 / a), "--k-max", repr(200.0 / a),
             "--samples", str(self.samples), "--log", "--out", str(out / "mie.csv")],
            ["raytrace", "--body", body, "--grid", str(self.grid),
             "--out", str(out / "rays.csv")],
        ]

    def check(self, i: int, out: Path) -> tuple[list[str], float]:
        a = self.cases[i % N_CASES]
        geo = math.pi * a * a
        rows = _read_csv(out / "mie.csv")
        errors = []
        if len(rows) != self.samples:
            errors.append(f"{len(rows)} sweep rows, expected {self.samples}")
        if not all(float(r["sigma_T"]) < float(r["sigma"]) for r in rows):
            errors.append("sigma_T >= sigma on some sweep row")
        worst = max(float(r["optical_residual"]) for r in rows)
        if not worst < 1e-10:
            errors.append(f"optical residual {worst:.3e} >= 1e-10")
        low, high = rows[0], rows[-1]
        if _rel(float(low["sigma"]), 4.0 * geo) > 0.01:
            errors.append("sigma at ka=0.05 off 4 pi a^2 by more than 1%")
        if _rel(float(high["sigma"]), 2.0 * geo) > 0.03:
            errors.append("sigma at ka=200 off 2 pi a^2 by more than 3%")
        if _rel(float(high["sigma_T"]), geo) > 0.05:
            errors.append("sigma_T at ka=200 off pi a^2 by more than 5%")
        trace_errors, row = _check_trace(out)
        errors += trace_errors
        sigma_err = _rel(float(row["sigma_cl"]), geo)
        r_err = _rel(float(row["R_cl"]), geo)
        if max(sigma_err, r_err) > 5e-3:
            errors.append("sigma_cl or R_cl off pi a^2 by more than 0.5%")
        return errors, max(sigma_err, r_err)


WORKLOADS = {w.name: w for w in (LowfreqSphere5, RaytraceBumpy, CrossoverSphere)}

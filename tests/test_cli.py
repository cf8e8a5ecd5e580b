import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cli_env import cli_env
from hardscatter import lowfreq, potential
from hardscatter.cli import main
from hardscatter.geometry import Ellipsoid, Sphere, make_body, save_mesh
from test_classical import groove_prism


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "hardscatter.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
    )


# ---------------------------------------------------------------------------
# happy paths


def test_capacity_subcommand(tmp_path):
    out = tmp_path / "cap.json"
    code = main(["capacity", "--body", "sphere:1", "--level", "4",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["capacity"] == pytest.approx(1.0, rel=0.01)
    assert payload["triangles"] == 1280
    assert "config" in payload["meta"]


def test_capacity_from_mesh_file(tmp_path):
    mesh_path = tmp_path / "sphere.off"
    save_mesh(make_body(Sphere(1.0), 3), mesh_path)
    out = tmp_path / "cap.json"
    code = main(["capacity", "--mesh", str(mesh_path), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["capacity"] == pytest.approx(1.0, rel=0.02)


def test_lowfreq_subcommand(tmp_path, monkeypatch):
    original = lowfreq.amplitude_expansion
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lowfreq, "amplitude_expansion", counted)
    out = tmp_path / "report.json"
    code = main(["lowfreq", "--body", "sphere:1", "--level", "3",
                 "--out", str(out)])
    assert code == 0
    assert len(calls) == 1
    payload = json.loads(out.read_text())
    expected_keys = {
        "meta", "capacity", "K", "Z1", "volume", "M", "d2_direct",
        "d2_formula_corrected", "d2_formula_paper", "cs_margin",
        "thm1_corrected_pass", "thm1_paper_pass",
    }
    assert set(payload) == expected_keys
    assert payload["thm1_corrected_pass"] is True
    assert payload["thm1_paper_pass"] is False
    samples = (tmp_path / "report_f12.csv").read_text().splitlines()
    assert samples[3] == "cos_theta,phi,f1,f2"


def test_lowfreq_sigma_table(tmp_path):
    # a dot in the directory name must not split the sibling file names
    run = tmp_path / "run.v2"
    run.mkdir()
    code = main(["lowfreq", "--body", "sphere:1", "--level", "2",
                 "--k-min", "0.01", "--k-max", "0.2", "--samples", "5",
                 "--out", str(run / "report")])
    assert code == 0
    rows = (run / "report_sigma").read_text().splitlines()
    assert rows[3] == "k,sigma,sigma_T"
    k, sigma, sigma_t = (float(v) for v in rows[4].split(","))
    assert k == 0.01
    assert sigma_t < sigma


def test_mie_subcommand(tmp_path):
    out = tmp_path / "mie.csv"
    code = main(["mie", "--body", "sphere:1", "--k-min", "0.5",
                 "--k-max", "5", "--samples", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header.split(",")[0] == "ka"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[5] < 1e-10  # optical residual column


def test_fig1_subcommand(tmp_path):
    out = tmp_path / "fig1.csv"
    code = main(["fig1", "--k-min", "0.05", "--k-max", "60",
                 "--samples", "40", "--out", str(out)])
    assert code == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    first = [float(v) for v in rows[0]]
    assert first[1] == pytest.approx(4.0, rel=0.01)  # sigma at the small-k end
    sigma = np.array([float(r[1]) for r in rows])
    sigma_t = np.array([float(r[2]) for r in rows])
    assert np.all(sigma_t < sigma)
    assert abs(sigma[-1] - 2.0) < 0.25  # approaching 2 sigma_cl


def test_raytrace_subcommand(tmp_path):
    run = tmp_path / "run.v2"
    run.mkdir()
    out = run / "rays"
    code = main(["raytrace", "--body", "sphere:1", "--grid", "256",
                 "--out", str(out)])
    assert code == 0
    data_line = [ln for ln in out.read_text().splitlines()
                 if ln and not ln.startswith(("#", "sigma_cl"))][0]
    sigma_cl = float(data_line.split(",")[0])
    assert sigma_cl == pytest.approx(np.pi, rel=0.01)
    assert (run / "rays_histogram").exists()


def test_raytrace_has_no_level_option(tmp_path, capsys):
    # analytic bodies are traced exactly and meshes are read as they are,
    # so a refinement level would be silently ignored
    out = tmp_path / "rays.csv"
    assert main(["raytrace", "--body", "sphere:1", "--level", "3",
                 "--out", str(out)]) == 2
    assert "--level" in capsys.readouterr().err
    assert not out.exists()


def test_cylinder_reports_non_smooth_note(tmp_path):
    out = tmp_path / "cap.json"
    code = main(["capacity", "--body", "cylinder:1,2", "--level", "2",
                 "--out", str(out)])
    assert code == 0
    assert "non-smooth" in json.loads(out.read_text())["meta"]["note"]


def test_compare_subcommand(tmp_path):
    out = tmp_path / "compare.json"
    code = main(["compare", "--body", "sphere:1", "--level", "4",
                 "--grid", "512", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["d2_bem"] / payload["d2_oracle"] - 1.0) < 0.05
    assert payload["highk"]["transport_below_total"] is True


# ---------------------------------------------------------------------------
# error paths and exit codes


def test_config_errors(tmp_path):
    assert main(["capacity", "--body", "sphere:1", "--mesh", "x.off"]) == 2
    assert main(["capacity"]) == 2
    assert main(["capacity", "--body", "cube:1"]) == 2
    assert main(["capacity", "--body", "sphere:nope"]) == 2
    assert main(["capacity", "--body", "sphere:-1"]) == 2
    assert main(["capacity", "--body", "sphere:1", "--level", "9"]) == 2
    assert main(["mie", "--body", "cylinder:1,2", "--out",
                 str(tmp_path / "x.csv")]) == 2
    assert main(["mie", "--body", "sphere:1", "--k-min", "-1",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["raytrace", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["compare", "--body", "ellipsoid:2,1,1",
                 "--out", str(tmp_path / "x.json")]) == 2
    # numeric options below their minimum, checked before any mesh is built
    assert main(["raytrace", "--body", "sphere:1", "--grid", "10",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["compare", "--body", "sphere:1", "--grid", "10",
                 "--out", str(tmp_path / "x.json")]) == 2
    # argparse's own errors are returned too, not raised as SystemExit
    assert main(["raytrace", "--body", "sphere:1", "--grid", "abc",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["compare", "--mesh", "x.off",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert main(["capacity", "--body", "sphere:1", "--bogus",
                 "--out", str(tmp_path / "x.json")]) == 2
    job = ["lowfreq", "--body", "sphere:1", "--level", "1",
           "--out", str(tmp_path / "r.json")]
    assert main(job + ["--k-min", "0.1"]) == 2
    assert main(job + ["--k-max", "0.2"]) == 2
    assert main(job + ["--k-min", "0.1", "--k-max", "0.2", "--samples", "1"]) == 2
    assert main(job + ["--quad-theta", "1"]) == 2
    assert main(job + ["--quad-phi", "3"]) == 2
    # oversized jobs: a ray grid past 4096, and series sweeps that outgrow
    # 200 samples up to ka 1e5 (in samples, or in one sample's order)
    assert main(["raytrace", "--body", "sphere:1", "--grid", "4097",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["compare", "--body", "sphere:1", "--grid", "8192",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert main(["mie", "--body", "sphere:1", "--k-min", "1", "--k-max", "1.001e5",
                 "--samples", "200", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["mie", "--body", "sphere:2", "--k-min", "1", "--k-max", "5.001e4",
                 "--samples", "2", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["fig1", "--k-min", "1", "--k-max", "2e5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_series_work_bound_admits_the_reference_sweep():
    from argparse import Namespace

    from hardscatter.cli import ConfigError, _series_k_grid

    # 200 samples up to ka 1e5, and past it in samples or in the order
    args = Namespace(k_min=0.05, k_max=1e5, samples=200, log=True)
    assert len(_series_k_grid(args, 1.0)) == 200
    args.samples = 201
    with pytest.raises(ConfigError, match="more work than 200 samples up to ka 100000"):
        _series_k_grid(args, 1.0)
    # fewer samples do not buy a higher order
    args.samples, args.k_max = 2, 5e4
    assert len(_series_k_grid(args, 2.0)) == 2
    args.k_max = 5.001e4
    with pytest.raises(ConfigError, match="more work than 200 samples"):
        _series_k_grid(args, 2.0)


def test_series_sweep_below_the_ka_floor_exits_2(tmp_path, capsys):
    # from about ka 1.3e-38 down y_7 overflows, and the truncation search
    # finds no converged order
    for job in (["mie", "--body", "sphere:1", "--k-min", "9.9e-38", "--k-max", "1"],
                ["mie", "--body", "sphere:1", "--k-min", "1e-39", "--k-max", "1"],
                ["mie", "--body", "sphere:2", "--k-min", "4e-38", "--k-max", "1"],
                ["fig1", "--k-min", "1e-200", "--k-max", "1"]):
        assert main(job + ["--out", str(tmp_path / "x.csv")]) == 2, job
        assert "below ka 1e-37" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(["mie", "--body", "sphere:1", "--k-min", "1e-37", "--k-max", "1",
                 "--samples", "3", "--log", "--out", str(tmp_path / "x.csv")]) == 0
    rows = [line for line in (tmp_path / "x.csv").read_text().splitlines()
            if not line.startswith("#")]
    row = rows[1].split(",")
    assert float(row[0]) == 1e-37
    assert abs(float(row[1]) / (4.0 * np.pi) - 1.0) < 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("job", [
    # the grid itself would overflow in numpy's power
    ["fig1", "--log", "--k-min", "1", "--k-max", "1.7976931348623157e308"],
    # ka past the float range: the series order is infinite
    ["mie", "--body", "sphere:2", "--k-min", "1", "--k-max", "1.7976931348623157e308"],
])
def test_series_sweep_past_the_float_range_exits_2_without_a_warning(tmp_path, capsys, job):
    assert main(job + ["--out", str(tmp_path / "x.csv")]) == 2
    assert "more work than 200 samples" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, spec", [
    ("raytrace", "ellipsoid:1,1,1e-10"),       # traced the whole box
    ("raytrace", "ellipsoid:1e60,1e60,1e54"),  # reported as trapping
    ("raytrace", "sphere:1e-170"),             # traced nothing
    ("raytrace", "sphere:1e-160"),             # reported as trapping
    ("raytrace", "sphere:1e160"),              # overflowed
    ("raytrace", "cylinder:1e-51,1"),
    ("raytrace", "cylinder:1,1e51"),
    ("capacity", "sphere:1e-80"),              # a capacity off in the 5th digit
    ("mie", "sphere:1e51"),
])
def test_body_outside_the_float_range_exits_2(tmp_path, capsys, command, spec):
    assert main([command, "--body", spec, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: --body:")
    assert list(tmp_path.iterdir()) == []


def test_non_finite_values_exit_2(tmp_path):
    # NaN and inf pass a plain "> 0" check, and an infinite radius would
    # trace to NaN cross sections
    assert main(["raytrace", "--body", "sphere:inf", "--grid", "64",
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert main(["capacity", "--body", "cylinder:1,nan",
                 "--out", str(tmp_path / "c.json")]) == 2
    for k_min, k_max in (("nan", "1"), ("0.1", "nan"), ("0.1", "inf")):
        assert main(["mie", "--body", "sphere:1", "--k-min", k_min,
                     "--k-max", k_max, "--out", str(tmp_path / "m.csv")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_help_returns_0(capsys):
    assert main(["--help"]) == 0
    assert main(["raytrace", "--help"]) == 0
    assert "--grid" in capsys.readouterr().out


def test_non_integer_option_names_int(tmp_path, capsys):
    assert main(["raytrace", "--body", "sphere:1", "--grid", "abc",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_unopenable_out_exits_2_before_work(tmp_path, monkeypatch, capsys):
    def no_mesh(*args):
        raise AssertionError("mesh built for an output that cannot be written")

    monkeypatch.setattr("hardscatter.geometry.make_body", no_mesh)
    for out in (tmp_path / "missing" / "cap.json", tmp_path):
        code = main(["capacity", "--body", "sphere:1", "--level", "2",
                     "--out", str(out)])
        assert code == 2
        assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_mesh_error_exit_code(tmp_path):
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert main(["capacity", "--mesh", str(bad)]) == 3


@pytest.mark.parametrize(
    "text",
    [
        "OFF\n-1 5 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
        "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n",
    ],
    ids=["negative_count", "no_triangles"],
)
def test_bad_counts_and_empty_mesh_exit_3(tmp_path, capsys, text):
    bad = tmp_path / "bad.off"
    bad.write_text(text)
    assert main(["capacity", "--mesh", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("mesh error:")


def test_missing_mesh_file_exits_3(tmp_path, capsys):
    missing = tmp_path / "missing.off"
    assert main(["capacity", "--mesh", str(missing),
                 "--out", str(tmp_path / "cap.json")]) == 3
    assert str(missing) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_non_utf8_mesh_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "latin1.off"
    bad.write_bytes(b"OFF # caf\xe9\n")
    assert main(["raytrace", "--mesh", str(bad),
                 "--out", str(tmp_path / "rays.csv")]) == 3
    assert str(bad) in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["latin1.off"]


def test_trapping_mesh_exits_4(tmp_path, capsys):
    # a V-notch of half-width 0.01 keeps rays bouncing past the bounce cap
    mesh_path = tmp_path / "groove.off"
    save_mesh(groove_prism(notch=0.01), mesh_path)
    assert main(["raytrace", "--mesh", str(mesh_path), "--grid", "256",
                 "--out", str(tmp_path / "rays.csv")]) == 4
    assert "still bouncing" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["groove.off"]


def test_trust_region_exit_code(tmp_path, monkeypatch):
    def no_assembly(mesh):
        raise AssertionError("operator assembled past the trust region")

    monkeypatch.setattr(lowfreq, "assemble_single_layer", no_assembly)
    code = main(["lowfreq", "--body", "sphere:1", "--level", "2",
                 "--k-min", "0.05", "--k-max", "2.0", "--samples", "4",
                 "--out", str(tmp_path / "r.json")])
    assert code == 5
    assert list(tmp_path.iterdir()) == []


def test_job_too_large_for_memory_exits_4(tmp_path, monkeypatch, capsys):
    # level 3 has 320 panels in 46 orbits, about 1.0 MiB of dense work
    monkeypatch.setattr(potential, "_available_bytes", lambda: 2**19)
    mesh = make_body(Sphere(1.0), 3)
    reps = potential._mirror_group(mesh).reps
    ii, _ = potential._near_pairs(mesh)
    need = potential._dense_solve_bytes(mesh.n_triangles, len(reps), len(ii),
                                        int(np.count_nonzero(np.isin(ii, reps)))) / 2**20
    for command in ("capacity", "lowfreq"):
        code = main([command, "--body", "sphere:1", "--level", "3",
                     "--out", str(tmp_path / f"{command}.json")])
        assert code == 4
        err = capsys.readouterr().err
        assert "does not fit in memory" in err
        assert f"{need:.1f} MiB" in err and "0.5 MiB available" in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_exits_2():
    result = run_cli("capacity", "--bogus")
    assert result.returncode == 2


# ---------------------------------------------------------------------------
# determinism


def test_rerun_byte_identical(tmp_path):
    out = tmp_path / "cap.json"
    args = ["capacity", "--body", "sphere:1", "--level", "3", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_thread_count_invariance(tmp_path):
    # the sphere, and an ellipsoid whose full n x n LU drifts between one
    # and two BLAS threads; both are solved on their mirror-symmetry blocks
    for body in ("sphere:1", "ellipsoid:2,1,1.5"):
        outputs, samples = [], []
        for threads, name in ((1, "t1.json"), (2, "t2.json")):
            out = tmp_path / name
            result = run_cli(
                "--threads", str(threads), "lowfreq", "--body", body,
                "--level", "3", "--out", str(out), cwd=tmp_path,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(json.loads(out.read_text()))
            f12 = (tmp_path / f"{out.stem}_f12.csv").read_text().splitlines()
            header, *rows = [ln for ln in f12 if not ln.startswith("#")]
            samples.append(dict(zip(header.split(","),
                                    np.loadtxt(rows, delimiter=",", unpack=True))))
        for key in ("capacity", "K", "Z1", "M", "d2_direct"):
            a, b = outputs[0][key], outputs[1][key]
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
        # f2 changes sign, so its drift is measured against the column maximum
        # rather than pointwise
        a, b = samples
        for column in ("cos_theta", "phi", "f1"):
            assert np.array_equal(a[column], b[column])
        assert np.max(np.abs(a["f2"] - b["f2"])) <= 1e-12 * np.max(np.abs(a["f2"]))


def test_thread_count_invariance_mesh_trace(tmp_path):
    # the mesh tracer's cull runs matrix products; BLAS threading may change
    # their rounding but must not change a single hit
    mesh_path = tmp_path / "ellipsoid.off"
    save_mesh(make_body(Ellipsoid(1.2, 1.0, 0.8), 3), mesh_path)
    outputs = []
    for threads in (1, 2):
        run = tmp_path / f"t{threads}"
        run.mkdir()
        # the same --out in both runs, so the config echo lines agree
        result = run_cli(
            "--threads", str(threads), "raytrace", "--mesh", str(mesh_path),
            "--grid", "96", "--out", "rays.csv", cwd=run,
        )
        assert result.returncode == 0, result.stderr
        outputs.append([(run / name).read_bytes()
                        for name in ("rays.csv", "rays_histogram.csv")])
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# thread budget


def test_cli_import_loads_no_numpy(tmp_path):
    # numpy must not be loaded before --threads is in the environment
    result = subprocess.run(
        [sys.executable, "-c",
         "import hardscatter.cli, sys; "
         "print([m for m in ('numpy', 'scipy') if m in sys.modules])"],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_threads_in_process_exits_2(tmp_path, capsys):
    # numpy is loaded in this process, so the budget cannot reach BLAS
    out = tmp_path / "cap.json"
    code = main(["--threads", "1", "capacity", "--body", "sphere:1",
                 "--level", "2", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "--threads" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status to count threads")
def test_threads_one_runs_blas_on_one_thread(tmp_path):
    script = (
        "import sys; from hardscatter.cli import main; "
        "code = main(sys.argv[1:]); "
        "print(code, [line.split()[1] for line in open('/proc/self/status') "
        "if line.startswith('Threads:')][0])"
    )
    # the budget covers the ray tracer too: it starts no worker thread
    for command in (["capacity", "--body", "sphere:1", "--level", "3"],
                    ["raytrace", "--body", "sphere:1", "--grid", "1100"]):
        result = subprocess.run(
            [sys.executable, "-c", script, "--threads", "1", *command,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "1"], command[0]

"""The package surface: the lazy export table and the demo scripts."""

import importlib
import subprocess
import sys
from pathlib import Path

import hardscatter

from cli_env import cli_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_export_table():
    # a stale entry would make ``from hardscatter import *`` fail
    for name in hardscatter.__all__:
        getattr(hardscatter, name)
    for module, names in hardscatter._EXPORTS.items():
        public = importlib.import_module(f"hardscatter.{module}").__all__
        assert not set(names) - set(public), module
    # one low-k record: the Theorem-1 functionals live on AmplitudeExpansion
    assert hardscatter._EXPORTS["lowfreq"] == (
        "AmplitudeExpansion", "amplitude_expansion", "cross_sections_lowfreq",
        "solve_expansion_densities")


def test_demos_run(tmp_path):
    # all at once, in a scratch directory: demo 05 writes its CSV into the
    # working directory
    assert len(DEMOS) == 5
    env = {**cli_env(), "OPENBLAS_NUM_THREADS": "1"}
    procs = [
        subprocess.Popen([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for demo in DEMOS
    ]
    try:
        for demo, proc in zip(DEMOS, procs):
            _, err = proc.communicate(timeout=600)
            assert (proc.returncode, err) == (0, ""), demo.name
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


def _child_stdout(code: str, cwd) -> list[str]:
    """Standard output lines of ``code`` run in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-c", "import sys\n" + code],
                            capture_output=True, text=True, cwd=cwd, env=cli_env())
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_tracer_loads_no_scipy(tmp_path):
    # the errors the tracer raises and the CLI catches live in geometry, and
    # a mesh's diameter is found without cdist, so importing the tracer, and
    # a raytrace run on an analytic body or an OFF mesh, load no scipy
    from hardscatter.geometry import Sphere, make_body, save_mesh

    save_mesh(make_body(Sphere(1.0), 3), tmp_path / "sphere3.off")
    loaded = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"
    code = ("import hardscatter.classical\n"
            f"print({loaded})\n"
            "from hardscatter.cli import main\n"
            "code = main(['raytrace', '--body', 'sphere:1', '--grid', '64',"
            " '--out', 'rays.csv'])\n"
            f"print(code, {loaded})\n"
            "code = main(['raytrace', '--mesh', 'sphere3.off', '--grid', '64',"
            " '--out', 'mesh_rays.csv'])\n"
            f"print(code, {loaded})\n")
    assert _child_stdout(code, tmp_path) == ["[]", "0 []", "0 []"]


def test_capacity_loads_scipy_linalg_only(tmp_path):
    # the near pairs come from a cell list, not a cKDTree: the low-k chain
    # needs scipy.linalg and nothing under scipy.spatial
    code = ("from hardscatter.cli import main\n"
            "code = main(['capacity', '--body', 'sphere:1', '--level', '2',"
            " '--out', 'cap.json'])\n"
            "print(code, 'scipy.linalg' in sys.modules,"
            " [m for m in sys.modules if m.startswith('scipy.spatial')])\n")
    assert _child_stdout(code, tmp_path) == ["0 True []"]

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


def test_tracer_loads_no_scipy(tmp_path):
    # the errors the tracer raises and the CLI catches live in geometry, so
    # importing the tracer, and a raytrace run on an analytic body, load no
    # scipy
    code = ("import sys\n"
            "import hardscatter.classical\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
            "from hardscatter.cli import main\n"
            "code = main(['raytrace', '--body', 'sphere:1', '--grid', '64',"
            " '--out', 'rays.csv'])\n"
            "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            cwd=tmp_path, env=cli_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "0 []"]

"""Byte-identity check of the CLI and the demos against an earlier revision.

    python tools/golden_cli.py [--threads N] REV

Extracts ``git archive REV`` into a temporary directory (the repository's
``.git`` is only read) and runs a fixed set of CLI configs, and every script
in the tree's ``demos/``, against that tree and against the working tree.
Each run has a fresh directory, a thread budget of N (default 1: the BLAS
pools and the ray tracer run single-threaded) in ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS``, and the tree's absolute
``src`` as ``PYTHONPATH``.  The exit code and every file a run
writes are compared, and so is a demo's stdout; stderr is not.  Each
difference is printed, and the exit status is 1 if there is any, 0 if
everything agrees.

A refactor that is meant to keep the CLI's outputs byte-identical is checked
with ``python tools/golden_cli.py <parent commit>``.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# inputs of the --mesh configs, written once into the REV tree's root and
# copied into every run directory, so both trees read the same bytes: a
# level-3 icosphere, a level-5 one (5120 triangles) and the benchmark's
# dented sphere, whose pits reflect rays up to five times, all written by
# the REV tree (from its root, so that its perfbench imports); and a unit
# cube with every face split along a diagonal, written from SPLIT_CUBE_OFF,
# where the 256 grid rays on the diagonal land exactly on the lit face's
# split edge and are retraced
MESH = "sphere3.off"
MESH5 = "sphere5.off"
DENTED = "dented.off"
EDGES = "split_cube.off"
MESHES = (MESH, MESH5, DENTED, EDGES)
MAKE_MESH = ("from hardscatter.geometry import Sphere, make_body, save_mesh; "
             "from perfbench.workloads import dented_sphere; "
             f"save_mesh(make_body(Sphere(1.0), 3), {MESH!r}); "
             f"save_mesh(make_body(Sphere(1.0), 5), {MESH5!r}); "
             f"save_mesh(dented_sphere(1.37)[0], {DENTED!r})")
SPLIT_CUBE_OFF = """OFF
8 12 0
0 0 0
1 0 0
1 1 0
0 1 0
0 0 1
1 0 1
1 1 1
0 1 1
3 0 2 1
3 0 3 2
3 4 5 6
3 4 6 7
3 0 1 5
3 0 5 4
3 2 3 7
3 2 7 6
3 0 4 7
3 0 7 3
3 1 2 6
3 1 6 5
"""

GOLDEN = {
    "capacity_sphere": "capacity --body sphere:1 --level 4 --out cap.json",
    "capacity_cylinder": "capacity --body cylinder:1,2 --level 4 --out cap.json",
    "lowfreq_sphere": "lowfreq --body sphere:1 --level 4 --k-min 0.01 "
                      "--k-max 0.2 --samples 20 --out report.json",
    # the benchmark's shape: 5120 panels, twenty assembly blocks
    "lowfreq_sphere5": "lowfreq --body sphere:1 --level 5 --k-min 0.01 "
                       "--k-max 0.2 --samples 20 --out report.json",
    "lowfreq_ellipsoid": "lowfreq --body ellipsoid:2,1,1.5 --level 4 --out report.json",
    "lowfreq_cylinder": "lowfreq --body cylinder:1,2 --level 3 --out report.json",
    "compare_sphere": "compare --body sphere:1 --level 4 --grid 256 --out compare.json",
    "mie_sphere": "mie --body sphere:1 --k-min 0.05 --k-max 20 --samples 50 --out mie.csv",
    "fig1": "fig1 --k-min 0.05 --k-max 60 --samples 100 --out fig1.csv",
    # series orders past 600; from ka about 270 phase_shifts extends its first table
    "mie_log": "mie --body sphere:1 --k-min 0.05 --k-max 600 --samples 120 "
               "--log --out mie.csv",
    "raytrace_sphere": "raytrace --body sphere:1 --grid 256 --out rays.csv",
    # two chunks of grid rows, 909 and 191, whose counts are summed
    "raytrace_sphere_chunks": "raytrace --body sphere:1 --grid 1100 --out rays.csv",
    "raytrace_cylinder": "raytrace --body cylinder:1,2 --grid 256 --out rays.csv",
    "raytrace_ellipsoid": "raytrace --body ellipsoid:1.2,1,0.8 --grid 256 --out rays.csv",
    # the analytic kernels past grid 256: two chunks of rows, 909 and 191,
    # each cut into blocks of at most 131072 rays
    "raytrace_ellipsoid_chunks": "raytrace --body ellipsoid:1.2,1,0.8 --grid 1100 "
                                 "--out rays.csv",
    # an odd grid: at --threads 2 the second of the two blocks starts
    # mid-row, at ray 32513 = 127 * 255 + 128
    "raytrace_cylinder_odd": "raytrace --body cylinder:1,2 --grid 255 --out rays.csv",
    "raytrace_mesh": f"raytrace --mesh {MESH} --grid 256 --out rays.csv",
    "raytrace_dented": f"raytrace --mesh {DENTED} --grid 256 --out rays.csv",
    # two blocks of the trace lattice on one thread, 131072 and 28928 rays;
    # the second starts mid-row, at row 327, column 272, and its rays bounce
    # up to five times
    "raytrace_dented_blocks": f"raytrace --mesh {DENTED} --grid 400 --out rays.csv",
    "raytrace_edges": f"raytrace --mesh {EDGES} --grid 256 --out rays.csv",
    # an odd grid: the centre column lies at y = 0, in the plane of
    # icosphere edges, whose hits are retraced; at --threads 2 the two blocks
    # of the 65025 rays split mid-row, at 32513 = 127 * 255 + 128
    "raytrace_mesh_odd": f"raytrace --mesh {MESH} --grid 255 --out rays.csv",
    # 5120 triangles: each block's first pass cuts its pairs into many
    # triangle groups, and the later passes' sphere cull takes blocks of
    # _MIN_BLOCK_RAYS rays, at any thread count
    "raytrace_mesh5": f"raytrace --mesh {MESH5} --grid 256 --out rays.csv",
}
# config errors: each must exit 2 in both trees
ERRORS = {
    "err_body_and_mesh": f"capacity --body sphere:1 --mesh {MESH}",
    "err_no_body": "capacity",
    "err_level": "capacity --body sphere:1 --level 9",
    "err_grid": "raytrace --body sphere:1 --grid 10",
    "err_compare_mesh": f"compare --mesh {MESH}",
    "err_quad_theta": "lowfreq --body sphere:1 --quad-theta 1",
    "err_samples": "mie --body sphere:1 --samples 1",
    "err_threads": "--threads 0 capacity --body sphere:1",
    "err_mie_cylinder": "mie --body cylinder:1,2",
}


def _env(tree: Path, threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True)
    if archive.returncode:
        raise SystemExit(archive.stderr.decode(errors="replace").strip())
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def _run(tree: Path, work: Path, meshes: Path, threads: int) -> dict:
    """Exit code and output files (name -> bytes) of every config and demo;
    a demo's stdout counts as its file ``<stdout>``."""
    jobs = {name: ["-m", "hardscatter.cli", *command.split()]
            for name, command in {**GOLDEN, **ERRORS}.items()}
    demos = {f"demo {p.name}": [str(p)] for p in sorted((tree / "demos").glob("*.py"))}
    results = {}
    for name, args in {**jobs, **demos}.items():
        run = work / name.replace(" ", "_")
        run.mkdir(parents=True)
        for mesh in MESHES:
            shutil.copy(meshes / mesh, run / mesh)
        proc = subprocess.run([sys.executable, *args], cwd=run,
                              env=_env(tree, threads), capture_output=True)
        files = {p.name: p.read_bytes() for p in sorted(run.iterdir())
                 if p.name not in MESHES}
        if name in demos:
            files["<stdout>"] = proc.stdout
        results[name] = (proc.returncode, files)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="byte-identity check of the CLI and the demos against REV")
    parser.add_argument("--threads", type=int, default=1,
                        help="thread budget of every run (default 1)")
    parser.add_argument("rev")
    args = parser.parse_args(argv)
    rev = args.rev
    with tempfile.TemporaryDirectory(prefix="golden_cli_") as tmp:
        tmp = Path(tmp)
        _extract(rev, tmp / "rev")
        subprocess.run([sys.executable, "-c", MAKE_MESH], cwd=tmp / "rev",
                       env=_env(tmp / "rev", 1), check=True)
        (tmp / "rev" / EDGES).write_text(SPLIT_CUBE_OFF, encoding="utf-8")
        before = _run(tmp / "rev", tmp / "runs_rev", tmp / "rev", args.threads)
        after = _run(ROOT, tmp / "runs_work", tmp / "rev", args.threads)

    differences = [f"{name}: run by one tree only"
                   for name in sorted(before.keys() ^ after.keys())]
    for name in (name for name in before if name in after):
        (code, files), (new_code, new_files) = before[name], after[name]
        if new_code != code:
            differences.append(f"{name}: exit {code} at {rev}, {new_code} now")
        if name in ERRORS and new_code != 2:
            differences.append(f"{name}: config error exits {new_code}, not 2")
        for file in sorted(files.keys() | new_files.keys()):
            if files.get(file) != new_files.get(file):
                both = file in files and file in new_files
                differences.append(f"{name}: {file} "
                                   + ("differs" if both else "written by one tree only"))
    for line in differences:
        print(line)
    n_files = sum(len(files) for _, files in after.values())
    print(f"{len(after)} configs and demos, {n_files} output files: "
          f"{len(differences)} difference(s) against {rev}")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Byte-identity check of the CLI and the demos against an earlier revision.

    python tools/golden_cli.py [--threads N] [--rel BOUND] REV

Extracts ``git archive REV`` into a temporary directory (the repository's
``.git`` is only read) and runs a fixed set of CLI configs, and every script
in the tree's ``demos/``, against that tree and against the working tree.
Each run has a fresh directory, a thread budget of N (default 1: the BLAS
pools and the ray tracer run single-threaded) in ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS``, and the tree's absolute
``src`` as ``PYTHONPATH``.  The exit code and every file a run
writes are compared, and so is a demo's stdout; stderr is not, but when a
file is written by one tree only, both exit codes and the last lines of
both stderrs are printed with it.  Each difference is printed, and the exit
status is 1 if there is any, 0 if everything agrees.

A refactor that is meant to keep the CLI's outputs byte-identical is checked
with ``python tools/golden_cli.py <parent commit>``.

``--rel BOUND`` compares numbers instead of bytes, for a change that is meant
to move output bits.  For each output file that differs it prints, per CSV
column or JSON key, the largest change scaled by that column's largest
magnitude in REV's output; a demo's stdout is compared number by number,
each scaled by its own magnitude.  A JSON key whose REV values all lie below
2^-52 times the largest magnitude in REV's file, and likewise a stdout
number below 2^-52 times the largest number in REV's stdout, is rounding
around an exact 0 (``K`` on a mirror-symmetric body): its change is scaled
by that largest magnitude instead.  Columns and keys that only the working
tree writes are listed as new and not counted.  Any other difference (an
exit code, a file or column written by REV only, a changed row count or
any text that is not a number) counts as an infinite change.  The exit
status is 1 if any change exceeds BOUND.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
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
# the REV tree (from its root, so that its perfbench imports); a unit cube
# with every face split along a diagonal, written from SPLIT_CUBE_OFF, where
# the 256 grid rays on the diagonal land exactly on the lit face's split
# edge and are retraced; a prism with a V-notch in its bottom face,
# written from GROOVE_OFF, whose notch apex is a concave crease; and the
# level-4 Ellipsoid(2, 1, 1.5) scaled by 1e-2 and moved by (1e3, -2e3, 5e2),
# written by the REV tree, whose near-pair cell list and diameter work on
# coordinates 1e5 times the body's size; and two unit tetrahedra 1e6 apart,
# written from TETRAHEDRA_OFF, so that a tree that rejects the mesh as
# degenerate still writes it; and the level-3 icosphere with the x of its
# first vertex that has no zero coordinate moved up by one ulp, written by
# the REV tree, which has no mirror symmetry left
MESH = "sphere3.off"
MESH5 = "sphere5.off"
DENTED = "dented.off"
EDGES = "split_cube.off"
GROOVE = "groove.off"
FAR = "far_ellipsoid.off"
TETRAHEDRA = "far_tetrahedra.off"
ULP = "sphere3_ulp.off"
MESHES = (MESH, MESH5, DENTED, EDGES, GROOVE, FAR, TETRAHEDRA, ULP)
MAKE_MESH = ("import numpy as np; "
             "from hardscatter.geometry import Ellipsoid, Sphere, TriMesh, make_body, "
             "save_mesh; "
             "from perfbench.workloads import dented_sphere; "
             f"save_mesh(make_body(Sphere(1.0), 3), {MESH!r}); "
             f"save_mesh(make_body(Sphere(1.0), 5), {MESH5!r}); "
             f"save_mesh(dented_sphere(1.37)[0], {DENTED!r}); "
             "e = make_body(Ellipsoid(2.0, 1.0, 1.5), 4); "
             "save_mesh(TriMesh.from_arrays(e.vertices * 1e-2 + (1e3, -2e3, 5e2), "
             f"e.triangles), {FAR!r}); "
             "s = make_body(Sphere(1.0), 3); v = s.vertices.copy(); "
             "i = np.flatnonzero(np.all(v != 0.0, axis=1))[0]; "
             "v[i, 0] = np.nextafter(v[i, 0], np.inf); "
             f"save_mesh(TriMesh.from_arrays(v, s.triangles), {ULP!r})")
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
# an extruded heptagon, 2 wide and 1 deep, whose bottom face has a V-notch
# 1 wide and 0.9 high
GROOVE_OFF = """OFF
14 24 0
-1 -0.5 0
-0.5 -0.5 0
0 -0.5 0.90000000000000002
0.5 -0.5 0
1 -0.5 0
1 -0.5 1
-1 -0.5 1
-1 0.5 0
-0.5 0.5 0
0 0.5 0.90000000000000002
0.5 0.5 0
1 0.5 0
1 0.5 1
-1 0.5 1
3 0 8 1
3 0 7 8
3 1 9 2
3 1 8 9
3 2 10 3
3 2 9 10
3 3 11 4
3 3 10 11
3 4 12 5
3 4 11 12
3 5 13 6
3 5 12 13
3 6 7 0
3 6 13 7
3 0 1 6
3 7 13 8
3 1 2 6
3 8 13 9
3 2 5 6
3 9 13 12
3 2 3 5
3 9 12 10
3 3 4 5
3 10 12 11
"""
# two_far_tetrahedra(1e6) of tests/test_potential.py
TETRAHEDRA_OFF = """OFF
8 8 0
0 0 0
1 0 0
0.5 0.8660254037844386 0
0.5 0.28999999999999998 0.80000000000000004
1000000 0 0
1000001 0 0
1000000.5 0.8660254037844386 0
1000000.5 0.28999999999999998 0.80000000000000004
3 0 2 1
3 0 1 3
3 1 2 3
3 2 0 3
3 4 6 5
3 4 5 7
3 5 6 7
3 6 4 7
"""

GOLDEN = {
    "capacity_sphere": "capacity --body sphere:1 --level 4 --out cap.json",
    "capacity_cylinder": "capacity --body cylinder:1,2 --level 4 --out cap.json",
    # 1280 panels far from the origin for their size
    "capacity_far": f"capacity --mesh {FAR} --out cap.json",
    # parts of diameter 1 in a mesh of diameter 1e6: each triangle's area
    # floor comes from its own longest edge
    "capacity_far_tetrahedra": f"capacity --mesh {TETRAHEDRA} --out cap.json",
    # one ulp off the mirror symmetry of sphere3.off: the identity group,
    # whose one block is the full matrix
    "capacity_sphere_ulp": f"capacity --mesh {ULP} --out cap.json",
    "lowfreq_sphere": "lowfreq --body sphere:1 --level 4 --k-min 0.01 "
                      "--k-max 0.2 --samples 20 --out report.json",
    # the benchmark's shape: 5120 panels, twenty assembly blocks
    "lowfreq_sphere5": "lowfreq --body sphere:1 --level 5 --k-min 0.01 "
                       "--k-max 0.2 --samples 20 --out report.json",
    "lowfreq_ellipsoid": "lowfreq --body ellipsoid:2,1,1.5 --level 4 --out report.json",
    "lowfreq_cylinder": "lowfreq --body cylinder:1,2 --level 3 --out report.json",
    # a direction rule other than the default reaches the f1/f2 CSV unchanged
    "lowfreq_quad": "lowfreq --body ellipsoid:2,1,1.5 --level 3 --quad-theta 8 "
                    "--quad-phi 16 --out report.json",
    # no z-mirror symmetry (K != 0), so d2_direct and d2_formula_corrected
    # differ by -(8 pi / 3) K (integral mu1a - K); the body's diameter is
    # 2.74, so k up to 0.18 stays inside the trust region
    "lowfreq_dented": f"lowfreq --mesh {DENTED} --k-min 0.01 --k-max 0.18 "
                      "--samples 20 --out report.json",
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
    # an odd grid: the centre column's ray lands on a concave crease, and its
    # reflection steps off along the hit face's normal
    "raytrace_dented_odd": f"raytrace --mesh {DENTED} --grid 255 --out rays.csv",
    "raytrace_edges": f"raytrace --mesh {EDGES} --grid 256 --out rays.csv",
    # an odd grid: the centre column lies at y = 0, in the plane of
    # icosphere edges, whose hits are retraced; at --threads 2 the two blocks
    # of the 65025 rays split mid-row, at 32513 = 127 * 255 + 128
    "raytrace_mesh_odd": f"raytrace --mesh {MESH} --grid 255 --out rays.csv",
    # 5120 triangles: each block's first pass cuts its pairs into many
    # triangle groups; the body is convex, so every ray is done after it
    "raytrace_mesh5": f"raytrace --mesh {MESH5} --grid 256 --out rays.csv",
    # an odd grid: the centre column's rays land on the notch's apex and
    # some slip through it, to meet the top face from behind; a ray is done
    # only after it meets a supporting face from the front
    "raytrace_groove_odd": f"raytrace --mesh {GROOVE} --grid 255 --out rays.csv",
    "raytrace_far": f"raytrace --mesh {FAR} --grid 256 --out rays.csv",
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
    """Exit code, output files (name -> bytes) and stderr of every config
    and demo; a demo's stdout counts as its file ``<stdout>``."""
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
        results[name] = (proc.returncode, files, proc.stderr)
    return results


def _stderr_tail(stderr: bytes, lines: int = 5) -> str:
    tail = stderr.decode(errors="replace").splitlines()[-lines:] or ["(empty)"]
    return "".join(f"\n    | {line}" for line in tail)


# a decimal number; "nan" and "inf" compare as text
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


# a JSON key or stdout number whose REV magnitude is below this fraction of
# its file's largest is rounding around an exact 0
_ROUNDING = 2.0**-52


def _as_number(value):
    """A number from a CSV cell or a JSON scalar, or None; bools are not."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str) and _NUMBER.fullmatch(value.strip()):
        return float(value)
    return None


def _column_change(old: list, new: list, largest: float = 0.0) -> float:
    """Largest |new - old| over a column, scaled by the column's largest
    magnitude in ``old``, or by ``largest``, the largest magnitude in the
    file, when the column's is below ``_ROUNDING * largest``; inf for a
    changed length or non-numeric cell."""
    if len(old) != len(new):
        return math.inf
    pairs = [(_as_number(a), _as_number(b), a, b) for a, b in zip(old, new)]
    if any((x is None or y is None) and a != b for x, y, a, b in pairs):
        return math.inf
    numbers = [(x, y) for x, y, _, _ in pairs if x is not None and y is not None]
    change = max((abs(y - x) for x, y in numbers), default=0.0)
    scale = max((abs(x) for x, _ in numbers), default=0.0)
    if scale < _ROUNDING * largest:
        scale = largest
    if change == 0.0:
        return 0.0
    return change / scale if scale > 0.0 else math.inf


def _csv_columns(text: str) -> dict[str, list]:
    """Columns of a CSV the package writes, by header name; its ``# ``
    comment lines together form the column ``#``."""
    lines = text.splitlines()
    columns = {"#": [ln for ln in lines if ln.startswith("#")]}
    rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    if rows:
        header, body = rows[0], rows[1:]
        for i, name in enumerate(header):
            columns[name] = [row[i] if i < len(row) else None for row in body]
    return columns


def _json_columns(obj, path: str = "", out=None) -> dict[str, list]:
    """JSON scalars by dotted key path; the items of a list share their
    list's path, so a list of numbers is one column."""
    out = {} if out is None else out
    if isinstance(obj, dict):
        for key, value in obj.items():
            _json_columns(value, f"{path}.{key}" if path else key, out)
    elif isinstance(obj, list):
        for value in obj:
            _json_columns(value, path, out)
    else:
        out.setdefault(path, []).append(obj)
    return out


def _largest(columns: dict[str, list]) -> float:
    """The largest magnitude of any number in ``columns``."""
    return max((abs(x) for column in columns.values() for x in map(_as_number, column)
                if x is not None), default=0.0)


def _text_numbers(text: str) -> tuple[list[str], list[float]]:
    """The text between numbers, and the numbers, of a demo's stdout."""
    return _NUMBER.split(text), [float(m) for m in _NUMBER.findall(text)]


def compare_file(file: str, old: bytes, new: bytes) -> tuple[dict[str, float], list[str]]:
    """Numeric comparison of one output file written by both trees.

    Returns the change per column (``_column_change``; for stdout, per line,
    each number scaled by its own magnitude) and the columns only ``new``
    has.  A JSON key, or a stdout number, below ``_ROUNDING`` times the
    file's largest magnitude is scaled by that magnitude.  Files that are
    neither CSV nor JSON nor stdout compare as bytes.
    """
    old_text, new_text = old.decode(), new.decode()
    if file == "<stdout>":
        old_lines, new_lines = old_text.splitlines(), new_text.splitlines()
        if len(old_lines) != len(new_lines):
            return {"<lines>": math.inf}, []
        largest = max(map(abs, _text_numbers(old_text)[1]), default=0.0)
        changes = {}
        for i, (a, b) in enumerate(zip(old_lines, new_lines), 1):
            (a_text, a_nums), (b_text, b_nums) = _text_numbers(a), _text_numbers(b)
            if a_text != b_text:
                changes[f"line {i}"] = math.inf
            elif a_nums != b_nums:
                changes[f"line {i}"] = max(_column_change([x], [y], largest)
                                           for x, y in zip(a_nums, b_nums))
        return changes, []
    if file.endswith(".csv"):
        before, after = _csv_columns(old_text), _csv_columns(new_text)
        largest = 0.0
    elif file.endswith(".json"):
        before, after = _json_columns(json.loads(old_text)), _json_columns(json.loads(new_text))
        largest = _largest(before)
    else:
        return ({"<bytes>": math.inf} if old != new else {}), []
    changes = {name: (_column_change(column, after[name], largest) if name in after
                      else math.inf)
               for name, column in before.items()}
    return ({name: c for name, c in changes.items() if c != 0.0},
            [name for name in after if name not in before])


def _differences(before: dict, after: dict, rev: str, numeric: bool) -> list:
    """(label, change) of every difference between the two trees' runs.

    A byte difference in a file is one infinite change; with ``numeric``
    it is one change per column from ``compare_file``, whose new columns
    are listed with change None.
    """
    found = [(f"{name}: run by one tree only", math.inf)
             for name in sorted(before.keys() ^ after.keys())]
    for name in (name for name in before if name in after):
        (code, files, err), (new_code, new_files, new_err) = before[name], after[name]
        if new_code != code:
            found.append((f"{name}: exit {code} at {rev}, {new_code} now", math.inf))
        if name in ERRORS and new_code != 2:
            found.append((f"{name}: config error exits {new_code}, not 2", math.inf))
        for file in sorted(files.keys() | new_files.keys()):
            if files.get(file) == new_files.get(file):
                continue
            if file not in files or file not in new_files:
                found.append((f"{name}: {file} written by one tree only "
                              f"(exit {code} at {rev}, {new_code} now)"
                              f"\n  stderr at {rev}:{_stderr_tail(err)}"
                              f"\n  stderr now:{_stderr_tail(new_err)}", math.inf))
            elif not numeric:
                found.append((f"{name}: {file} differs", math.inf))
            else:
                changes, added = compare_file(file, files[file], new_files[file])
                found += [(f"{name}: {file}: {column}", change)
                          for column, change in changes.items()]
                found += [(f"{name}: {file}: {column}", None) for column in added]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="byte-identity check of the CLI and the demos against REV")
    parser.add_argument("--threads", type=int, default=1,
                        help="thread budget of every run (default 1)")
    parser.add_argument("--rel", type=float, default=None, metavar="BOUND",
                        help="compare numbers, each change scaled by its "
                             "column's largest magnitude, against BOUND")
    parser.add_argument("rev")
    args = parser.parse_args(argv)
    rev = args.rev
    with tempfile.TemporaryDirectory(prefix="golden_cli_") as tmp:
        tmp = Path(tmp)
        _extract(rev, tmp / "rev")
        subprocess.run([sys.executable, "-c", MAKE_MESH], cwd=tmp / "rev",
                       env=_env(tmp / "rev", 1), check=True)
        (tmp / "rev" / EDGES).write_text(SPLIT_CUBE_OFF, encoding="utf-8")
        (tmp / "rev" / GROOVE).write_text(GROOVE_OFF, encoding="utf-8")
        (tmp / "rev" / TETRAHEDRA).write_text(TETRAHEDRA_OFF, encoding="utf-8")
        before = _run(tmp / "rev", tmp / "runs_rev", tmp / "rev", args.threads)
        after = _run(ROOT, tmp / "runs_work", tmp / "rev", args.threads)

    n_files = sum(len(files) for _, files, _ in after.values())
    found = _differences(before, after, rev, numeric=args.rel is not None)
    if args.rel is None:
        for label, _ in found:
            print(label)
        print(f"{len(after)} configs and demos, {n_files} output files: "
              f"{len(found)} difference(s) against {rev}")
        return 1 if found else 0

    over = 0
    for label, change in found:
        if change is None:
            print(f"{label}: new")
        else:
            over += change > args.rel
            print(f"{label}: {change:.3g}" + ("  ABOVE BOUND" if change > args.rel else ""))
    print(f"{len(after)} configs and demos, {n_files} output files: "
          f"{over} change(s) above {args.rel:g} against {rev}")
    return 1 if over else 0


if __name__ == "__main__":
    raise SystemExit(main())

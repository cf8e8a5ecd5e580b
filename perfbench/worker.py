"""One benchmark process: import the package, build the seeded inputs, then
run jobs closed-loop, one client, each job being the in-process
``hardscatter.cli.main([...])`` calls a user would make, and check every
job's outputs.

The parent (run.py) starts this in a fresh interpreter with the BLAS thread
budget and an absolute ``src`` path already in the environment, and reads
the JSON result file it writes.  ``--t0`` is the parent's monotonic clock
just before the spawn, so ``setup_s`` includes interpreter start-up.
With ``--setup-only`` the process times the yardstick after set-up instead
of running jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

MAX_REPORTED_FAILURES = 5
YARDSTICK_S = 0.6      # how long a set-up probe times the yardstick


def yardstick(min_s: float) -> float:
    """Mean seconds of one round of fixed work that depends on nothing in
    ``hardscatter``: a 1000 x 1000 LU factorization (BLAS, with the job's
    thread budget) and streaming passes over 16 MB arrays, the kinds of work
    the jobs spend their time in.  Rounds repeat until ``min_s`` has
    passed."""
    import numpy as np
    import scipy.linalg as sla

    rng = np.random.default_rng(0)
    m = rng.standard_normal((1000, 1000))
    x = rng.standard_normal(2_000_000)
    y = np.empty_like(x)
    rounds = 0
    start = time.perf_counter()
    while True:
        sla.lu_factor(m)
        for _ in range(8):
            np.multiply(x, x, out=y)
            np.sqrt(y, out=y)
            np.add(y, x, out=y)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_s:
            return elapsed / rounds


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run(args) -> dict:
    # everything the subcommands load, then the inputs: this is setup_s
    from hardscatter import classical, cli, geometry, lowfreq, potential, sphere_oracle  # noqa: F401
    import numpy as np

    import workloads

    workdir = Path(args.workdir)
    workload = workloads.WORKLOADS[args.workload](
        np.random.default_rng(args.seed), workdir, args.tiny)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        yardstick(0.0)                  # first touch and first BLAS call, not timed
        return {"setup_s": setup_s, "yardstick_s": yardstick(YARDSTICK_S)}

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    out = workdir / "out"
    failures: list[str] = []
    errors_seen: list[float] = []
    layer_rows: list[dict] = []

    def job(i: int, case: int, traced: bool) -> tuple[float, bool]:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        if traced:
            tracer.install(i)
        start = time.perf_counter()
        try:
            codes = [cli.main(argv) for argv in workload.argvs(case, out)]
            problems = [f"job {i}: exit code {c}" for c in codes if c != 0]
        except SystemExit as exc:          # argparse rejected the arguments
            problems = [f"job {i}: exit code {exc.code}"]
        except Exception as exc:           # counted as a failed job
            problems = [f"job {i}: {exc!r}"]
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        if not problems:
            try:
                checks, err = workload.check(case, out)
            except (OSError, ValueError, KeyError) as exc:
                checks, err = [f"unreadable output: {exc!r}"], None
            problems = [f"job {i}: {c}" for c in checks]
            if err is not None:
                errors_seen.append(err)
        failures.extend(problems)
        if traced:
            size = sum(p.stat().st_size for p in out.iterdir())
            layer_rows.append(tracer.job_metrics(i, size))
        return elapsed, bool(problems)

    attempted = 1
    failed = 0
    first_s, bad = job(0, 0, traced=False)
    failed += bad
    warm_s: list[float] = []
    traced_s: list[float] = []
    i = 1
    elapsed = first_s
    # start a job only if it should end by --until, judged by the last one
    while (len(warm_s) + len(traced_s) < args.min_warm
           or time.monotonic() + elapsed <= args.until):
        # traced runs alternate untraced and traced jobs on the same case
        traced = tracer is not None and i % 2 == 0
        elapsed, bad = job(i, (i + 1) // 2 if tracer else i, traced)
        (traced_s if traced else warm_s).append(elapsed)
        attempted += 1
        failed += bad
        i += 1

    result = {
        "setup_s": setup_s,
        "first_job_s": first_s,
        "warm_s": warm_s,
        "traced_s": traced_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "rel_err": max(errors_seen) if errors_seen else None,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _versions(),
    }
    if tracer is not None:
        result["layers"] = tracing.median_metrics(layer_rows) if layer_rows else {}
        result["missing_spans"] = tracer.missing
        if warm_s and traced_s:
            result["layers"]["trace.overhead_s"] = (
                statistics.median(traced_s) - statistics.median(warm_s))
    return result


def self_test(args) -> dict:
    """Checks that need the package: a missing trace target is reported, not
    fatal, and the dented bodies keep the properties the workload relies on."""
    import numpy as np

    from hardscatter import cli, geometry  # noqa: F401

    import tracing
    import workloads

    problems = []
    tracer = tracing.Tracer(tracing.TARGETS + [("hardscatter.potential", "no_such_fn"),
                                               ("hardscatter.no_such_module", "f")])
    if tracer.missing != ["potential.no_such_fn", "no_such_module.f"]:
        problems.append(f"missing spans listed as {tracer.missing}")
    rng = np.random.default_rng(args.seed)
    for _ in range(3):
        radius = float(rng.uniform(0.5, 2.0))
        mesh, shadow = workloads.dented_sphere(radius)
        unit = geometry.make_body(geometry.Sphere(radius), workloads.BUMPY_LEVEL)
        p0, p1, p2 = mesh.corners()
        if np.einsum("ij,ij->i", p0, np.cross(p1, p2)).min() <= 0:
            problems.append("dented body is not star-shaped about the origin")
        for reduce in (np.min, np.max):
            if not np.array_equal(reduce(mesh.vertices[:, :2], axis=0),
                                  reduce(unit.vertices[:, :2], axis=0)):
                problems.append("dented body changed the shadow bounding box")
        if abs(geometry.shadow_area(mesh, 128) / shadow - 1.0) > 0.02:
            problems.append("dented body shadow differs from the icosphere's")
    return {"problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--until", type=float, default=0.0,
                        help="monotonic time by which the warm jobs should end")
    parser.add_argument("--min-warm", dest="min_warm", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", dest="setup_only", action="store_true")
    parser.add_argument("--self-test", dest="self_test", action="store_true")
    args = parser.parse_args(argv)
    result = self_test(args) if args.self_test else run(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

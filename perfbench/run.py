"""hardscatter benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload lowfreq_sphere5 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1            # all three workloads
    python3 perfbench/run.py --self-test         # every check at tiny sizes

Each workload runs in fresh child processes, one at a time, started with the
BLAS thread budget pinned to the CPUs this process may use and an absolute
``src`` path.  With ``--trace 0`` fresh processes, one after another, each
import the package, build the seeded inputs (``setup_s``), run one cold job
(``first_job_s``) and then warm jobs closed-loop, one client, for a quarter
of the run; the last one that fits runs to the end (``job_s_p50`` over the
warm jobs of all).  There are at least two, and each runs at least one warm
job.  Further fresh processes only set up, one before, between and after
the job processes.  A process starts a job only if the job should end in time,
judged by its last job.

The host's speed drifts by tens of percent within minutes, and every kind
of work drifts together, so every set-up probe also times a fixed
yardstick (``worker.yardstick``), and the three times of a run are scaled
by ``YARD_REF_S`` over the median of its probes' yardsticks: they are
seconds at the yardstick's reference speed.  The unscaled medians are
printed too.
With ``--trace 1`` one process runs a cold job, then alternates untraced and
wrapped (traced) jobs and reports the per-layer metrics, plus the tracing
overhead as traced minus untraced median job time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the run completed (failed checks are counted, not fatal) and non-zero
when it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("lowfreq_sphere5", "raytrace_bumpy", "crossover_sphere")

MIN_JOB_PROCESSES = 2  # fresh processes that run jobs, per untraced run
JOB_SHARES = 4         # a job process but the last runs jobs for this share of a run
MIN_WARM = 1           # warm jobs per process even when its time is up
MIN_TRACED_PAIRS = 2   # untraced/traced job pairs in a traced run
RUN_LIMIT_S = 170.0    # hard stop for one workload, children included
# Seconds of one yardstick round on a 2-vCPU Xeon VM (OpenBLAS 0.3.31,
# 2 threads) at a typical moment; reported times are seconds at that speed.
YARD_REF_S = 0.08

END_TO_END_UNITS = {
    "setup_s": "s",
    "first_job_s": "s",
    "job_s_p50": "s",
    "peak_rss_mb": "MiB",
    "pass_share": "ratio",
    "rel_err": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def spawn(run_dir: Path, deadline: float, workload: str, seed: int, **opts) -> dict:
    """Run one worker process to completion and return its result."""
    workdir = Path(tempfile.mkdtemp(dir=run_dir))
    result = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--result", str(result)]
    for key, value in opts.items():
        if value is True:
            cmd.append("--" + key.replace("_", "-"))
        elif value is not None and value is not False:
            cmd += ["--" + key.replace("_", "-"), str(value)]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker killed after the {RUN_LIMIT_S:g} s limit") from None
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_workload(run_dir: Path, workload: str, seed: int, seconds: int,
                 trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    until = start + seconds
    if trace:
        procs = [spawn(run_dir, deadline, workload, seed, trace=1, until=until,
                       min_warm=2 * MIN_TRACED_PAIRS)]
    else:
        # Set-up probes first, last and between the job processes, so that
        # one run's samples and yardsticks are spread over its whole length
        # on a machine whose speed drifts.
        def probe():
            return spawn(run_dir, deadline, workload, seed, setup_only=True)

        probes = [probe()]
        probe_s = time.monotonic() - start
        close_at = start + seconds - probe_s
        procs: list[dict] = []
        longest = 0.0
        while True:
            now = time.monotonic()
            # the last process that fits runs warm jobs up to the closing probe
            last = (len(procs) + 1 >= MIN_JOB_PROCESSES
                    and now + 2 * longest + probe_s > close_at)
            until = close_at if last else min(close_at, now + seconds / JOB_SHARES)
            procs.append(spawn(run_dir, deadline, workload, seed, min_warm=MIN_WARM,
                               until=until))
            longest = max(longest, time.monotonic() - now)
            probes.append(probe())
            if len(procs) >= MIN_JOB_PROCESSES and (
                    last or time.monotonic() + longest > close_at):
                break
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    warm_s = [t for p in procs for t in p["warm_s"]]
    last = procs[-1]
    raw = {}
    if trace:
        import tracing

        units = dict(tracing.LAYER_UNITS, **{"trace.overhead_s": "s",
                                             "trace.missing_spans": "count"})
        values = dict(last["layers"], **{"trace.missing_spans": len(last["missing_spans"])})
    else:
        errors = [p["rel_err"] for p in procs if p["rel_err"] is not None]
        if not errors:
            raise BenchError(f"{workload}: no job produced checkable output")
        units = END_TO_END_UNITS

        yard = statistics.median(p["yardstick_s"] for p in probes)
        raw = {
            "setup_s": statistics.median(p["setup_s"] for p in procs + probes),
            "first_job_s": statistics.median(p["first_job_s"] for p in procs),
            "job_s_p50": statistics.median(warm_s),
            "yardstick_s": yard,
        }
        values = {k: raw[k] * YARD_REF_S / yard
                  for k in ("setup_s", "first_job_s", "job_s_p50")}
        values.update({
            "peak_rss_mb": max(p["peak_rss_mib"] for p in procs),
            "pass_share": (attempted - failed) / attempted,
            "rel_err": max(errors),
        })
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in procs for f in p["failures"]],
        "warm_jobs": len(warm_s),
        "traced_jobs": len(last["traced_s"]),
        "missing_spans": last.get("missing_spans", []),
        "env": last["env"],
        "raw": raw,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def report(res: dict, seed: int) -> None:
    env = res["env"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, {env['blas_threads']} BLAS threads, nproc {env['nproc']}")
    print(f"{res['workload']} (seed {seed}): {res['attempted']} jobs attempted, "
          f"{res['failed']} failed; {res['warm_jobs']} warm untraced jobs, "
          f"{res['traced_jobs']} traced jobs")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    if res["missing_spans"]:
        print(f"  missing spans: {', '.join(res['missing_spans'])}")
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in res["raw"].items():
        print(f"  unscaled {name:31s} {value:.6g} s")


def self_test(run_dir: Path) -> list[str]:
    """Every workload's jobs and checks at tiny sizes, with the tracer on."""
    deadline = time.monotonic() + RUN_LIMIT_S
    problems = spawn(run_dir, deadline, "-", 1, self_test=True)["problems"]
    expect = {
        # level 4: 1280 panels; the matrix and its LU copy, 8 n^2 bytes each
        "lowfreq_sphere5": {"potential.assemble_calls": 1, "potential.solve_calls": 3,
                            "potential.dense_mb": 2 * 8 * 1280**2 / 2**20,
                            "classical.rays": 0, "sphere_oracle.k_points": 0},
        "raytrace_bumpy": {"geometry.triangles": 320, "potential.assemble_calls": 0,
                           "sphere_oracle.k_points": 0, "classical.rays": 64 * 64},
        "crossover_sphere": {"sphere_oracle.k_points": 8, "classical.rays": 64 * 64,
                             "classical.multi_bounce_share": 0,
                             "potential.assemble_calls": 0},
    }
    probe = spawn(run_dir, deadline, "crossover_sphere", 1, tiny=True, setup_only=True)
    if not probe["yardstick_s"] > 0:
        problems.append(f"set-up probe timed the yardstick at {probe['yardstick_s']}")
    for workload, wanted in expect.items():
        res = spawn(run_dir, deadline, workload, 1, trace=1, tiny=True,
                    until=time.monotonic(), min_warm=2)
        problems += res["failures"] + [f"{workload}: missing span {m}"
                                       for m in res["missing_spans"]]
        layers = res["layers"]
        for key, value in wanted.items():
            if layers.get(key) != value:
                problems.append(f"{workload}: {key} = {layers.get(key)}, expected {value}")
        if workload == "raytrace_bumpy" and not layers["classical.multi_bounce_share"] > 0:
            problems.append("raytrace_bumpy: no ray hit twice")
        print(f"self-test {workload}: {res['attempted']} jobs, {res['failed']} failed")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", dest="self_test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "hardscatter" / "cli.py").is_file():
        print(f"error: package source not found at {SRC / 'hardscatter'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.self_test:
            problems = self_test(run_dir)
            for p in problems:
                print(f"  FAILED {p}")
            print("self-test:", "FAIL" if problems else "PASS")
            return 1 if problems else 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(run_dir, n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    for res in results:
        report(res, args.seed)
    single = len(results) == 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(k if single else f"{r['workload']}.{k}"): m
                    for r in results for k, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

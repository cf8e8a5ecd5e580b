"""Command-line front end.

Subcommands: ``capacity``, ``lowfreq``, ``mie``, ``raytrace``, ``fig1``,
``compare``.  Outputs are CSV/JSON only; every file carries the artifact
version, a config echo and the direction convention, and reruns with the
same config are byte-identical.

Exit codes: 0 ok, 2 config error, 3 mesh/topology error, 4 solver error,
5 trust-region violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import _THREAD_VARS, __version__

_CONVENTION = "incident direction is +z; forward means cos_theta near +1"


# largest ray grid per side: a 4096^2 trace of an analytic sphere takes
# 2.5-3.1 s and about 190 MiB peak RSS on a 2-vCPU VM (3.6-4.2 s and
# 150 MiB on one thread)
_MAX_GRID = 4096

# smallest ka of a partial-wave sweep: from ka 1e-6 down to 2.2e-38 the
# phase shifts give delta_0 = -ka within 1e-13 relative and sigma = 4 pi a^2
# within 1e-12 (measured at four points a decade); from about ka 1.3e-38
# down, y_7 overflows and the series no longer converges
_MIN_SERIES_KA = 1e-37

# largest partial-wave sweep: 200 samples from ka 1 up to ka 1e5 take
# 5.3-6.1 s on one thread of a 2-vCPU VM, within the 6.7-6.8 s that 200
# samples up to ka 3000 took while the phase shifts cost L^2 a sample
_MAX_SERIES_KA = 1e5


class ConfigError(ValueError):
    pass


def _set_thread_budget(threads: int | None) -> None:
    """Put ``threads`` into the thread variables of the environment.

    OpenBLAS, MKL and OpenMP read these once, when numpy is first imported;
    the ray tracer reads them on each trace, for its worker count.
    Importing this module does not import numpy, so when hardscatter starts
    the process (``hardscatter`` or ``python -m hardscatter.cli``) the
    budget reaches every BLAS pool.  If numpy is already loaded, as for an
    in-process caller of :func:`main`, the pools are fixed and the budget
    could not act: that is a :class:`ConfigError` (exit code 2).
    """
    if threads is None:
        return
    if "numpy" in sys.modules:
        raise ConfigError(
            "--threads acts only when hardscatter starts the process; numpy "
            "is already imported here, so its BLAS thread pools are fixed "
            "(set OMP_NUM_THREADS/OPENBLAS_NUM_THREADS before starting "
            "Python instead)"
        )
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)


def _parse_body(spec: str):
    from . import geometry

    kind, _, rest = spec.partition(":")
    try:
        params = [float(s) for s in rest.split(",")] if rest else []
    except ValueError:
        raise ConfigError(f"--body: bad numeric parameter in {spec!r}") from None
    try:
        if kind == "sphere" and len(params) == 1:
            return geometry.Sphere(params[0])
        if kind == "ellipsoid" and len(params) == 3:
            return geometry.Ellipsoid(*params)
        if kind == "cylinder" and len(params) == 2:
            return geometry.CappedCylinder(*params)
    except ValueError as exc:
        raise ConfigError(f"--body: {exc}") from None
    raise ConfigError(
        f"--body: expected sphere:R | ellipsoid:A,B,C | cylinder:R,H, got {spec!r}"
    )


def _sphere(args):
    from .geometry import Sphere

    body = _parse_body(args.body)
    if not isinstance(body, Sphere):
        raise ConfigError(f"--body: {args.command} needs a sphere body")
    return body


def _resolve_mesh(args):
    from . import geometry

    if args.mesh:
        return geometry.load_mesh(args.mesh)
    return geometry.make_body(_parse_body(args.body), args.level)


def _check_k_range(args) -> None:
    if not args.k_min > 0:
        raise ConfigError("--k-min must be positive")
    if not args.k_min < args.k_max < float("inf"):
        raise ConfigError("--k-max must be finite and exceed --k-min")


def _k_grid(args):
    import numpy as np

    _check_k_range(args)
    if args.log:
        return np.geomspace(args.k_min, args.k_max, args.samples)
    return np.linspace(args.k_min, args.k_max, args.samples)


def _series_k_grid(args, radius: float):
    """The k grid of a partial-wave sweep, refused before any work when it
    starts below ka ``_MIN_SERIES_KA`` or the sweep outgrows one of 200
    samples up to ka ``_MAX_SERIES_KA``.

    A sample costs about its series order L = ``default_truncation(ka)``:
    the recurrence makes one pass over the orders, and the sums another.
    So ``samples * L`` is held to ``200 * L_max``, with L taken at
    ``k_max``.  L itself is held to ``L_max`` too: the recurrence's loop
    over the orders costs about as much for a chunk of a few samples as
    for a full chunk, so fewer samples do not make a higher order cheap.
    The limits are checked before the grid is built, which could overflow.
    """
    from .sphere_oracle import default_truncation

    _check_k_range(args)
    if args.k_min * radius < _MIN_SERIES_KA:
        raise ConfigError(
            f"--k-min {args.k_min:g} gives ka {args.k_min * radius:g}, below "
            f"ka {_MIN_SERIES_KA:g}, where the phase shifts lose accuracy; "
            "raise --k-min"
        )
    ka_max = args.k_max * radius  # inf past the float range
    order = default_truncation(ka_max) if ka_max < float("inf") else ka_max
    limit = default_truncation(_MAX_SERIES_KA)
    if max(args.samples, 200) * order > 200 * limit:
        raise ConfigError(
            f"--samples {args.samples} up to ka {args.k_max * radius:g} "
            f"(series order {order:g}) is more work than 200 samples up to "
            f"ka {_MAX_SERIES_KA:g}; lower --k-max or --samples"
        )
    return _k_grid(args)


def _config_echo(args) -> str:
    skip = {"func", "threads"}
    parts = [args.command]
    for key in sorted(vars(args)):
        if key in skip or key == "command":
            continue
        value = getattr(args, key)
        if value is not None and value is not False:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _meta(args) -> dict:
    """The record every output carries: JSON ``meta``, or CSV comment lines."""
    meta = {
        "artifact": f"hardscatter {__version__}",
        "config": _config_echo(args),
        "convention": _CONVENTION,
    }
    # capacity/expansion theory assumes a smooth surface; flag bodies with
    # edges or corners in their reports
    if (getattr(args, "body", None) or "").startswith("cylinder"):
        meta["note"] = "non-smooth body (edges); smooth-surface theory applied as-is"
    return meta


def _headers(args) -> list[str]:
    labels = {"artifact": "", "config": "config: ",
              "convention": "direction convention: ", "note": "note: "}
    return [labels[key] + value for key, value in _meta(args).items()]


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sibling(path: str, suffix: str) -> str:
    stem, ext = os.path.splitext(path)
    return stem + suffix + (".csv" if ext == ".json" else ext)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_capacity(args) -> int:
    from . import potential

    mesh = _resolve_mesh(args)
    value = potential.capacity(mesh)
    _write_json(args.out, {"meta": _meta(args), "capacity": value,
                           "triangles": mesh.n_triangles})
    return 0


def _cmd_lowfreq(args) -> int:
    from . import lowfreq
    from ._table import write_csv

    # config errors and the trust region are checked before the operator is
    # assembled, and the sigma rows are computed before any file is written
    if (args.k_min is None) != (args.k_max is None):
        raise ConfigError("--k-min and --k-max must be given together")
    k_values = None if args.k_min is None else _k_grid(args)
    mesh = _resolve_mesh(args)
    if k_values is not None:
        lowfreq.check_trust_region(float(k_values.max()), mesh.diameter)
    amp = lowfreq.amplitude_expansion(lowfreq.solve_expansion_densities(mesh))
    if k_values is not None:
        sigma, sigma_t = zip(*[lowfreq.cross_sections_lowfreq(amp, k)
                               for k in k_values.tolist()])
    _write_json(args.out, {"meta": _meta(args), **amp.report_dict()})
    if k_values is not None:
        write_csv(_sibling(args.out, "_sigma"), _headers(args),
                  {"k": k_values, "sigma": sigma, "sigma_T": sigma_t})
    return 0


def _cmd_mie(args) -> int:
    from . import sphere_oracle

    radius = _sphere(args).radius
    k_values = _series_k_grid(args, radius)
    sphere_oracle.sweep_to_csv(args.out, radius, k_values, _headers(args))
    return 0


def _cmd_fig1(args) -> int:
    from . import sphere_oracle

    k_values = _series_k_grid(args, sphere_oracle.FIG1_RADIUS)
    sphere_oracle.fig1_to_csv(args.out, k_values, header_lines=_headers(args))
    return 0


def _cmd_raytrace(args) -> int:
    from . import classical

    # analytic bodies trace against their exact surfaces
    body = _resolve_mesh(args) if args.mesh else _parse_body(args.body)
    result = classical.trace(body, grid=args.grid)
    classical.trace_to_csv(result, args.out, _headers(args))
    classical.histogram_to_csv(result.histogram, _sibling(args.out, "_histogram"),
                               _headers(args))
    return 0


def _cmd_compare(args) -> int:
    import numpy as np

    from . import classical, lowfreq, sphere_oracle
    from .geometry import make_body

    body = _sphere(args)
    amp = lowfreq.amplitude_expansion(
        lowfreq.solve_expansion_densities(make_body(body, args.level)))
    oracle = sphere_oracle.low_k_extrapolate(body.radius)
    ka_grid = np.array([50.0, 100.0, 200.0])
    highk = classical.theorem2_check(body.radius, ka_grid, grid=args.grid)
    payload = {
        "meta": _meta(args),
        "d2_bem": amp.d2,
        "d2_oracle": oracle.d2,
        "d2_rel_diff": abs(amp.d2 / oracle.d2 - 1.0),
        "capacity_bem": amp.capacity,
        "capacity_oracle": oracle.capacity,
        "highk": {
            "ka": list(highk.ka),
            "sigma_over_2sigma_cl": list(highk.sigma_ratio),
            "sigmaT_over_Rcl": list(highk.sigma_t_ratio),
            "transport_below_total": highk.transport_below_total,
        },
    }
    _write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer no smaller than ``low`` (and, when ``high``
    is given, no larger than ``high``)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _add_level(p):
    p.add_argument("--level", type=int, choices=range(7), default=4,
                   help="refinement level for analytic bodies")


def _add_body_options(p, with_level=True):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--body", help="sphere:R | ellipsoid:A,B,C | cylinder:R,H")
    group.add_argument("--mesh", help="path to an OFF mesh")
    if with_level:
        _add_level(p)


def _add_k_options(p, required=False):
    p.add_argument("--k-min", dest="k_min", type=float,
                   default=(0.05 if required else None))
    p.add_argument("--k-max", dest="k_max", type=float,
                   default=(60.0 if required else None))
    p.add_argument("--samples", type=_int_in(2), default=200)
    p.add_argument("--log", action="store_true", help="logarithmic k grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardscatter",
        description="Cross sections of hard bodies: boundary-integral "
        "expansion, exact sphere series, and classical rays.",
    )
    parser.add_argument("--threads", type=_int_in(1), default=None,
                        help="thread budget of the linear algebra and the "
                        "ray tracer (only when hardscatter starts the process)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="electrostatic capacity of a body")
    _add_body_options(p)
    p.add_argument("--out", default="capacity.json")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("lowfreq", help="small-k expansion report and checks")
    _add_body_options(p)
    _add_k_options(p)
    p.add_argument("--out", default="lowfreq.json")
    p.set_defaults(func=_cmd_lowfreq)

    p = sub.add_parser("mie", help="exact hard-sphere sweep")
    p.add_argument("--body", required=True, help="sphere:R")
    _add_k_options(p, required=True)
    p.add_argument("--out", default="mie.csv")
    p.set_defaults(func=_cmd_mie)

    p = sub.add_parser("raytrace", help="classical ray tracing")
    _add_body_options(p, with_level=False)
    p.add_argument("--grid", type=_int_in(64, _MAX_GRID), default=1024)
    p.add_argument("--out", default="raytrace.csv")
    p.set_defaults(func=_cmd_raytrace)

    p = sub.add_parser("fig1", help="oracle sweep at radius 1/sqrt(pi) with "
                                    "classical reference lines")
    _add_k_options(p, required=True)
    p.add_argument("--out", default="fig1.csv")
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("compare", help="expansion vs oracle (sphere), "
                                       "oracle vs classical at high k")
    p.add_argument("--body", required=True, help="sphere:R")
    _add_level(p)
    p.add_argument("--grid", type=_int_in(64, _MAX_GRID), default=1024)
    p.add_argument("--out", default="compare.json")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (2)
        return exc.code
    try:
        # an --out that cannot be opened would surface only after the job ran
        out_dir = os.path.dirname(args.out) or os.curdir
        if not os.path.isdir(out_dir) or os.path.isdir(args.out):
            raise ConfigError(
                f"--out: {args.out!r} is not a file in an existing directory")
        _set_thread_budget(args.threads)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # the first numpy import, after the thread budget is in the environment;
    # geometry holds every error below and imports no scipy
    from .geometry import MeshError, SolverError, TrustRegionError

    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MeshError as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except TrustRegionError as exc:
        print(f"trust-region error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())

"""Per-layer spans recorded from outside the package.

Each traced function object is wrapped once, and the wrapper is bound in
place of the original in every ``hardscatter`` module namespace that binds
that object (``lowfreq`` imports ``assemble_single_layer``, ``mu0``, ... by
name, so patching ``potential`` alone would miss its calls).  A method is
wrapped on its class.  A span is (name, start, end, parent span, job id);
spans and counts stay in memory until the run ends.  A target that no longer
exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import weakref

import numpy as np

# (module, attribute path); the span name is "<module tail>.<attribute>".
TARGETS = [
    ("hardscatter.cli", "main"),
    ("hardscatter.geometry", "make_body"),
    ("hardscatter.geometry", "load_mesh"),
    ("hardscatter.potential", "_near_pairs"),
    ("hardscatter.potential", "assemble_single_layer"),
    ("hardscatter.potential", "SingleLayerOperator.factorize"),
    ("hardscatter.potential", "solve_density"),
    ("hardscatter.potential", "distance_moment"),
    ("hardscatter.lowfreq", "solve_expansion_densities"),
    ("hardscatter.lowfreq", "amplitude_expansion"),
    ("hardscatter.lowfreq", "cross_sections_lowfreq"),
    ("hardscatter.lowfreq", "amplitude_to_csv"),
    ("hardscatter.sphere_oracle", "phase_shifts"),
    ("hardscatter.sphere_oracle", "cross_sections"),
    ("hardscatter.sphere_oracle", "sweep_to_csv"),
    ("hardscatter.classical", "trace"),
    ("hardscatter.classical", "_first_hit"),
    ("hardscatter.classical", "_mesh_hit"),
    ("hardscatter.classical", "histogram_to_csv"),
]

# Per-layer metrics and their units, in report order.  Every "_s" metric is
# self time (span duration minus its child spans) summed over one job, except
# cli.main_s, which is the whole call.
LAYER_UNITS = {
    "geometry.make_body_s": "s",
    "geometry.load_mesh_s": "s",
    "geometry.triangles": "count",
    "potential.near_pairs_s": "s",
    "potential.near_pairs": "count",
    "potential.assemble_s": "s",
    "potential.assemble_calls": "count",
    "potential.factorize_s": "s",
    "potential.lu_gflops": "GFLOP/s",
    "potential.solve_s": "s",
    "potential.solve_calls": "count",
    "potential.distance_moment_s": "s",
    "potential.dense_mb": "MiB",
    "lowfreq.solve_expansion_densities_s": "s",
    "lowfreq.amplitude_expansion_s": "s",
    "lowfreq.cross_sections_lowfreq_s": "s",
    "lowfreq.amplitude_to_csv_s": "s",
    "sphere_oracle.phase_shifts_s": "s",
    "sphere_oracle.cross_sections_s": "s",
    "sphere_oracle.sweep_to_csv_s": "s",
    "sphere_oracle.k_points": "count",
    "sphere_oracle.terms": "count",
    "sphere_oracle.terms_per_s": "1/s",
    "classical.trace_s": "s",
    "classical.first_hit_s": "s",
    "classical.bounce_passes": "count",
    "classical.rays": "count",
    "classical.rays_per_s": "1/s",
    "classical.multi_bounce_share": "ratio",
    "classical.edge_retrace_rays": "count",
    "classical.histogram_to_csv_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
}

# Span names whose self time makes up each "_s" metric.
_SELF_TIME = {
    "geometry.make_body_s": ("geometry.make_body",),
    "geometry.load_mesh_s": ("geometry.load_mesh",),
    "potential.near_pairs_s": ("potential._near_pairs",),
    "potential.assemble_s": ("potential.assemble_single_layer",),
    "potential.factorize_s": ("potential.SingleLayerOperator.factorize",),
    "potential.solve_s": ("potential.solve_density",),
    "potential.distance_moment_s": ("potential.distance_moment",),
    "lowfreq.solve_expansion_densities_s": ("lowfreq.solve_expansion_densities",),
    "lowfreq.amplitude_expansion_s": ("lowfreq.amplitude_expansion",),
    "lowfreq.cross_sections_lowfreq_s": ("lowfreq.cross_sections_lowfreq",),
    "lowfreq.amplitude_to_csv_s": ("lowfreq.amplitude_to_csv",),
    "sphere_oracle.phase_shifts_s": ("sphere_oracle.phase_shifts",),
    "sphere_oracle.cross_sections_s": ("sphere_oracle.cross_sections",),
    "sphere_oracle.sweep_to_csv_s": ("sphere_oracle.sweep_to_csv",),
    "classical.trace_s": ("classical.trace",),
    "classical.first_hit_s": ("classical._first_hit", "classical._mesh_hit"),
    "classical.histogram_to_csv_s": ("classical.histogram_to_csv",),
    "cli.self_s": ("cli.main",),
}


def _span_name(module: str, attr: str) -> str:
    return f"{module.rpartition('.')[2]}.{attr}"


class Tracer:
    """Wraps the targets, records spans while installed, and reduces the
    spans of each job to the per-layer metrics."""

    def __init__(self, targets=TARGETS):
        self.spans: list[list] = []     # [name, start, end, parent, job]
        self.counts: dict[int, dict[str, float]] = {}
        self.missing: list[str] = []
        self.job = -1
        self._stack: list[int] = []
        self._pass = 0                  # bounce pass of the current trace
        self._factors = {}              # id -> weakref of LU factors counted
        self._bindings = []             # (owner, attr, original, wrapper)
        for module, attr in targets:
            self._wrap(module, attr)

    # -- installation -----------------------------------------------------

    def _wrap(self, module: str, attr: str) -> None:
        name = _span_name(module, attr)
        owner = sys.modules.get(module)
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, last, None) if owner is not None else None
        if not callable(original):
            self.missing.append(name)
            return
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        wrapper = self._make_wrapper(name, original, observe)
        if path:
            self._bindings.append((owner, last, original, wrapper))
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "hardscatter" or mod_name.startswith("hardscatter."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, key, original, wrapper))

    def _make_wrapper(self, name, original, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self.job])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result, index)
            return result

        return wrapper

    def install(self, job: int) -> None:
        self.job = job
        self.counts[job] = {}
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # -- counts recorded at the boundaries --------------------------------

    def _add(self, key: str, value: float) -> None:
        counts = self.counts[self.job]
        counts[key] = counts.get(key, 0) + value

    def _observe_geometry_make_body(self, args, kwargs, mesh, index):
        self._add("geometry.triangles", mesh.n_triangles)

    _observe_geometry_load_mesh = _observe_geometry_make_body

    def _observe_potential__near_pairs(self, args, kwargs, pairs, index):
        self._add("potential.near_pairs", len(pairs[0]))

    def _observe_potential_assemble_single_layer(self, args, kwargs, op, index):
        self._add("potential.assemble_calls", 1)
        self._add("potential.dense_mb", 8.0 * op.n * op.n / 2**20)

    def _observe_potential_SingleLayerOperator_factorize(self, args, kwargs, lu, index):
        # factorize caches its LU factors; a call that returns factors seen
        # before did no work
        factors = lu[0]
        seen = self._factors.get(id(factors))
        if seen is not None and seen() is factors:
            return
        self._factors[id(factors)] = weakref.ref(factors)
        n = args[0].n
        # lu_factor copies the matrix: a second dense n x n array
        self._add("potential.dense_mb", 8.0 * n * n / 2**20)
        if "potential.lu_gflops" not in self.counts[self.job]:
            _, start, end, _, _ = self.spans[index]
            self._add("potential.lu_gflops", (2.0 / 3.0) * n**3 / (end - start) / 1e9)

    def _observe_potential_solve_density(self, args, kwargs, density, index):
        self._add("potential.solve_calls", 1)

    def _observe_sphere_oracle_phase_shifts(self, args, kwargs, table, index):
        self._add("sphere_oracle.k_points", 1)
        self._add("sphere_oracle.terms", len(table.delta))

    def _observe_classical_trace(self, args, kwargs, result, index):
        self._add("classical.rays", result.rays_total)

    def _observe_classical__first_hit(self, args, kwargs, result, index):
        # a pass whose rays all still travel along +z is the first of a row
        # block; later passes carry reflected rays
        dirs = args[2]
        self._pass = 1 if np.all(dirs[:, 2] == 1.0) else self._pass + 1
        self._add("classical.bounce_passes", 1)
        if self._pass <= 2:
            self._add(f"classical.hits_pass{self._pass}",
                      int(np.count_nonzero(np.isfinite(result[0]))))

    def _observe_classical__mesh_hit(self, args, kwargs, result, index):
        parent = self.spans[index][3]
        if parent is not None and self.spans[parent][0] == "classical._mesh_hit":
            self._add("classical.edge_retrace_rays", len(args[1]))

    # -- reduction --------------------------------------------------------

    def job_metrics(self, job: int, output_bytes: int) -> dict[str, float]:
        """Per-layer metrics of one traced job."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == job]
        child_time: dict[int, float] = {}
        for _, s in spans:
            if s[3] is not None:
                child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
        self_time: dict[str, float] = {}
        total: dict[str, float] = {}
        for i, s in spans:
            duration = s[2] - s[1]
            self_time[s[0]] = self_time.get(s[0], 0.0) + duration - child_time.get(i, 0.0)
            if s[3] is None or self.spans[s[3]][0] != s[0]:
                total[s[0]] = total.get(s[0], 0.0) + duration
        counts = self.counts.get(job, {})
        out = {key: 0.0 for key in LAYER_UNITS}
        for key, names in _SELF_TIME.items():
            out[key] = sum(self_time.get(n, 0.0) for n in names)
        for key in LAYER_UNITS:
            if key in counts:
                out[key] = float(counts[key])
        out["cli.main_s"] = total.get("cli.main", 0.0)
        out["cli.output_bytes"] = float(output_bytes)
        series_s = out["sphere_oracle.phase_shifts_s"] + out["sphere_oracle.cross_sections_s"]
        if series_s > 0:
            out["sphere_oracle.terms_per_s"] = out["sphere_oracle.terms"] / series_s
        if total.get("classical.trace", 0.0) > 0:
            out["classical.rays_per_s"] = out["classical.rays"] / total["classical.trace"]
        if counts.get("classical.hits_pass1"):
            out["classical.multi_bounce_share"] = (
                counts.get("classical.hits_pass2", 0) / counts["classical.hits_pass1"])
        return out


def median_metrics(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Median over jobs of each per-layer metric."""
    return {key: statistics.median(m[key] for m in per_job) for key in LAYER_UNITS}
